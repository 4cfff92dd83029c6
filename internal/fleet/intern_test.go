package fleet

import (
	"reflect"
	"testing"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/host"
	"veridevops/internal/stig"
)

// shapedCatalog builds one of three catalogue shapes over h: 0 is the
// stock Ubuntu catalogue; 1 adds a finding that shares pkg:nis with
// V-219157; 2 wraps V-219177 in a fault injector with an empty plan,
// which keeps its verdicts but hides its key declaration.
func shapedCatalog(shape int, h *host.Linux) *core.Catalog {
	c := stig.UbuntuCatalog(h)
	switch shape {
	case 1:
		c.MustRegister(&stig.UbuntuPackagePattern{
			Finding: &core.Finding{ID: "V-990001", Sev: "low", Desc: "nis must be absent"},
			Host:    h, PackageName: "nis",
		})
	case 2:
		wrapped := core.NewCatalog()
		for _, r := range c.All() {
			if r.FindingID() == "V-219177" {
				r = core.InjectFaults(r, engine.NewFaultInjector(0, engine.FaultPlan{}))
			}
			wrapped.MustRegister(r)
		}
		c = wrapped
	}
	return c
}

// mixedFleet is LinuxFleet(n) with host i on catalogue shape i%3.
func mixedFleet(n int) ([]Target, []*host.Linux) {
	targets, hosts := LinuxFleet(n)
	for i := range targets {
		targets[i].Catalog = shapedCatalog(i%3, hosts[i])
	}
	return targets, hosts
}

// watchedIndex returns the dependency index the streamer holds for a
// watched host.
func watchedIndex(s *Streamer, name string) *DepIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hosts[name].index.DepIndex
}

// internRefs returns the intern table's size and the sum of its
// reference counts.
func internRefs(s *Streamer) (entries, refs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ix := range s.indexes {
		refs += ix.refs
	}
	return len(s.indexes), refs
}

func TestStreamerInternsIndexByDeclarations(t *testing.T) {
	targets, hosts := mixedFleet(9)
	s := NewStreamer(NewCoordinator(), StreamOptions{})
	for i, tg := range targets {
		s.Watch(tg, hosts[i].Log())
	}
	for i, tg := range targets {
		got := watchedIndex(s, tg.Name)
		if first := watchedIndex(s, targets[i%3].Name); got != first {
			t.Errorf("%s (shape %d) holds index %p, %s of the same shape holds %p", tg.Name, i%3, got, targets[i%3].Name, first)
		}
		if want := BuildDepIndex(tg.Catalog); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: shared index %+v, built alone %+v", tg.Name, got, want)
		}
	}
	a, b, c := watchedIndex(s, targets[0].Name), watchedIndex(s, targets[1].Name), watchedIndex(s, targets[2].Name)
	if a == b || a == c || b == c {
		t.Fatalf("distinct declaration sets share an index: %p %p %p", a, b, c)
	}
	if entries, refs := internRefs(s); entries != 3 || refs != len(targets) {
		t.Fatalf("intern table: %d entries, %d refs; want 3, %d", entries, refs, len(targets))
	}

	// Re-watching a host under another shape moves its reference.
	tg := targets[0]
	tg.Catalog = shapedCatalog(1, hosts[0])
	s.Watch(tg, hosts[0].Log())
	if watchedIndex(s, tg.Name) != b {
		t.Error("re-watched host did not join the index of its new shape")
	}
	if entries, refs := internRefs(s); entries != 3 || refs != len(targets) {
		t.Fatalf("after re-watch: %d entries, %d refs; want 3, %d", entries, refs, len(targets))
	}

	for _, tg := range targets {
		s.Unwatch(tg.Name)
	}
	if entries, refs := internRefs(s); entries != 0 || refs != 0 {
		t.Fatalf("after unwatching every host: %d entries, %d refs; want an empty table", entries, refs)
	}
}

// TestStreamerRewatchDuringFlush unwatches hosts and re-watches them
// under another catalogue shape while flushes run (run under -race). The
// intern table must end with exactly the references of the hosts
// watched, and the live view must match a fresh sweep.
func TestStreamerRewatchDuringFlush(t *testing.T) {
	const rounds = 21
	targets, hosts := mixedFleet(6)
	s := NewStreamer(NewCoordinator(), StreamOptions{Shards: 2, Workers: 1})
	for i, tg := range targets {
		s.Watch(tg, hosts[i].Log())
	}
	s.Flush(0)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < rounds; round++ {
			for i := range targets {
				if round%2 == 0 {
					hosts[i].Remove("aide")
					s.Unwatch(targets[i].Name)
					continue
				}
				hosts[i].Install("aide", "1")
				targets[i].Catalog = shapedCatalog((i+round)%3, hosts[i])
				s.Watch(targets[i], hosts[i].Log())
			}
		}
	}()
	// Flush for as long as the goroutine re-watches.
	for i, running := 1, true; running; i++ {
		select {
		case <-done:
			running = false
		default:
		}
		s.Flush(time.Duration(i) * time.Millisecond)
	}

	// The last round unwatched every host.
	if entries, refs := internRefs(s); entries != 0 || refs != 0 {
		t.Fatalf("after the last unwatch: %d entries, %d refs; want an empty table", entries, refs)
	}
	for i, tg := range targets {
		s.Watch(tg, hosts[i].Log())
	}
	if entries, refs := internRefs(s); entries != 3 || refs != len(targets) {
		t.Fatalf("re-watched fleet: %d entries, %d refs; want 3, %d", entries, refs, len(targets))
	}
	s.Flush(time.Second)
	truth, _ := Sweep(targets, Options{Shards: 2, Workers: 1})
	p, f, i := truth.Counts()
	if gp, gf, gi := s.Counts(); gp != p || gf != f || gi != i {
		t.Fatalf("live counts %d/%d/%d, fresh sweep %d/%d/%d", gp, gf, gi, p, f, i)
	}
}
