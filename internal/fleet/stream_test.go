package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

func streamFixture(t *testing.T, n int) (*Streamer, []Target, []*host.Linux) {
	t.Helper()
	targets, hosts := LinuxFleet(n)
	s := NewStreamer(NewCoordinator(), StreamOptions{Shards: 2, Workers: 1})
	for i, tg := range targets {
		s.Watch(tg, hosts[i].Log())
	}
	return s, targets, hosts
}

func TestStreamerPrimesThenDeltas(t *testing.T) {
	s, _, hosts := streamFixture(t, 3)
	// The totals are summed from the flushes' own results.
	var flushes, fullAudits int
	flush := func(at time.Duration) FlushResult {
		fr := s.Flush(at)
		if len(fr.Hosts) > 0 {
			flushes++
		}
		for _, d := range fr.Hosts {
			if d.Full {
				fullAudits++
			}
		}
		return fr
	}

	// First flush primes every host with a full catalogue run.
	fr := flush(0)
	if len(fr.Hosts) != 3 {
		t.Fatalf("priming flush evaluated %d hosts, want 3", len(fr.Hosts))
	}
	for _, d := range fr.Hosts {
		if !d.Full || d.Checks != 8 {
			t.Errorf("priming delta %s: full=%v checks=%d, want full 8", d.Host, d.Full, d.Checks)
		}
	}
	if c := s.Compliance(); c != 1 {
		t.Fatalf("primed compliance = %v, want 1", c)
	}
	if pass, fail, inc := s.Counts(); pass != 24 || fail != 0 || inc != 0 {
		t.Fatalf("counts = %d/%d/%d, want 24/0/0", pass, fail, inc)
	}

	// Nothing dirty: flush is a no-op.
	if fr := flush(time.Second); len(fr.Hosts) != 0 || fr.Events != 0 {
		t.Fatalf("idle flush = %+v, want empty", fr)
	}

	// One package drifts on one host: exactly one check re-runs.
	hosts[1].Remove("aide")
	fr = flush(2 * time.Second)
	if len(fr.Hosts) != 1 || fr.Hosts[0].Host != "host-01" {
		t.Fatalf("delta flush hosts = %+v, want just host-01", fr.Hosts)
	}
	d := fr.Hosts[0]
	if d.Full || d.Checks != 1 || d.Events != 1 {
		t.Errorf("delta = full=%v checks=%d events=%d, want subset of 1 check from 1 event", d.Full, d.Checks, d.Events)
	}
	if fr.ChecksEvaluated != 1 {
		t.Errorf("ChecksEvaluated = %d, want 1", fr.ChecksEvaluated)
	}
	want := []Alarm{{At: 2 * time.Second, Host: "host-01", Finding: "V-219343", Status: core.CheckFail}}
	if !reflect.DeepEqual(fr.Alarms, want) {
		t.Errorf("Alarms = %+v, want %+v", fr.Alarms, want)
	}
	if pass, fail, _ := s.Counts(); pass != 23 || fail != 1 {
		t.Errorf("counts after drift = %d pass %d fail, want 23/1", pass, fail)
	}

	// Re-violating without repair does not re-alarm (episode dedup)...
	hosts[1].Remove("aide")
	if fr := flush(3 * time.Second); len(fr.Alarms) != 0 {
		t.Errorf("duplicate violation re-alarmed: %+v", fr.Alarms)
	}
	// ...and repairing closes the episode.
	hosts[1].Install("aide", "1")
	fr = flush(4 * time.Second)
	if fr.Repairs != 1 || len(fr.Alarms) != 0 {
		t.Errorf("repair flush = %d repairs %d alarms, want 1/0", fr.Repairs, len(fr.Alarms))
	}
	if c := s.Compliance(); c != 1 {
		t.Errorf("post-repair compliance = %v, want 1", c)
	}

	if flushes != 4 || fullAudits != 3 {
		t.Errorf("%d flushes, %d full audits, want 4 and 3", flushes, fullAudits)
	}
}

func TestStreamerNetFlipForcesFullAudit(t *testing.T) {
	s, _, hosts := streamFixture(t, 1)
	s.Flush(0)

	hosts[0].SetUnreachable(true)
	fr := s.Flush(time.Second)
	if len(fr.Hosts) != 1 || !fr.Hosts[0].Full {
		t.Fatalf("net.down delta = %+v, want a full audit", fr.Hosts)
	}
	if !fr.Hosts[0].Result.Degraded {
		t.Error("unreachable host not reported degraded")
	}
	if len(fr.Alarms) != 8 {
		t.Errorf("degraded host raised %d alarms, want 8 (every check errored)", len(fr.Alarms))
	}

	hosts[0].SetUnreachable(false)
	fr = s.Flush(2 * time.Second)
	if len(fr.Hosts) != 1 || !fr.Hosts[0].Full {
		t.Fatalf("net.up delta = %+v, want a full audit", fr.Hosts)
	}
	if fr.Repairs != 8 {
		t.Errorf("recovery closed %d episodes, want 8", fr.Repairs)
	}
	if c := s.Compliance(); c != 1 {
		t.Errorf("post-recovery compliance = %v", c)
	}
}

func TestStreamerZeroCheckDeltaRestampsCache(t *testing.T) {
	targets, hosts := LinuxFleet(1)
	coord := NewCoordinator()
	s := NewStreamer(coord, StreamOptions{})
	s.Watch(targets[0], hosts[0].Log())
	s.Flush(0)

	// A mutation no check reads: the delta maps to zero checks.
	hosts[0].SetConfig("/etc/motd", "banner", "hi")
	fr := s.Flush(time.Second)
	if len(fr.Hosts) != 1 {
		t.Fatalf("flush hosts = %+v", fr.Hosts)
	}
	d := fr.Hosts[0]
	if d.Full || d.Checks != 0 || !d.Result.FromCache {
		t.Errorf("zero-check delta = full=%v checks=%d fromCache=%v, want re-stamp replay", d.Full, d.Checks, d.Result.FromCache)
	}
	if fr.ChecksEvaluated != 0 || len(fr.Alarms) != 0 {
		t.Errorf("zero-check delta evaluated %d checks, %d alarms", fr.ChecksEvaluated, len(fr.Alarms))
	}

	// The re-stamp keeps the coordinator cache warm: an incremental
	// sweep on the same coordinator replays instead of re-auditing.
	_, st := coord.Sweep(targets, Options{Incremental: true})
	if st.CachedHosts != 1 {
		t.Errorf("incremental sweep re-audited after re-stamp (CachedHosts = %d)", st.CachedHosts)
	}
}

func TestStreamerUnwatchRemovesHost(t *testing.T) {
	s, targets, hosts := streamFixture(t, 2)
	s.Flush(0)
	if pass, _, _ := s.Counts(); pass != 16 {
		t.Fatalf("primed pass = %d", pass)
	}

	s.Unwatch(targets[0].Name)
	if s.Hosts() != 1 {
		t.Fatalf("Hosts = %d after Unwatch, want 1", s.Hosts())
	}
	if pass, _, _ := s.Counts(); pass != 8 {
		t.Errorf("pass = %d after Unwatch, want 8 (departed host's verdicts dropped)", pass)
	}
	// Events from the departed host no longer dirty the streamer.
	hosts[0].Remove("aide")
	if fr := s.Flush(time.Second); len(fr.Hosts) != 0 {
		t.Errorf("departed host still evaluated: %+v", fr.Hosts)
	}
	// The survivor still streams.
	hosts[1].Remove("aide")
	if fr := s.Flush(2 * time.Second); len(fr.Hosts) != 1 || fr.Hosts[0].Host != targets[1].Name {
		t.Errorf("survivor delta = %+v", fr.Hosts)
	}
}

// TestDepartedHostsLeaveNoCoordinatorState cycles 200 distinct host
// names through Watch, Flush and Unwatch: the coordinator must keep
// neither a cache entry nor an audit cost for any of them.
func TestDepartedHostsLeaveNoCoordinatorState(t *testing.T) {
	targets, hosts := LinuxFleet(1)
	coord := NewCoordinator()
	s := NewStreamer(coord, StreamOptions{})
	for i := range 200 {
		tg := targets[0]
		tg.Name = fmt.Sprintf("host-%03d", i)
		s.Watch(tg, hosts[0].Log())
		s.Flush(time.Duration(i) * time.Millisecond)
		s.Unwatch(tg.Name)
	}
	if len(coord.cache) != 0 || len(coord.costs) != 0 {
		t.Errorf("cache=%d costs=%d after every host left, want 0/0", len(coord.cache), len(coord.costs))
	}
}

// TestUnwatchDuringFlushLeavesNoCacheEntry unwatches a host from inside
// its own check, so Unwatch's invalidation runs before the evaluation
// stores its cache entry: the flush must drop that entry too.
func TestUnwatchDuringFlushLeavesNoCacheEntry(t *testing.T) {
	h := host.NewUbuntu1804()
	coord := NewCoordinator()
	s := NewStreamer(coord, StreamOptions{})
	cat := core.NewCatalog()
	cat.MustRegister(&plainReq{
		Finding: core.Finding{ID: "V-000001"},
		CheckFunc: func() core.CheckStatus {
			s.Unwatch("h0")
			return core.CheckPass
		},
	})
	s.Watch(Target{Name: "h0", Catalog: cat, Version: h.Log()}, h.Log())
	if fr := s.Flush(0); len(fr.Hosts) != 0 {
		t.Errorf("flush reported the departed host: %+v", fr.Hosts)
	}
	if s.Hosts() != 0 || coord.CachedHosts() != 0 {
		t.Errorf("watched=%d cached=%d after the host left mid-flush, want 0/0", s.Hosts(), coord.CachedHosts())
	}
}

func TestStreamerSharedMemoDedupsAcrossHosts(t *testing.T) {
	targets, hosts := LinuxFleet(8)
	s := NewStreamer(NewCoordinator(), StreamOptions{Shards: 4, Dedup: true})
	for i, tg := range targets {
		s.Watch(tg, hosts[i].Log())
	}
	fr := s.Flush(0)
	if fr.ChecksEvaluated != 64 {
		t.Fatalf("priming evaluated %d checks, want 64", fr.ChecksEvaluated)
	}
	// Homogeneous fleet: 8 distinct fingerprints execute, the rest replay.
	if fr.ChecksExecuted != 8 {
		t.Errorf("priming executed %d checks, want 8 (dedup across identical hosts)", fr.ChecksExecuted)
	}

	// The same drift on every host dedups its re-check too.
	for _, h := range hosts {
		h.Remove("aide")
	}
	fr = s.Flush(time.Second)
	if fr.ChecksEvaluated != 8 || fr.ChecksExecuted != 1 {
		t.Errorf("drift flush = %d evaluated / %d executed, want 8 / 1", fr.ChecksEvaluated, fr.ChecksExecuted)
	}
	if len(fr.Alarms) != 8 {
		t.Errorf("alarms = %d, want 8 (one per host, replayed verdicts included)", len(fr.Alarms))
	}
}

// TestStreamerDeterministic is the streamer half of the determinism
// satellite: the same seeded mutation script replayed against fresh
// fixtures yields identical coalescing batches, verdict sequences and
// alarm streams, byte for byte, regardless of shard interleaving.
func TestStreamerDeterministic(t *testing.T) {
	type runRecord struct {
		Batches [][]string
		Checks  []int
		Alarms  [][]Alarm
		Pass    int
		Fail    int
	}
	run := func(shards int) runRecord {
		targets, hosts := LinuxFleet(16)
		s := NewStreamer(NewCoordinator(), StreamOptions{Shards: shards, Workers: 2, Dedup: true})
		for i, tg := range targets {
			s.Watch(tg, hosts[i].Log())
		}
		s.Flush(0)
		rng := rand.New(rand.NewSource(42))
		var rec runRecord
		for step := 1; step <= 20; step++ {
			// A burst of seeded mutations across random hosts.
			for n := 0; n < 1+rng.Intn(4); n++ {
				h := hosts[rng.Intn(len(hosts))]
				switch rng.Intn(4) {
				case 0:
					h.Remove("aide")
				case 1:
					h.Install("aide", "1")
				case 2:
					h.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "MD5")
				case 3:
					h.Install("nis", "1")
				}
			}
			fr := s.Flush(time.Duration(step) * time.Second)
			var batch []string
			for _, d := range fr.Hosts {
				batch = append(batch, fmt.Sprintf("%s/full=%v/ev=%d/ck=%d", d.Host, d.Full, d.Events, d.Checks))
			}
			rec.Batches = append(rec.Batches, batch)
			rec.Checks = append(rec.Checks, fr.ChecksEvaluated)
			rec.Alarms = append(rec.Alarms, fr.Alarms)
		}
		rec.Pass, rec.Fail, _ = s.Counts()
		return rec
	}
	a := run(4)
	b := run(4)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, same topology, different stream:\n%+v\n%+v", a, b)
	}
	// Shard count is placement telemetry, not semantics: the batches,
	// verdicts and alarms must not move when parallelism changes.
	c := run(1)
	if !reflect.DeepEqual(a, c) {
		t.Errorf("shard count changed the stream:\n%+v\n%+v", a, c)
	}
}

// TestStreamerCountsEveryConcurrentAppend appends keyed events to one
// watched log from several goroutines while another flushes (run under
// -race): the subscription is the only channel that carries them, so
// the flushes' DeltaResult.Events must add up to the appends, none lost
// and none counted twice, and every delta of the primed host must stay
// keyed rather than fall back to a full run.
func TestStreamerCountsEveryConcurrentAppend(t *testing.T) {
	s, _, hosts := streamFixture(t, 1)
	s.Flush(0) // prime
	log := hosts[0].Log()
	const writers, per = 4, 200
	var (
		writing sync.WaitGroup
		total   int
		full    bool
	)
	count := func(fr FlushResult) {
		for _, d := range fr.Hosts {
			total += d.Events
			full = full || d.Full
		}
	}
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < per; i++ {
				log.AppendKeyed("apt.install", "aide", host.PackageKey("aide"))
			}
		}()
	}
	done := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for i := 1; ; i++ {
			select {
			case <-done:
				return
			default:
				count(s.Flush(time.Duration(i) * time.Millisecond))
			}
		}
	}()
	writing.Wait()
	close(done)
	<-flushed
	count(s.Flush(time.Second))
	if total != writers*per {
		t.Errorf("flushes counted %d events, want the %d appended", total, writers*per)
	}
	if full {
		t.Error("a keyed delta of the primed host ran the full catalogue")
	}
}

// TestStreamerConcurrentEventsRace drives appends from many goroutines
// while flushes and accessors run: the -race regression for the
// subscription and dirty-set paths. Verdict outcomes are asserted only
// at the end, once the writers are quiet.
func TestStreamerConcurrentEventsRace(t *testing.T) {
	s, _, hosts := streamFixture(t, 4)
	s.Flush(0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, h := range hosts {
		wg.Add(1)
		go func(h *host.Linux) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					h.Remove("aide")
				} else {
					h.Install("aide", "1")
				}
			}
		}(h)
	}
	for i := 0; i < 20; i++ {
		s.Flush(time.Duration(i) * time.Millisecond)
		s.Compliance()
		s.Hosts()
	}
	close(stop)
	wg.Wait()

	// Writers quiet: every host ends installed; drain and verify.
	for _, h := range hosts {
		h.Install("aide", "1")
	}
	s.Flush(time.Second)
	if c := s.Compliance(); c != 1 {
		t.Errorf("final compliance = %v, want 1", c)
	}
}
