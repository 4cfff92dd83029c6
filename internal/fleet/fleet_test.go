package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestAffinityStableAndInRange(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 16} {
		for i := 0; i < 50; i++ {
			name := "host-" + strings.Repeat("x", i%5) + string(rune('a'+i%26))
			s1 := Affinity(name, shards)
			s2 := Affinity(name, shards)
			if s1 != s2 {
				t.Fatalf("affinity unstable for %q", name)
			}
			if s1 < 0 || s1 >= shards {
				t.Fatalf("affinity %d out of range [0,%d)", s1, shards)
			}
		}
	}
}

func TestSweepMatchesPerHostRunEngine(t *testing.T) {
	targets, hosts := LinuxFleet(6)
	host.DriftLinux(hosts[2], 3, newRng(1))
	host.DriftLinux(hosts[5], 3, newRng(2))

	rep, st := Sweep(targets, Options{Shards: 3, Workers: 2})
	if len(rep.Hosts) != 6 {
		t.Fatalf("hosts = %d, want 6", len(rep.Hosts))
	}
	if st.Hosts != 6 || st.Shards != 3 || st.Workers != 2 {
		t.Errorf("stats header = %+v", st)
	}
	// Hosts come back in name order with their own sequential verdicts.
	for i, hr := range rep.Hosts {
		if i > 0 && rep.Hosts[i-1].Target >= hr.Target {
			t.Fatalf("hosts out of order: %s then %s", rep.Hosts[i-1].Target, hr.Target)
		}
		want := targets[i].Catalog.Run(core.CheckOnly)
		if len(want.Results) != len(hr.Report.Results) {
			t.Fatalf("%s: %d results, want %d", hr.Target, len(hr.Report.Results), len(want.Results))
		}
		for j := range want.Results {
			if want.Results[j].FindingID != hr.Report.Results[j].FindingID ||
				want.Results[j].After != hr.Report.Results[j].After {
				t.Errorf("%s result %d diverges from sequential run", hr.Target, j)
			}
		}
	}
	if rep.Compliance() >= 1 {
		t.Error("drifted fleet cannot be fully compliant")
	}
}

func TestSweepEmptyFleet(t *testing.T) {
	rep, st := Sweep(nil, Options{Shards: 4, Workers: 4})
	if len(rep.Hosts) != 0 || st.Hosts != 0 {
		t.Errorf("empty fleet produced output: %+v %+v", rep, st)
	}
	if rep.Compliance() != 1 {
		t.Error("empty fleet should be fully compliant")
	}
}

func TestSweepShardsClampedToTargets(t *testing.T) {
	targets, _ := LinuxFleet(2)
	_, st := Sweep(targets, Options{Shards: 64, Workers: 0})
	if st.Shards != 2 {
		t.Errorf("shards = %d, want clamp to 2", st.Shards)
	}
	if st.Workers != 1 {
		t.Errorf("workers = %d, want floor 1", st.Workers)
	}
}

func TestUnreachableHostDegradesWithoutStallingFleet(t *testing.T) {
	targets, hosts := LinuxFleet(4)
	hosts[1].SetUnreachable(true)

	rep, st := Sweep(targets, Options{Shards: 2, Workers: 2})
	var down, up int
	for _, hr := range rep.Hosts {
		if hr.Target == "host-01" {
			if !hr.Degraded {
				t.Error("unreachable host not marked degraded")
			}
			for _, r := range hr.Report.Results {
				if r.After != core.CheckError {
					t.Errorf("unreachable host verdict %s = %s, want ERROR", r.FindingID, r.After)
				}
			}
			down++
			continue
		}
		up++
		if hr.Degraded {
			t.Errorf("%s wrongly degraded", hr.Target)
		}
		for _, r := range hr.Report.Results {
			if r.After != core.CheckPass {
				t.Errorf("healthy host %s verdict %s = %s, want PASS", hr.Target, r.FindingID, r.After)
			}
		}
	}
	if down != 1 || up != 3 {
		t.Fatalf("down=%d up=%d", down, up)
	}
	if st.DegradedHosts != 1 {
		t.Errorf("DegradedHosts = %d, want 1", st.DegradedHosts)
	}
	if st.Panics == 0 {
		t.Error("unreachable probes must surface as recovered panics")
	}
}

func TestIncrementalSweepReusesUnchangedHosts(t *testing.T) {
	targets, hosts := LinuxFleet(8)
	coord := NewCoordinator()

	// Full sweep primes the cache.
	_, st1 := coord.Sweep(targets, Options{Shards: 4, Workers: 2})
	if st1.CachedHosts != 0 || st1.CacheHits != 0 {
		t.Fatalf("full sweep must not report cache traffic: %+v", st1)
	}
	if coord.CachedHosts() != 8 {
		t.Fatalf("cache primed with %d hosts, want 8", coord.CachedHosts())
	}

	// Drift one host; incremental re-sweep re-runs only that host.
	host.DriftLinux(hosts[3], 3, newRng(3))
	rep2, st2 := coord.Sweep(targets, Options{Shards: 4, Workers: 2, Incremental: true})
	if st2.CachedHosts != 7 {
		t.Errorf("CachedHosts = %d, want 7", st2.CachedHosts)
	}
	if st2.CacheMisses != len(targets[3].Catalog.IDs()) {
		t.Errorf("CacheMisses = %d, want one catalogue's worth", st2.CacheMisses)
	}
	if rate := st2.CacheHitRate(); rate < 0.85 {
		t.Errorf("cache hit rate = %v, want 7/8", rate)
	}
	// The changed host's fresh verdicts must reflect the drift.
	for _, hr := range rep2.Hosts {
		if hr.Target == "host-03" {
			if hr.FromCache {
				t.Error("drifted host must not be served from cache")
			}
			if _, fail, _ := hr.Report.Counts(); fail == 0 {
				t.Error("drifted host should have failing verdicts")
			}
		} else if !hr.FromCache {
			t.Errorf("%s re-ran despite unchanged state", hr.Target)
		}
	}

	// A third sweep with nothing changed is all cache.
	_, st3 := coord.Sweep(targets, Options{Shards: 4, Workers: 2, Incremental: true})
	if st3.CachedHosts != 8 || st3.CacheMisses != 0 {
		t.Errorf("steady-state sweep = %+v, want all-cached", st3)
	}
	if st3.Attempts != 0 {
		t.Errorf("steady-state sweep executed %d attempts, want 0", st3.Attempts)
	}
}

func TestIncrementalFallsBackOnCacheMiss(t *testing.T) {
	targets, _ := LinuxFleet(3)
	coord := NewCoordinator()
	// First sweep straight in incremental mode: cold cache, full run.
	_, st := coord.Sweep(targets, Options{Shards: 2, Workers: 1, Incremental: true})
	if st.CachedHosts != 0 {
		t.Errorf("cold incremental sweep served %d hosts from cache", st.CachedHosts)
	}
	if st.CacheMisses == 0 {
		t.Error("cold incremental sweep must account its misses")
	}
	// Invalidate one host; only it re-runs next time.
	coord.Invalidate("host-01")
	_, st2 := coord.Sweep(targets, Options{Shards: 2, Workers: 1, Incremental: true})
	if st2.CachedHosts != 2 {
		t.Errorf("CachedHosts after Invalidate = %d, want 2", st2.CachedHosts)
	}
	coord.InvalidateAll()
	if coord.CachedHosts() != 0 {
		t.Error("InvalidateAll left entries behind")
	}
}

func TestOutageAdvancesVersionAndInvalidatesCache(t *testing.T) {
	targets, hosts := LinuxFleet(2)
	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 1, Workers: 1})

	// The net.down log entry advances the version, so the incremental
	// sweep re-audits the host and degrades it instead of serving the
	// stale all-PASS report.
	hosts[0].SetUnreachable(true)
	rep, st := coord.Sweep(targets, Options{Shards: 1, Workers: 1, Incremental: true})
	if st.CachedHosts != 1 {
		t.Errorf("CachedHosts = %d, want 1 (only the healthy host)", st.CachedHosts)
	}
	if !rep.Hosts[0].Degraded {
		t.Error("downed host served stale cached verdicts")
	}
}

func TestTargetWithoutVersionAlwaysRuns(t *testing.T) {
	targets, _ := LinuxFleet(2)
	targets[1].Version = nil
	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 1, Workers: 1})
	_, st := coord.Sweep(targets, Options{Shards: 1, Workers: 1, Incremental: true})
	if st.CachedHosts != 1 {
		t.Errorf("CachedHosts = %d, want 1: unversioned targets are uncacheable", st.CachedHosts)
	}
}

func TestFleetReportFailingAndTables(t *testing.T) {
	targets, hosts := LinuxFleet(2)
	hosts[1].Install("nis", "0.legacy")
	rep, st := Sweep(targets, Options{Shards: 2, Workers: 1})
	failing := rep.Failing()
	if len(failing) != 1 || !strings.HasPrefix(failing[0], "host-01/") {
		t.Errorf("Failing = %v", failing)
	}
	for _, s := range []string{st.Summary(), st.ShardTable("shards").String()} {
		if !strings.Contains(s, "host") && !strings.Contains(s, "shard") {
			t.Errorf("rendering looks empty: %q", s)
		}
	}
}

// TestOverlappingEvaluationsPanic pins the Coordinator's no-overlap
// contract: while a Sweep is blocked inside a check, a second Sweep and a
// Streamer.Flush on the same coordinator each panic naming the contract,
// and sequential evaluations before and after run normally. Run it under
// -race (make race): the guard is the only synchronisation between the
// in-flight sweep and the rejected callers.
func TestOverlappingEvaluationsPanic(t *testing.T) {
	var armed atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	blocking := core.NewCatalog()
	blocking.MustRegister(&plainReq{Finding: core.Finding{ID: "V-900100"}, CheckFunc: func() core.CheckStatus {
		if armed.Load() {
			entered <- struct{}{}
			<-release
		}
		return core.CheckPass
	}})
	blocked := []Target{{Name: "blocked", Catalog: blocking}}
	others, _ := LinuxFleet(1)
	coord := NewCoordinator()
	s := NewStreamer(coord, StreamOptions{})
	sequential := func() {
		coord.Sweep(blocked, Options{})
		coord.Sweep(others, Options{})
		s.Watch(others[0], nil) // dirty, so the flush dispatches
		if fr := s.Flush(0); len(fr.Hosts) != 1 {
			t.Fatalf("sequential flush evaluated %d hosts, want 1", len(fr.Hosts))
		}
	}
	overlapping := func(what string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "overlapping evaluations") {
				t.Errorf("%s during a Sweep: recovered %v, want the no-overlap panic", what, r)
			}
		}()
		f()
	}

	sequential()
	armed.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		coord.Sweep(blocked, Options{})
	}()
	<-entered
	overlapping("Sweep", func() { coord.Sweep(others, Options{}) })
	s.Watch(others[0], nil)
	overlapping("Streamer.Flush", func() { s.Flush(0) })
	close(release)
	<-done
	armed.Store(false)
	sequential()
}

// TestEvaluationResultsAreCallerOwned pins the contract that lets a
// Coordinator reuse its scratch: results never alias it. Two consecutive
// sweep reports, and two consecutive flush results, share no backing
// array, so a caller may keep or edit one while the next evaluation
// runs; no two executed results share a *RunStats, and a replay has
// none. And an overlapping evaluation panics before it touches the
// scratch of the one in flight: the in-flight sweep keeps its jobs and
// reports its own host, and an overlapping Flush leaves its Streamer's
// dirty list for the next flush.
func TestEvaluationResultsAreCallerOwned(t *testing.T) {
	t.Run("sweep reports", func(t *testing.T) {
		targets, _ := LinuxFleet(6)
		coord := NewCoordinator()
		opts := Options{Shards: 2, Workers: 1, Incremental: true}
		first, _ := coord.Sweep(targets, opts)
		second, _ := coord.Sweep(targets, opts) // all cached: only scratch is reused
		// Each executed result has run telemetry of its own; a replay,
		// which ran nothing, has none.
		seen := map[*core.RunStats]string{}
		for _, hr := range first.Hosts {
			if hr.FromCache || hr.Stats == nil {
				t.Fatalf("first sweep: %s cached %v with stats %v, want executed with stats", hr.Target, hr.FromCache, hr.Stats)
			}
			if other, ok := seen[hr.Stats]; ok {
				t.Fatalf("%s and %s share one *RunStats", other, hr.Target)
			}
			seen[hr.Stats] = hr.Target
		}
		for _, hr := range second.Hosts {
			if !hr.FromCache || hr.Stats != nil {
				t.Fatalf("second sweep: %s cached %v with stats %+v, want a replay with nil stats", hr.Target, hr.FromCache, hr.Stats)
			}
		}
		for i := range second.Hosts {
			second.Hosts[i].Target = "overwritten"
		}
		for i, hr := range first.Hosts {
			if hr.Target != targets[i].Name {
				t.Fatalf("first report host %d reads %q after the second report was edited, want %q", i, hr.Target, targets[i].Name)
			}
		}
	})
	t.Run("flush results", func(t *testing.T) {
		s, _, hosts := streamFixture(t, 4)
		s.Flush(0)
		hosts[1].Remove("aide")
		first := s.Flush(time.Second)
		hosts[1].Install("aide", "1")
		hosts[2].Remove("aide")
		second := s.Flush(2 * time.Second)
		if len(first.Hosts) != 1 || len(second.Hosts) != 2 || len(first.Alarms) != 1 || len(second.Alarms) != 1 {
			t.Fatalf("flushes evaluated %d and %d hosts with %d and %d alarms, want 1/2 hosts and 1/1 alarms",
				len(first.Hosts), len(second.Hosts), len(first.Alarms), len(second.Alarms))
		}
		for i := range second.Hosts {
			second.Hosts[i].Host = "overwritten"
		}
		second.Alarms[0].Host = "overwritten"
		if first.Hosts[0].Host != "host-01" || first.Alarms[0].Host != "host-01" {
			t.Fatalf("first flush reads host %q, alarm %q after the second was edited, want host-01",
				first.Hosts[0].Host, first.Alarms[0].Host)
		}
	})
	t.Run("overlap touches no scratch", func(t *testing.T) {
		var armed atomic.Bool
		entered := make(chan struct{})
		release := make(chan struct{})
		blocking := core.NewCatalog()
		blocking.MustRegister(&plainReq{Finding: core.Finding{ID: "V-900100"}, CheckFunc: func() core.CheckStatus {
			if armed.Load() {
				entered <- struct{}{}
				<-release
			}
			return core.CheckPass
		}})
		blocked := []Target{{Name: "blocked", Catalog: blocking}}
		others, _ := LinuxFleet(3)
		coord := NewCoordinator()
		s := NewStreamer(coord, StreamOptions{})
		s.Watch(others[0], nil)

		armed.Store(true)
		var rep FleetReport
		done := make(chan struct{})
		go func() {
			defer close(done)
			rep, _ = coord.Sweep(blocked, Options{})
		}()
		<-entered
		jobs := slices.Clone(coord.scratch.jobs)
		costs := slices.Clone(coord.scratch.costs)
		mustPanic := func(what string, f func()) {
			t.Helper()
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("overlapping %s did not panic", what)
				}
			}()
			f()
		}
		mustPanic("Sweep", func() { coord.Sweep(others, Options{Shards: 2}) })
		mustPanic("Streamer.Flush", func() { s.Flush(0) })
		sameJob := func(a, b job) bool { return a.Target == b.Target && slices.Equal(a.only, b.only) }
		if !slices.EqualFunc(coord.scratch.jobs, jobs, sameJob) || !slices.Equal(coord.scratch.costs, costs) {
			t.Errorf("overlapping evaluations rewrote the in-flight scratch: jobs %v -> %v", jobs, coord.scratch.jobs)
		}
		s.mu.Lock()
		dirty := len(s.dirty)
		s.mu.Unlock()
		if dirty != 1 {
			t.Errorf("overlapping Flush left %d dirty hosts, want the 1 it could not take", dirty)
		}
		close(release)
		<-done
		armed.Store(false)
		if len(rep.Hosts) != 1 || rep.Hosts[0].Target != "blocked" {
			t.Errorf("in-flight sweep reported %+v, want just host blocked", rep.Hosts)
		}
		if fr := s.Flush(0); len(fr.Hosts) != 1 || fr.Hosts[0].Host != others[0].Name {
			t.Errorf("flush after the overlap evaluated %+v, want just %s", fr.Hosts, others[0].Name)
		}
	})
}
