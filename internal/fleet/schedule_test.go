package fleet

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// drain pulls the scheduler dry from one shard and returns the host
// indices in dispatch order plus which were steals.
func drain(s *stealScheduler, shard int) (order []int, stolen []bool) {
	for {
		i, st, ok := s.next(shard)
		if !ok {
			return
		}
		order = append(order, i)
		stolen = append(stolen, st)
	}
}

// newStealScheduler returns a fresh scheduler seeded by reset.
func newStealScheduler(n int, shards int, affinityOf func(i int) int, costs []time.Duration, static bool) *stealScheduler {
	s := new(stealScheduler)
	s.reset(n, shards, affinityOf, costs, static)
	return s
}

func TestSchedulerLPTOrdersOwnQueue(t *testing.T) {
	// 4 hosts, all affine to shard 0, costs 10/40/20/30: dispatch must be
	// most-expensive-first (indices 1, 3, 2, 0).
	costs := []time.Duration{10, 40, 20, 30}
	s := newStealScheduler(4, 2, func(int) int { return 0 }, costs, false)
	order, stolen := drain(s, 0)
	want := []int{1, 3, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
		if stolen[i] {
			t.Error("own-queue dispatch flagged as steal")
		}
	}
}

func TestSchedulerUnknownCostsTieBreakByIndex(t *testing.T) {
	// Cold coordinator: all costs 0 → uniform default cost → name order.
	s := newStealScheduler(3, 1, func(int) int { return 0 }, make([]time.Duration, 3), false)
	order, _ := drain(s, 0)
	for i, idx := range order {
		if idx != i {
			t.Fatalf("cold dispatch order = %v, want index order", order)
		}
	}
}

func TestSchedulerStealsFromMostLoadedVictim(t *testing.T) {
	// Shard 0 empty; shard 1 holds cost 5, shard 2 holds costs 30+20.
	// An idle shard 0 must steal shard 2's most expensive host (idx 1).
	affinity := []int{1, 2, 2}
	costs := []time.Duration{5, 30, 20}
	s := newStealScheduler(3, 3, func(i int) int { return affinity[i] }, costs, false)
	i, stolen, ok := s.next(0)
	if !ok || !stolen {
		t.Fatalf("idle shard did not steal: idx=%d stolen=%v ok=%v", i, stolen, ok)
	}
	if i != 1 {
		t.Errorf("stole host %d, want 1 (most expensive of the most loaded shard)", i)
	}
	// Victim accounting moved: next steal must come from shard 2 again
	// (remaining 20 > shard 1's 5).
	if i2, stolen2, _ := s.next(0); i2 != 2 || !stolen2 {
		t.Errorf("second steal = %d, want 2", i2)
	}
	if i3, _, _ := s.next(0); i3 != 0 {
		t.Errorf("third steal = %d, want 0", i3)
	}
	st := FleetStats{PerShard: make([]ShardStats, 3)}
	s.apply(&st)
	if st.Steals != 3 || st.PerShard[0].Steals != 3 {
		t.Errorf("steal accounting = %d total / %+v", st.Steals, st.PerShard)
	}
}

func TestSchedulerStaticNeverSteals(t *testing.T) {
	affinity := []int{1, 1, 1}
	s := newStealScheduler(3, 2, func(i int) int { return affinity[i] }, nil, true)
	if _, _, ok := s.next(0); ok {
		t.Error("static shard with an empty bucket must retire, not steal")
	}
	order, _ := drain(s, 1)
	if len(order) != 3 {
		t.Errorf("own bucket dispatched %d hosts, want 3", len(order))
	}
}

func TestSweepStaticPlacementIsAffinity(t *testing.T) {
	targets, _ := LinuxFleet(8)
	rep, st := Sweep(targets, Options{Shards: 4, Workers: 1, Scheduling: ScheduleStatic})
	if st.Steals != 0 {
		t.Errorf("static sweep stole %d hosts", st.Steals)
	}
	for _, hr := range rep.Hosts {
		if hr.Stolen {
			t.Errorf("%s marked stolen under static scheduling", hr.Target)
		}
		if want := Affinity(hr.Target, st.Shards); hr.Shard != want {
			t.Errorf("%s ran on shard %d, affinity %d", hr.Target, hr.Shard, want)
		}
	}
}

func TestSweepStolenHostsRunOffTheirHomeShard(t *testing.T) {
	// A deliberately skewed fleet: with one host far slower than the
	// rest, idle shards must steal, and every stolen host must have run
	// away from its affinity home.
	targets, _ := SkewedFleet(32, 4, 200*time.Microsecond, 20)
	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 4, Workers: 1}) // learn costs
	rep, st := coord.Sweep(targets, Options{Shards: 4, Workers: 1})
	if st.Steals == 0 {
		t.Fatal("skewed sweep recorded no steals")
	}
	stolen := 0
	for _, hr := range rep.Hosts {
		if !hr.Stolen {
			continue
		}
		stolen++
		if hr.Shard == Affinity(hr.Target, st.Shards) {
			t.Errorf("%s marked stolen but ran on its home shard %d", hr.Target, hr.Shard)
		}
	}
	if stolen != st.Steals {
		t.Errorf("per-host stolen flags = %d, shard steal counters = %d", stolen, st.Steals)
	}
	if st.QueueWait <= 0 {
		t.Error("dispatch latency accounting is empty")
	}
}

func TestSchedulingModesAgreeOnVerdicts(t *testing.T) {
	verdicts := func(sched Scheduling) map[string]string {
		targets, _ := SkewedFleet(16, 4, 50*time.Microsecond, 10)
		rep, _ := Sweep(targets, Options{Shards: 4, Workers: 2, Scheduling: sched})
		out := map[string]string{}
		for _, hr := range rep.Hosts {
			for _, r := range hr.Report.Results {
				out[hr.Target+"/"+r.FindingID] = r.After.String()
			}
		}
		return out
	}
	static, steal := verdicts(ScheduleStatic), verdicts(ScheduleWorkStealing)
	if len(static) != len(steal) {
		t.Fatalf("verdict counts diverge: %d vs %d", len(static), len(steal))
	}
	for k, v := range static {
		if steal[k] != v {
			t.Errorf("%s: static %s, stealing %s", k, v, steal[k])
		}
	}
}

func TestUtilizationCountsActiveShardsOnly(t *testing.T) {
	// The regression shape: capacity math must not divide by shards that
	// never had work. Two of four shards active, both fully busy → 100%.
	st := FleetStats{
		Shards: 4, ActiveShards: 2, Workers: 1,
		Wall: time.Second, Busy: 2 * time.Second,
	}
	if u := st.Utilization(); math.Abs(u-1) > 1e-9 {
		t.Errorf("Utilization = %v, want 1.0 (active-shard capacity only)", u)
	}
	// End to end: request as many shards as targets; FNV affinity leaves
	// some buckets empty under static scheduling, and ActiveShards must
	// reflect the placement, not the configuration.
	for n := 3; n <= 10; n++ {
		targets, _ := LinuxFleet(n)
		_, st := Sweep(targets, Options{Shards: 64, Workers: 1, Scheduling: ScheduleStatic})
		if st.Shards != n {
			t.Fatalf("shards not clamped: %d", st.Shards)
		}
		if st.ActiveShards < 1 || st.ActiveShards > st.Shards {
			t.Fatalf("ActiveShards = %d out of range", st.ActiveShards)
		}
		active := 0
		for _, sh := range st.PerShard {
			if sh.Hosts > 0 {
				active++
			}
		}
		if active != st.ActiveShards {
			t.Errorf("n=%d: ActiveShards = %d, per-shard rows say %d", n, st.ActiveShards, active)
		}
		if st.ActiveShards < st.Shards {
			return // found the empty-bucket shape and it was handled
		}
	}
	t.Log("no empty affinity bucket in tested range; direct-math case still covers the fix")
}

func TestLoadImbalanceBounds(t *testing.T) {
	targets, _ := LinuxFleet(12)
	_, st := Sweep(targets, Options{Shards: 4, Workers: 1})
	if st.LoadImbalance != 0 && st.LoadImbalance < 1 {
		t.Errorf("LoadImbalance = %v, must be 0 (unmeasured) or >= 1", st.LoadImbalance)
	}
}

// TestSchedulerQueuesMatchStableReference is the placement-equivalence
// property: for seeded random fleets with heavily tied costs, the seeded
// per-shard queues equal a reference built with the stable sort and the
// (cost desc, idx asc) comparator the scheduler has always used, so
// dispatch order, placement and Canonical() stats cannot drift. One
// scheduler is reset for every trial, as a Coordinator reuses its own,
// so a reset that leaked a previous fleet's queues would show here.
func TestSchedulerQueuesMatchStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s stealScheduler
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		shards := 1 + rng.Intn(8)
		// Few distinct costs, so most comparisons tie on cost; some zero
		// (unknown) costs, which the scheduler maps to the known mean.
		costs := make([]time.Duration, n)
		for i := range costs {
			if rng.Intn(5) > 0 {
				costs[i] = time.Duration(rng.Intn(4)) * time.Millisecond
			}
		}
		affinity := make([]int, n)
		for i := range affinity {
			affinity[i] = rng.Intn(shards)
		}
		s.reset(n, shards, func(i int) int { return affinity[i] }, costs, false)

		// The reference applies the scheduler's cost rule independently
		// and feeds each queue to the stable sort in reverse index order,
		// so the comparator alone has to produce the order.
		var known time.Duration
		knownN := 0
		for _, c := range costs {
			if c > 0 {
				known, knownN = known+c, knownN+1
			}
		}
		mean := time.Duration(1)
		if knownN > 0 {
			mean = known / time.Duration(knownN)
		}
		ref := make([][]schedItem, shards)
		for i := n - 1; i >= 0; i-- {
			c := costs[i]
			if c == 0 {
				c = mean
			}
			ref[affinity[i]] = append(ref[affinity[i]], schedItem{idx: i, cost: c})
		}
		for _, r := range ref {
			sort.SliceStable(r, func(a, b int) bool {
				if r[a].cost != r[b].cost {
					return r[a].cost > r[b].cost
				}
				return r[a].idx < r[b].idx
			})
		}
		if !slices.EqualFunc(s.queues, ref, slices.Equal[[]schedItem]) {
			t.Fatalf("trial %d (n=%d shards=%d): queues %v, stable reference %v", trial, n, shards, s.queues, ref)
		}
		// Each shard serves its own queue first, so draining shard by
		// shard pops every host in reference order from the start of
		// its queue: the previous trial's pops did not survive reset.
		for sh, q := range ref {
			for _, want := range q {
				if idx, stolen, ok := s.next(sh); !ok || stolen || idx != want.idx {
					t.Fatalf("trial %d: shard %d popped (%d, stolen %v, ok %v), want own host %d", trial, sh, idx, stolen, ok, want.idx)
				}
			}
		}
	}
}
