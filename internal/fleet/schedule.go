package fleet

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Scheduling selects how a sweep places hosts on shards.
type Scheduling int

const (
	// ScheduleWorkStealing (the default) seeds every shard's queue with
	// its affinity hosts ordered most-expensive-first — LPT over the
	// coordinator's observed per-host audit costs — and lets a shard whose
	// queue drains steal the most expensive remaining host from the most
	// loaded victim. Affinity survives as the tiebreak: a host runs on its
	// home shard unless that shard is the bottleneck.
	ScheduleWorkStealing Scheduling = iota
	// ScheduleStatic is the pure-affinity behaviour: a shard audits
	// exactly its affinity bucket and retires when it drains, even while
	// other shards are still loaded.
	ScheduleStatic
)

// schedItem is one queued host: its index into the sweep's sorted target
// slice and its estimated audit cost.
type schedItem struct {
	idx  int
	cost time.Duration
}

// stealScheduler hands hosts to shard workers. It is the pull source
// behind engine.Pull: shards call next concurrently, so all state is
// behind one mutex. Queues are seeded deterministically (affinity
// placement, LPT order, name-order tiebreak); only the dynamic placement
// — who ends up executing a stolen host — depends on runtime timing.
type stealScheduler struct {
	mu    sync.Mutex
	start time.Time
	// static disables stealing: next serves only the shard's own queue.
	static bool
	// queues[s] is shard s's pending hosts, most expensive first; pop
	// from the front.
	queues [][]schedItem
	// remaining[s] is the summed estimated cost still queued on shard s,
	// the victim-selection key.
	remaining []time.Duration
	// steals[s] counts hosts shard s executed from another shard's queue;
	// queueWait[s] sums, over the hosts shard s dispatched, the time each
	// spent enqueued before dispatch (sweep start to dequeue).
	steals    []int
	queueWait []time.Duration
}

// newStealScheduler seeds per-shard queues from the targets' affinity
// homes. costs is indexed like ts; unknown hosts (zero cost) are assumed
// to cost the mean of the known ones, so a cold coordinator still
// balances by count.
func newStealScheduler(n int, shards int, affinityOf func(i int) int, costs []time.Duration, static bool) *stealScheduler {
	var known time.Duration
	knownN := 0
	for _, c := range costs {
		if c > 0 {
			known += c
			knownN++
		}
	}
	defaultCost := time.Duration(1)
	if knownN > 0 {
		defaultCost = known / time.Duration(knownN)
	}

	s := &stealScheduler{
		start:     time.Now(),
		static:    static,
		queues:    make([][]schedItem, shards),
		remaining: make([]time.Duration, shards),
		steals:    make([]int, shards),
		queueWait: make([]time.Duration, shards),
	}
	for i := 0; i < n; i++ {
		cost := defaultCost
		if i < len(costs) && costs[i] > 0 {
			cost = costs[i]
		}
		home := affinityOf(i)
		s.queues[home] = append(s.queues[home], schedItem{idx: i, cost: cost})
		s.remaining[home] += cost
	}
	// (cost desc, idx asc) is a total order — idx is unique — so an
	// unstable sort yields the same queues a stable one would.
	for _, q := range s.queues {
		slices.SortFunc(q, func(a, b schedItem) int {
			if c := cmp.Compare(b.cost, a.cost); c != 0 {
				return c
			}
			return cmp.Compare(a.idx, b.idx)
		})
	}
	return s
}

// next hands shard its next host: from its own queue while one remains,
// then (work-stealing only) the most expensive remaining host of the most
// loaded victim. ok=false retires the shard — under stealing that means
// the whole sweep is drained, under static that its own bucket is.
func (s *stealScheduler) next(shard int) (idx int, stolen bool, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	victim := shard
	if len(s.queues[shard]) == 0 {
		if s.static {
			return 0, false, false
		}
		victim = -1
		for v := range s.queues {
			if len(s.queues[v]) == 0 {
				continue
			}
			if victim < 0 || s.remaining[v] > s.remaining[victim] {
				victim = v
			}
		}
		if victim < 0 {
			return 0, false, false
		}
		stolen = true
		s.steals[shard]++
	}
	it := s.queues[victim][0]
	s.queues[victim] = s.queues[victim][1:]
	s.remaining[victim] -= it.cost
	s.queueWait[shard] += time.Since(s.start)
	return it.idx, stolen, true
}

// apply folds the scheduler's accounting into the sweep roll-up.
func (s *stealScheduler) apply(st *FleetStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range st.PerShard {
		if i < len(s.steals) {
			st.PerShard[i].Steals = s.steals[i]
			st.PerShard[i].QueueWait = s.queueWait[i]
			st.Steals += s.steals[i]
			st.QueueWait += s.queueWait[i]
		}
	}
}
