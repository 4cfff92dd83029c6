package fleet

import (
	"fmt"
	"time"

	"veridevops/internal/engine"
	"veridevops/internal/report"
)

// ShardStats is the per-shard telemetry of one sweep.
type ShardStats struct {
	Shard int
	// Hosts is how many targets have affinity to this shard; Cached how
	// many of them were replayed from the incremental cache.
	Hosts  int
	Cached int
	// Requirements counts verdicts produced by the shard, cached included.
	Requirements int
	// Wall is the shard goroutine's elapsed time; Busy the summed
	// per-requirement durations of its executed hosts.
	Wall time.Duration
	Busy time.Duration
	// Attempts / Retries / Panics / Timeouts / Errors sum the executed
	// hosts' run telemetry.
	Attempts int
	Retries  int
	Panics   int
	Timeouts int
	Errors   int
	// Steals counts hosts this shard executed from another shard's queue;
	// QueueWait sums, over the hosts this shard dispatched, the time each
	// spent enqueued before dispatch. Both are placement telemetry and
	// depend on runtime timing under work stealing.
	Steals    int
	QueueWait time.Duration
}

// HostStats is the compact per-host row of a FleetStats.
type HostStats struct {
	Target       string
	Shard        int
	Requirements int
	Errors       int
	FromCache    bool
	// Stolen marks a host executed away from its affinity home.
	Stolen   bool
	Degraded bool
	Wall     time.Duration
}

// FleetStats merges the per-shard RunStats of one sweep into a fleet-wide
// roll-up: the telemetry cmd/fleetaudit renders and BENCH_fleet.json
// records.
type FleetStats struct {
	Hosts   int
	Shards  int
	Workers int
	// Requirements counts verdicts across the fleet, cached included.
	Requirements int
	// Wall is the whole sweep's elapsed time; Busy the summed
	// per-requirement durations across every executed host
	// (Busy / (Shards*Workers*Wall) measures pool utilisation).
	Wall time.Duration
	Busy time.Duration
	// Attempts / Retries / Panics / Timeouts / Errors sum over executed
	// hosts.
	Attempts int
	Retries  int
	Panics   int
	Timeouts int
	Errors   int
	// CachedHosts counts targets replayed from the incremental cache;
	// DegradedHosts targets whose every verdict was ERROR.
	CachedHosts   int
	DegradedHosts int
	// CacheHits / CacheMisses count requirement verdicts replayed versus
	// re-executed. They are only accounted on incremental sweeps; a full
	// sweep reports 0/0.
	CacheHits   int
	CacheMisses int
	// DedupHits / DedupMisses count check executions saved versus paid by
	// cross-host dedup (Options.Dedup): a miss is the first arrival that
	// executed a distinct fingerprint, a hit a verdict replayed from the
	// sweep's shared memo. Both stay 0 when dedup is off. The totals are
	// deterministic; which host pays the miss is not.
	DedupHits   int
	DedupMisses int
	// Steals counts hosts executed away from their affinity home;
	// QueueWait sums dispatch latency across shards. Both are placement
	// telemetry (see ShardStats).
	Steals    int
	QueueWait time.Duration
	// IndexedChecks / UnindexedChecks count catalogue entries across the
	// fleet (per target, shared catalogues counted once per host) that do
	// or do not declare their read set via core.KeyReader. Unindexed
	// checks cannot be localized by the reverse dependency index: push
	// evaluation must conservatively re-run them on every event of their
	// host, so a non-zero count here is conservative fan-out made visible.
	IndexedChecks   int
	UnindexedChecks int
	// ActiveShards counts shards that executed or replayed at least one
	// host. Affinity hashing can leave buckets empty under static
	// scheduling, so capacity-derived metrics use this, not Shards.
	ActiveShards int
	// LoadImbalance is max(shard wall) / mean(active shard wall), >= 1
	// when measurable and 0 when not: 1.0 means perfectly balanced
	// shards, the value work stealing pushes towards.
	LoadImbalance float64
	// PerShard and PerHost hold the detail rows, ordered by shard index
	// and target name respectively.
	PerShard []ShardStats
	PerHost  []HostStats
}

// CacheHitRate is CacheHits / (CacheHits + CacheMisses) in [0,1]; 0 when
// the sweep was not incremental.
func (s FleetStats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// DedupRate is DedupHits / (DedupHits + DedupMisses) in [0,1]; 0 when
// dedup was off or nothing was memoisable.
func (s FleetStats) DedupRate() float64 {
	total := s.DedupHits + s.DedupMisses
	if total == 0 {
		return 0
	}
	return float64(s.DedupHits) / float64(total)
}

// ReadLocalization is IndexedChecks / (IndexedChecks + UnindexedChecks)
// in [0,1]: the fraction of the fleet's checks the dependency index can
// re-run selectively under push evaluation. 1.0 means every event fans
// out to exactly its readers; anything less marks conservative full
// re-runs. 0 when the fleet declared nothing (or localization was not
// measured).
func (s FleetStats) ReadLocalization() float64 {
	total := s.IndexedChecks + s.UnindexedChecks
	if total == 0 {
		return 0
	}
	return float64(s.IndexedChecks) / float64(total)
}

// Utilization is Busy / (ActiveShards * Workers * Wall) in [0,1]: how
// much of the capacity the sweep actually deployed it kept busy. The
// denominator counts active shards, not configured ones — affinity
// hashing can leave buckets empty (most visibly with Shards near the
// host count), and an idle-by-construction shard is not wasted capacity
// the sweep could have used.
func (s FleetStats) Utilization() float64 {
	return engine.PoolStats{Workers: s.ActiveShards * s.Workers, Wall: s.Wall, Busy: s.Busy}.Utilization()
}

// Summary renders the roll-up as one line.
func (s FleetStats) Summary() string {
	return fmt.Sprintf(
		"fleet: %d hosts over %d shards (%d active) x %d workers, %d requirements (%d hosts cached, hit rate %s, dedup %s), %d attempts (%d retries, %d panics recovered, %d timeouts), %d errors (%d hosts degraded), %d stolen, wall %s ms, utilization %s, read localization %s (%d unindexed)",
		s.Hosts, s.Shards, s.ActiveShards, s.Workers, s.Requirements,
		s.CachedHosts, report.Percent(s.CacheHitRate()),
		report.Percent(s.DedupRate()), s.Attempts, s.Retries, s.Panics,
		s.Timeouts, s.Errors, s.DegradedHosts, s.Steals, report.Millis(s.Wall),
		report.Percent(s.Utilization()),
		report.Percent(s.ReadLocalization()), s.UnindexedChecks)
}

// ShardTable renders the per-shard telemetry.
func (s FleetStats) ShardTable(title string) *report.Table {
	t := report.New(title, "shard", "hosts", "cached", "stolen", "requirements",
		"attempts", "retries", "panics", "timeouts", "errors", "wait-ms", "wall-ms")
	for _, sh := range s.PerShard {
		t.AddRow(sh.Shard, sh.Hosts, sh.Cached, sh.Steals, sh.Requirements, sh.Attempts,
			sh.Retries, sh.Panics, sh.Timeouts, sh.Errors,
			report.Millis(sh.QueueWait), report.Millis(sh.Wall))
	}
	t.Note = s.Summary()
	return t
}

// HostTable renders the per-host telemetry.
func (s FleetStats) HostTable(title string) *report.Table {
	t := report.New(title, "host", "shard", "requirements", "errors", "cached", "stolen", "degraded", "wall-ms")
	for _, h := range s.PerHost {
		t.AddRow(h.Target, h.Shard, h.Requirements, h.Errors, h.FromCache,
			h.Stolen, h.Degraded, report.Millis(h.Wall))
	}
	t.Note = s.Summary()
	return t
}

// Canonical returns the stats with every timing- and placement-dependent
// field zeroed — the form the determinism tests compare. Verdict counts,
// cache accounting, dedup totals and attempt/panic telemetry are
// deterministic functions of the fleet, the seed and the fault plan;
// which shard a host lands on under work stealing is not, so Canonical
// drops the per-shard rows and neutralises per-host placement the same
// way it neutralises wall clocks.
func (s FleetStats) Canonical() FleetStats {
	s.Wall, s.Busy = 0, 0
	s.Steals, s.QueueWait = 0, 0
	s.ActiveShards = 0
	s.LoadImbalance = 0
	s.PerShard = nil
	hosts := make([]HostStats, len(s.PerHost))
	copy(hosts, s.PerHost)
	for i := range hosts {
		hosts[i].Wall = 0
		hosts[i].Shard = 0
		hosts[i].Stolen = false
	}
	s.PerHost = hosts
	return s
}

// countLocalization fills the read-localization counters: per target,
// how many catalogue entries declare their read set (core.KeyReader)
// versus not. Each catalogue memoises its own split
// (Catalog.KeyDeclarations), so a catalogue shared by several targets is
// measured once but counted per host, matching the per-host fan-out cost
// an unindexed check imposes on push evaluation.
func countLocalization(st *FleetStats, ts []Target) {
	for _, t := range ts {
		if t.Catalog == nil {
			continue
		}
		declared, undeclared := t.Catalog.KeyDeclarations()
		st.IndexedChecks += declared
		st.UnindexedChecks += undeclared
	}
}

// aggregate folds per-host results and shard walls into the roll-up.
func aggregate(results []HostResult, shardWalls []time.Duration, ps engine.PoolStats, opts Options) FleetStats {
	st := FleetStats{
		Hosts:    len(results),
		Shards:   opts.Shards,
		Workers:  opts.Workers,
		Wall:     ps.Wall,
		PerShard: make([]ShardStats, opts.Shards),
		PerHost:  make([]HostStats, 0, len(results)),
	}
	for i := range st.PerShard {
		st.PerShard[i].Shard = i
		if i < len(shardWalls) {
			st.PerShard[i].Wall = shardWalls[i]
		}
	}
	for _, hr := range results {
		sh := &st.PerShard[hr.Shard]
		reqs := len(hr.Report.Results)
		st.Requirements += reqs
		sh.Hosts++
		sh.Requirements += reqs
		st.PerHost = append(st.PerHost, HostStats{
			Target:       hr.Target,
			Shard:        hr.Shard,
			Requirements: reqs,
			Errors:       hr.Stats.Errors,
			FromCache:    hr.FromCache,
			Stolen:       hr.Stolen,
			Degraded:     hr.Degraded,
			Wall:         hr.Stats.Wall,
		})
		// Degraded is counted before the cache branch: a replayed host
		// whose cached report was degraded is still a degraded host, and
		// skipping it here made Summary() contradict the HostTable rows.
		if hr.Degraded {
			st.DegradedHosts++
		}
		if hr.FromCache {
			st.CachedHosts++
			sh.Cached++
			st.CacheHits += reqs
			continue
		}
		if opts.Incremental {
			st.CacheMisses += reqs
		}
		st.Busy += hr.Stats.Busy
		sh.Busy += hr.Stats.Busy
		st.Attempts += hr.Stats.Attempts
		sh.Attempts += hr.Stats.Attempts
		st.Retries += hr.Stats.Retries
		sh.Retries += hr.Stats.Retries
		st.Panics += hr.Stats.Panics
		sh.Panics += hr.Stats.Panics
		st.Timeouts += hr.Stats.Timeouts
		sh.Timeouts += hr.Stats.Timeouts
		st.Errors += hr.Stats.Errors
		sh.Errors += hr.Stats.Errors
		st.DedupHits += hr.Stats.DedupHits
		st.DedupMisses += hr.Stats.DedupMisses
	}
	var wallSum time.Duration
	var wallMax time.Duration
	for _, sh := range st.PerShard {
		if sh.Hosts == 0 {
			continue
		}
		st.ActiveShards++
		wallSum += sh.Wall
		if sh.Wall > wallMax {
			wallMax = sh.Wall
		}
	}
	if st.ActiveShards > 0 && wallSum > 0 {
		st.LoadImbalance = float64(wallMax) * float64(st.ActiveShards) / float64(wallSum)
	}
	return st
}
