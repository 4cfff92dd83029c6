package fleet

import (
	"reflect"
	"testing"
	"time"

	"veridevops/internal/engine"
	"veridevops/internal/host"
)

// faultedFleet builds a fleet whose checks misbehave on a seeded schedule:
// one injector per requirement, seeds derived from the host index, so two
// builds with the same seed share an identical fault plan.
func faultedFleet(n int, seed int64) ([]Target, []*host.Linux) {
	plan := engine.FaultPlan{
		PanicProb: 0.05, TransientProb: 0.25,
		SlowProb: 0.05, SlowDelay: 10 * time.Microsecond,
	}
	targets, hosts := LinuxFleet(n)
	for i := range targets {
		targets[i] = WithFaults(targets[i], seed+int64(i)*100, plan)
	}
	return targets, hosts
}

// hostFact is the placement- and timing-free per-host outcome of a
// sweep: what the determinism tests compare alongside the Canonical
// roll-up.
type hostFact struct {
	Target       string
	Requirements int
	Errors       int
	FromCache    bool
	Degraded     bool
}

// canonicalSweep pairs a sweep's Canonical roll-up with its per-host facts.
type canonicalSweep struct {
	Stats FleetStats
	Hosts []hostFact
}

func canonical(rep FleetReport, st FleetStats) canonicalSweep {
	c := canonicalSweep{Stats: st.Canonical(), Hosts: make([]hostFact, len(rep.Hosts))}
	for i, hr := range rep.Hosts {
		errors := 0 // a cached row ran nothing
		if !hr.FromCache {
			errors = hr.Stats.Errors
		}
		c.Hosts[i] = hostFact{hr.Target, len(hr.Report.Results), errors, hr.FromCache, hr.Degraded}
	}
	return c
}

// TestFleetDeterminism: the same seed and fault plan must produce the
// identical FleetStats and per-host outcomes modulo timing and placement,
// across repeated sweeps and across shard counts' worth of goroutine
// interleavings. Run under -race by `make check`.
func TestFleetDeterminism(t *testing.T) {
	pol := engine.Policy{MaxAttempts: 4, Sleep: func(time.Duration) {}}
	run := func() (canonicalSweep, canonicalSweep) {
		targets, hosts := faultedFleet(8, 42)
		hosts[5].SetUnreachable(true)
		coord := NewCoordinator()
		full := canonical(coord.Sweep(targets, Options{Shards: 4, Workers: 4, Checks: pol}))
		host.DriftLinux(hosts[2], 3, newRng(7))
		incr := canonical(coord.Sweep(targets, Options{Shards: 4, Workers: 4, Checks: pol, Incremental: true}))
		return full, incr
	}

	full1, incr1 := run()
	full2, incr2 := run()
	if !reflect.DeepEqual(full1, full2) {
		t.Errorf("full sweeps diverge:\n%+v\n%+v", full1, full2)
	}
	if !reflect.DeepEqual(incr1, incr2) {
		t.Errorf("incremental sweeps diverge:\n%+v\n%+v", incr1, incr2)
	}
	if full1.Stats.Wall != 0 || incr1.Stats.Wall != 0 {
		t.Error("Canonical must zero timing fields")
	}
}

// TestFleetDeterminismAcrossShardCounts: verdict-level outcomes must not
// depend on the shard count (the fault schedule is per-requirement, so
// interleaving cannot change it).
func TestFleetDeterminismAcrossShardCounts(t *testing.T) {
	pol := engine.Policy{MaxAttempts: 4, Sleep: func(time.Duration) {}}
	verdicts := func(shards int) map[string]string {
		targets, _ := faultedFleet(6, 99)
		rep, _ := Sweep(targets, Options{Shards: shards, Workers: 2, Checks: pol})
		out := map[string]string{}
		for _, hr := range rep.Hosts {
			for _, r := range hr.Report.Results {
				out[hr.Target+"/"+r.FindingID] = r.After.String()
			}
		}
		return out
	}
	base := verdicts(1)
	for _, shards := range []int{2, 6} {
		if got := verdicts(shards); !reflect.DeepEqual(base, got) {
			t.Errorf("verdicts diverge between 1 and %d shards", shards)
		}
	}
}
