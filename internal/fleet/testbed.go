package fleet

import (
	"fmt"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/host"
	"veridevops/internal/stig"
)

// This file builds the simulated fleets behind cmd/fleetaudit, the E13
// experiment and the fleet benchmarks: N hardened Ubuntu hosts, optional
// per-check probe latency (the shape where sharding pays) and seeded
// fault injection (the shape where degradation must not stall a sweep).

// LinuxFleet returns n hardened simulated Ubuntu hosts named host-00,
// host-01, ... as fleet targets wired to their event-log versions, plus
// the hosts themselves for drift and outage injection. Each host gets its
// own STIG catalogue; hardening runs before return, so a fresh sweep is
// fully compliant.
func LinuxFleet(n int) ([]Target, []*host.Linux) {
	targets := make([]Target, n)
	hosts := make([]*host.Linux, n)
	for i := 0; i < n; i++ {
		h := host.NewUbuntu1804()
		cat := stig.UbuntuCatalog(h)
		cat.Run(core.CheckAndEnforce)
		hosts[i] = h
		targets[i] = Target{
			Name:    fmt.Sprintf("host-%02d", i),
			Catalog: cat,
			Version: h.Log(),
		}
	}
	return targets, hosts
}

// WithProbeDelay replaces a target's catalogue with one whose every check
// stalls delay before delegating, modelling the ssh/WinRM round-trip a
// live audit agent pays per probe. Metadata and Enforce pass through.
func WithProbeDelay(t Target, delay time.Duration) Target {
	return WithFaults(t, 0, engine.FaultPlan{SlowProb: 1, SlowDelay: delay})
}

// SkewedFleet builds the work-stealing benchmark shape: n probe-delayed
// hosts of which one — picked deterministically from the most populated
// affinity bucket at the given shard count, where static scheduling hurts
// the most co-tenants — pays skew× the probe delay. It returns the
// targets and the slow host's name.
func SkewedFleet(n, shards int, delay time.Duration, skew int) ([]Target, string) {
	targets, _ := LinuxFleet(n)
	buckets := make([]int, shards)
	for _, t := range targets {
		buckets[Affinity(t.Name, shards)]++
	}
	biggest := 0
	for s, c := range buckets {
		if c > buckets[biggest] {
			biggest = s
		}
	}
	slow := ""
	for i := range targets {
		d := delay
		if slow == "" && Affinity(targets[i].Name, shards) == biggest {
			slow = targets[i].Name
			d = delay * time.Duration(skew)
		}
		targets[i] = WithProbeDelay(targets[i], d)
	}
	return targets, slow
}

// WithFaults replaces a target's catalogue with one whose checks misbehave
// per plan, one injector per requirement seeded seed+index — the E7b
// construction, so identical seeds and plans give identical fault
// schedules regardless of shard interleaving.
func WithFaults(t Target, seed int64, plan engine.FaultPlan) Target {
	faulted := core.NewCatalog()
	for i, r := range t.Catalog.All() {
		faulted.MustRegister(core.InjectFaults(r, engine.NewFaultInjector(seed+int64(i), plan)))
	}
	t.Catalog = faulted
	return t
}
