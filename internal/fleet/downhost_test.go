package fleet

import (
	"runtime"
	"testing"

	"veridevops/internal/core"
)

// singleHostOpts is the setup of the down-host cost comparison: one
// host, audit-only with dedup on, one shard of one worker.
var singleHostOpts = Options{Mode: core.CheckOnly, Dedup: true, Shards: 1, Workers: 1}

// singleHost returns a one-host LinuxFleet whose host is unreachable
// when down.
func singleHost(down bool) []Target {
	targets, hosts := LinuxFleet(1)
	hosts[0].SetUnreachable(down)
	return targets
}

// TestDownHostCostsWhatUpHostCosts gates the cost of evaluating an
// unreachable host: its probes panic with the expected host.ErrUnreachable,
// which the engine recovers without capturing a stack, so an evaluation
// of the down host may allocate at most twice the bytes of an up host's.
// What the degradation produces must not change: every verdict is ERROR
// and every check counts one recovered panic.
func TestDownHostCostsWhatUpHostCosts(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocations unevenly")
	}
	const sweeps = 100
	bytesPerSweep := func(targets []Target) (uint64, HostResult, FleetStats) {
		rep, st := Sweep(targets, singleHostOpts) // warm up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < sweeps; i++ {
			Sweep(targets, singleHostOpts)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / sweeps, rep.Hosts[0], st
	}
	downTargets := singleHost(true)
	down, hr, st := bytesPerSweep(downTargets)
	up, _, _ := bytesPerSweep(singleHost(false))
	t.Logf("bytes per evaluation: down %d, up %d (%.2fx)", down, up, float64(down)/float64(up))

	checks := downTargets[0].Catalog.Len()
	if len(hr.Report.Results) != checks {
		t.Fatalf("down host report has %d results, want %d", len(hr.Report.Results), checks)
	}
	for _, r := range hr.Report.Results {
		if r.After != core.CheckError {
			t.Errorf("down host verdict %s = %s, want ERROR", r.FindingID, r.After)
		}
	}
	if st.Panics != checks {
		t.Errorf("Panics = %d, want one per check (%d)", st.Panics, checks)
	}
	if down > 2*up {
		t.Fatalf("down host allocates %d B per evaluation, more than 2x the up host's %d B", down, up)
	}
}
