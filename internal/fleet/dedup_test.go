package fleet

import (
	"reflect"
	"testing"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/host"
)

func TestDedupHomogeneousFleetExecutesEachCheckOnce(t *testing.T) {
	// 16 identically-hardened hosts × 8 checks: with dedup on, each
	// distinct (finding, state) pair executes once and the other 15 hosts
	// replay — 8 misses, 120 hits, a 93.75% dedup rate.
	targets, _ := LinuxFleet(16)
	rep, st := Sweep(targets, Options{Shards: 4, Workers: 2, Dedup: true})
	if st.DedupMisses != 8 {
		t.Errorf("DedupMisses = %d, want 8 (one per distinct check)", st.DedupMisses)
	}
	if st.DedupHits != 120 {
		t.Errorf("DedupHits = %d, want 120", st.DedupHits)
	}
	if rate := st.DedupRate(); rate < 0.9 {
		t.Errorf("dedup rate = %v, want >= 0.90", rate)
	}
	if st.Attempts != 8 {
		t.Errorf("fleet executed %d attempts, want 8 (the rest replayed)", st.Attempts)
	}
	if rep.Compliance() != 1 {
		t.Errorf("compliance = %v, replayed verdicts must match", rep.Compliance())
	}
}

func TestDedupMatchesNonDedupVerdicts(t *testing.T) {
	sweep := func(dedup bool) map[string]string {
		targets, hosts := LinuxFleet(8)
		host.DriftLinux(hosts[3], 3, newRng(11))
		host.DriftLinux(hosts[5], 2, newRng(12))
		rep, _ := Sweep(targets, Options{Shards: 4, Workers: 2, Dedup: dedup})
		return reportVerdicts(rep)
	}
	plain, deduped := sweep(false), sweep(true)
	if !reflect.DeepEqual(plain, deduped) {
		t.Error("dedup changed sweep verdicts")
	}
}

func TestDedupDistinguishesDivergentState(t *testing.T) {
	// A drifted host's state digests differently, so its checks must
	// execute instead of replaying a compliant co-tenant's PASS.
	targets, hosts := LinuxFleet(4)
	hosts[2].Install("nis", "0.legacy") // V-219157 violation on host-02 only
	rep, st := Sweep(targets, Options{Shards: 2, Workers: 1, Dedup: true})
	for _, hr := range rep.Hosts {
		_, fail, _ := hr.Report.Counts()
		if hr.Target == "host-02" && fail == 0 {
			t.Error("drifted host replayed a compliant verdict")
		}
		if hr.Target != "host-02" && fail != 0 {
			t.Errorf("%s inherited the drifted host's failure", hr.Target)
		}
	}
	// host-02 diverges on exactly one finding: 8 shared + 1 distinct.
	if st.DedupMisses != 9 {
		t.Errorf("DedupMisses = %d, want 9", st.DedupMisses)
	}
}

func TestDedupIgnoredInEnforceMode(t *testing.T) {
	targets, hosts := LinuxFleet(4)
	for i := range hosts {
		host.DriftLinux(hosts[i], 2, newRng(int64(20+i)))
	}
	rep, st := Sweep(targets, Options{Shards: 2, Workers: 1, Mode: core.CheckAndEnforce, Dedup: true})
	if st.DedupHits != 0 || st.DedupMisses != 0 {
		t.Errorf("enforce-mode sweep reported dedup traffic: %d/%d", st.DedupHits, st.DedupMisses)
	}
	if rep.Compliance() != 1 {
		t.Error("enforcement must still remediate every host individually")
	}
}

func TestDedupOffByDefault(t *testing.T) {
	targets, _ := LinuxFleet(4)
	_, st := Sweep(targets, Options{Shards: 2, Workers: 1})
	if st.DedupHits != 0 || st.DedupMisses != 0 {
		t.Errorf("dedup accounted without opt-in: %d/%d", st.DedupHits, st.DedupMisses)
	}
}

func TestDedupSkipsFaultyRequirements(t *testing.T) {
	// Verdict-changing fault plans make a check nondeterministic, so it
	// must never share a memo entry — each host pays its own execution.
	plan := engine.FaultPlan{TransientProb: 0.3}
	targets, _ := LinuxFleet(3)
	for i := range targets {
		targets[i] = WithFaults(targets[i], int64(i)*7, plan)
	}
	pol := engine.Policy{MaxAttempts: 3, Sleep: func(time.Duration) {}}
	_, st := Sweep(targets, Options{Shards: 2, Workers: 1, Dedup: true, Checks: pol})
	if st.DedupHits != 0 || st.DedupMisses != 0 {
		t.Errorf("faulty checks joined the memo: %d/%d", st.DedupHits, st.DedupMisses)
	}
}

func TestDedupDeterministicTotals(t *testing.T) {
	// Which host pays a miss is scheduling-dependent; the Canonical
	// roll-up — dedup totals included — must not be.
	run := func() canonicalSweep {
		targets, hosts := LinuxFleet(12)
		host.DriftLinux(hosts[4], 3, newRng(31))
		return canonical(Sweep(targets, Options{Shards: 4, Workers: 4, Dedup: true}))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("deduped sweeps diverge:\n%+v\n%+v", a, b)
	}
	if a.Stats.DedupHits == 0 {
		t.Error("homogeneous fleet produced no dedup hits")
	}
}
