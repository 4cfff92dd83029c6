package fleet

import (
	"reflect"
	"testing"

	"veridevops/internal/core"
)

// evalOne runs the per-host evaluator outside a dispatch: no shared
// memo, no span.
func evalOne(c *Coordinator, t Target, only []string, opts Options) (HostResult, []string) {
	return c.evaluate(t, only, 0, opts.normalized(1), nil, nil)
}

func TestEvaluateSubsetMergesIntoCache(t *testing.T) {
	targets, hosts := LinuxFleet(1)
	coord := NewCoordinator()
	opts := Options{Incremental: true}

	// Prime: full sweep, everything compliant and cached.
	rep, _ := coord.Sweep(targets, opts)
	if c := rep.Compliance(); c != 1 {
		t.Fatalf("primed compliance = %v, want 1", c)
	}

	// Drift one package, then delta exactly its check.
	hosts[0].Remove("aide")
	hr, ran := evalOne(coord, targets[0], []string{"V-219343"}, opts)
	if !reflect.DeepEqual(ran, []string{"V-219343"}) {
		t.Errorf("evaluator ran %v, want the subset", ran)
	}
	if hr.Stats.Requirements != 1 {
		t.Errorf("delta evaluated %d checks, want 1", hr.Stats.Requirements)
	}
	if got := len(hr.Report.Results); got != 8 {
		t.Fatalf("merged report has %d results, want the full 8", got)
	}
	for _, r := range hr.Report.Results {
		want := core.CheckPass
		if r.FindingID == "V-219343" {
			want = core.CheckFail
		}
		if r.After != want {
			t.Errorf("%s = %v, want %v", r.FindingID, r.After, want)
		}
	}

	// The merged verdicts are cached at the post-drift version: an
	// incremental sweep replays them without re-auditing.
	rep, st := coord.Sweep(targets, opts)
	if st.CachedHosts != 1 {
		t.Errorf("re-sweep executed the host; want a cache replay (CachedHosts = %d)", st.CachedHosts)
	}
	if !reflect.DeepEqual(rep.Failing(), []string{"host-00/V-219343"}) {
		t.Errorf("Failing = %v, want [host-00/V-219343]", rep.Failing())
	}
}

func TestEvaluateSubsetWithoutBaseRunsFully(t *testing.T) {
	targets, _ := LinuxFleet(1)
	coord := NewCoordinator()
	hr, ran := evalOne(coord, targets[0], []string{"V-219343"}, Options{Incremental: true})
	if hr.Stats.Requirements != 8 {
		t.Errorf("cold delta evaluated %d checks, want full 8 (nothing to merge into)", hr.Stats.Requirements)
	}
	if ran != nil {
		t.Errorf("cold delta reports it ran %v, want nil (the whole catalogue)", ran)
	}
	if hr.FromCache {
		t.Error("cold delta must execute, not replay")
	}
}

func TestEvaluateNilOnlyIsFullAudit(t *testing.T) {
	targets, _ := LinuxFleet(1)
	coord := NewCoordinator()
	hr, ran := evalOne(coord, targets[0], nil, Options{})
	if hr.Stats.Requirements != 8 || ran != nil {
		t.Errorf("nil-only delta evaluated %d checks (ran %v), want 8 (nil)", hr.Stats.Requirements, ran)
	}
}

func TestEvaluateEmptyOnlyRestampsStaleVersion(t *testing.T) {
	targets, hosts := LinuxFleet(1)
	coord := NewCoordinator()
	opts := Options{Incremental: true}
	coord.Sweep(targets, opts)

	// A mutation no check reads: version moves, verdicts don't.
	hosts[0].SetConfig("/etc/motd", "banner", "hello")
	_, st := coord.Sweep(targets, opts)
	if st.CachedHosts != 0 {
		t.Fatalf("stale-version sweep replayed cache; want a re-audit")
	}

	hosts[0].SetConfig("/etc/motd", "banner", "bye")
	hr, ran := evalOne(coord, targets[0], []string{}, opts)
	if !hr.FromCache {
		t.Fatal("re-stamp found no cache entry")
	}
	if ran == nil || len(ran) != 0 || hr.Stats.Requirements != 0 || len(hr.Report.Results) != 8 {
		t.Errorf("re-stamp ran %v (%d checks, %d verdicts), want nothing run and the cached 8 replayed",
			ran, hr.Stats.Requirements, len(hr.Report.Results))
	}
	_, st = coord.Sweep(targets, opts)
	if st.CachedHosts != 1 {
		t.Errorf("post-re-stamp sweep re-audited; want a cache replay")
	}

	// A re-stamp without a cache entry reports no replay.
	coord.Invalidate(targets[0].Name)
	if hr, _ := evalOne(coord, targets[0], []string{}, opts); hr.FromCache {
		t.Error("re-stamp on missing entry replayed")
	}
}

func TestMergeReport(t *testing.T) {
	base := core.Report{Results: []core.Result{
		{FindingID: "V-1", After: core.CheckPass},
		{FindingID: "V-3", After: core.CheckPass},
	}}
	partial := core.Report{Results: []core.Result{
		{FindingID: "V-3", After: core.CheckFail},
		{FindingID: "V-2", After: core.CheckPass},
	}}
	got := mergeReport(base, partial)
	want := []core.Result{
		{FindingID: "V-1", After: core.CheckPass},
		{FindingID: "V-2", After: core.CheckPass},
		{FindingID: "V-3", After: core.CheckFail},
	}
	if !reflect.DeepEqual(got.Results, want) {
		t.Errorf("mergeReport = %+v, want %+v", got.Results, want)
	}
	// Inputs are not mutated, and an empty partial copies the base.
	if base.Results[1].After != core.CheckPass {
		t.Error("mergeReport mutated its base input")
	}
	cp := mergeReport(base, core.Report{})
	if !reflect.DeepEqual(cp.Results, base.Results) {
		t.Errorf("empty-partial merge = %+v", cp.Results)
	}
	cp.Results[0].After = core.CheckError
	if base.Results[0].After == core.CheckError {
		t.Error("empty-partial merge aliases the base")
	}
}
