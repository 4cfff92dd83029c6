package main

import (
	"fmt"

	"veridevops/internal/core"
	"veridevops/internal/fleet"
)

// oracleResult counts what the oracle checked and how much of it was
// wrong; error_rate is Failed / Checked.
type oracleResult struct {
	Checked int `json:"checked"`
	Failed  int `json:"failed"`
	// First holds the first few failures, for the report.
	First []string `json:"first,omitempty"`
}

func (o *oracleResult) fail(format string, args ...any) {
	o.Failed++
	if len(o.First) < 5 {
		o.First = append(o.First, fmt.Sprintf(format, args...))
	}
}

func (o *oracleResult) add(p oracleResult) {
	o.Checked += p.Checked
	o.Failed += p.Failed
	for _, s := range p.First {
		if len(o.First) < 5 {
			o.First = append(o.First, s)
		}
	}
}

// verify checks the evaluator's state after a drain against a fresh
// audit of the fleet as it stands: a new coordinator sweeping every host
// with the incremental cache and dedup off. Checked counts every
// host/finding verdict, the fleet-wide PASS/FAIL/INCOMPLETE totals, and
// every applied event; Failed counts verdicts that differ or exist on one
// side only, totals that differ, and events still pending on a host that
// is still a member.
func (r *rig) verify(events int) oracleResult {
	truth, _ := fleet.NewCoordinator().Sweep(r.f.Targets(), fleet.Options{
		Mode:    core.CheckOnly,
		Shards:  shards,
		Workers: workers,
	})
	var live [3]int
	if r.s != nil {
		live[0], live[1], live[2] = r.s.Counts()
	} else {
		for _, rep := range r.view {
			p, f, i := rep.Counts()
			live[0], live[1], live[2] = live[0]+p, live[1]+f, live[2]+i
		}
	}
	o := compareVerdicts(truth, r.view, live)
	o.Checked += events
	if n := r.pendingOnMembers(); n > 0 {
		o.Failed += n - 1
		o.fail("%d events still pending on fleet members", n)
	}
	return o
}

// compareVerdicts compares a view of per-host reports and its live
// verdict totals with the oracle's report.
func compareVerdicts(truth fleet.FleetReport, view map[string]core.Report, live [3]int) oracleResult {
	var o oracleResult
	matched := 0
	for _, hr := range truth.Hosts {
		got := map[string]core.CheckStatus{}
		if rep, ok := view[hr.Target]; ok {
			matched++
			for _, res := range rep.Results {
				got[res.FindingID] = res.After
			}
		}
		for _, want := range hr.Report.Results {
			o.Checked++
			st, ok := got[want.FindingID]
			switch {
			case !ok:
				o.fail("%s/%s: no verdict, oracle says %v", hr.Target, want.FindingID, want.After)
			case st != want.After:
				o.fail("%s/%s: %v, oracle says %v", hr.Target, want.FindingID, st, want.After)
			}
			delete(got, want.FindingID)
		}
		for id, st := range got {
			o.Checked++
			o.fail("%s/%s: %v, oracle has no such finding", hr.Target, id, st)
		}
	}
	if extra := len(view) - matched; extra > 0 {
		o.Checked += extra
		o.Failed += extra - 1
		o.fail("%d hosts in the view are not fleet members", extra)
	}
	o.Checked++
	p, f, i := truth.Counts()
	if want := [3]int{p, f, i}; live != want {
		o.fail("live pass/fail/incomplete %v, oracle %v", live, want)
	}
	return o
}
