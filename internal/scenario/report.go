package scenario

import (
	"fmt"
	"strings"

	"veridevops/internal/tears"
	"veridevops/internal/trace"
)

// StepResult is one step's outcome with provenance: which step, when,
// what it targeted, and what happened.
type StepResult struct {
	Index int
	At    Duration
	Kind  string
	// Target is the resolved target description (selector, host name, or
	// signal name).
	Target string
	// OK is false when an assertion failed. Skipped marks mutations that
	// found no eligible target (unreachable hosts, empty selectors) —
	// recorded, not fatal.
	OK      bool
	Skipped bool
	Detail  string
}

// GAResult is one deferred guarded-assertion verdict with the step that
// requested it.
type GAResult struct {
	Step    int
	Verdict tears.Verdict
}

// Result is one scenario execution's structured outcome. Every field is
// derived from the virtual clock and the seeded fleet, so identical
// specs render byte-identical reports.
type Result struct {
	Spec Spec
	// Steps holds per-step provenance in step order; Schedule the
	// virtual-time event log (ticks interleaved with steps).
	Steps    []StepResult
	Schedule []string
	GAs      []GAResult
	// Ticks counts flushes; Alarms/Repairs the violation episodes
	// opened and closed over the whole run.
	Ticks   int
	Alarms  int
	Repairs int
	// FinalCompliance and FinalState snapshot the live verdict view at
	// the horizon; FinalState lines are sorted "host finding status".
	FinalCompliance float64
	FinalState      []string
	// Trace is the recorded signal log (compliance, failing, incomplete,
	// alarms, repairs, alarm/repair pulses, custom signals).
	Trace *trace.Trace
	// ReadViolations holds the dynamic declared-reads oracle's findings
	// ("host: finding: kind [keys] ..."), sorted by host, when
	// Options.VerifyReads was set; FatalReadViolations counts the
	// undeclared-read subset, which fails the run.
	ReadViolations      []string
	FatalReadViolations int
	// Divergences lists, sorted, each "host finding" whose verdict in
	// the final view differs from a fresh full sweep of the final fleet,
	// and a compliance mismatch if any. Any divergence fails the run.
	Divergences []string
}

// Failure describes the first reason the run failed — a divergence from
// the reference sweep, a failed step, an undeclared read — or returns ""
// when it passed.
func (r *Result) Failure() string {
	if len(r.Divergences) > 0 {
		return fmt.Sprintf("final view diverges from a fresh sweep: %s", r.Divergences[0])
	}
	if f := r.Failures(); len(f) > 0 {
		return fmt.Sprintf("failed step %d (%s): %s", f[0].Index, f[0].Kind, f[0].Detail)
	}
	if r.FatalReadViolations > 0 {
		return fmt.Sprintf("%d undeclared read(s)", r.FatalReadViolations)
	}
	return ""
}

// Failed reports whether the run failed (see Failure).
func (r *Result) Failed() bool { return r.Failure() != "" }

// Failures returns the failing steps.
func (r *Result) Failures() []StepResult {
	var out []StepResult
	for _, s := range r.Steps {
		if !s.OK {
			out = append(out, s)
		}
	}
	return out
}

// Report renders the structured failure report: verdict, per-step
// provenance, guarded-assertion table and final fleet state summary.
// The rendering contains only virtual-clock quantities, so it is
// byte-identical across runs of the same spec.
func (r *Result) Report() string {
	var b strings.Builder
	verdict := "PASS"
	if r.Failed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "scenario %s: %s\n", r.Spec.Name, verdict)
	if r.Spec.Description != "" {
		fmt.Fprintf(&b, "  %s\n", r.Spec.Description)
	}
	fmt.Fprintf(&b, "  hosts=%d seed=%d steps=%d ticks=%d\n",
		r.Spec.Hosts, r.Spec.Seed, len(r.Steps), r.Ticks)
	for _, s := range r.Steps {
		mark := "ok  "
		switch {
		case !s.OK:
			mark = "FAIL"
		case s.Skipped:
			mark = "skip"
		}
		fmt.Fprintf(&b, "  %s #%-2d t=%-8v %-18s %s\n", mark, s.Index, s.At.D(), s.Kind, s.Detail)
	}
	if len(r.GAs) > 0 {
		b.WriteString("  guarded assertions:\n")
		for _, g := range r.GAs {
			v := g.Verdict
			verdict := "PASS"
			switch {
			case !v.Passed():
				verdict = "FAIL"
			case v.Vacuous():
				verdict = "VACUOUS"
			}
			fmt.Fprintf(&b, "    %-7s %s (activations=%d violations=%d)\n",
				verdict, v.GA.Name, v.Activations, len(v.Violations))
		}
	}
	if len(r.ReadViolations) > 0 {
		fmt.Fprintf(&b, "  declared-reads oracle: %d violation(s), %d fatal\n",
			len(r.ReadViolations), r.FatalReadViolations)
		for _, v := range r.ReadViolations {
			fmt.Fprintf(&b, "    %s\n", v)
		}
	}
	if len(r.Divergences) > 0 {
		fmt.Fprintf(&b, "  truth check: %d divergence(s) from a fresh sweep of the final fleet\n", len(r.Divergences))
		for _, d := range r.Divergences {
			fmt.Fprintf(&b, "    %s\n", d)
		}
	}
	fmt.Fprintf(&b, "  final: compliance=%.4f alarms=%d repairs=%d verdicts=%d\n",
		r.FinalCompliance, r.Alarms, r.Repairs, len(r.FinalState))
	return b.String()
}
