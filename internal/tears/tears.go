// Package tears implements TEARS-style independent guarded assertions
// (G/As) from VeriDevOps D2.7: requirements of the form "when <guard> then
// <assertion> [within N ms]" evaluated over recorded signal logs
// (internal/trace), producing per-assertion verdicts and the analysis
// overview report the NAPKIN environment generates for a session.
//
// G/A syntax, one per line:
//
//	GA <name>: when <guard> then <assertion> [within <N> ms]
//	# comment
//
// Guard and assertion are state predicates over signals: boolean signal
// names, comparisons (x > 5, mode == 2), combined with &&, || and !.
package tears

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"veridevops/internal/tctl"
	"veridevops/internal/trace"
)

// GA is one guarded assertion.
type GA struct {
	Name string
	// Guard and Assert are propositional tctl formulas (no temporal
	// operators).
	Guard  tctl.Formula
	Assert tctl.Formula
	// Within is the response window in ticks; 0 means the assertion must
	// hold at the very instants the guard holds.
	Within trace.Time
	// Source is the original specification line.
	Source string
}

// String reconstructs the canonical G/A line.
func (g GA) String() string {
	s := fmt.Sprintf("GA %s: when %s then %s", g.Name, g.Guard, g.Assert)
	if g.Within > 0 {
		s += fmt.Sprintf(" within %d ms", g.Within)
	}
	return s
}

var gaRe = regexp.MustCompile(`^GA\s+([A-Za-z0-9_.-]+)\s*:\s*when\s+(.+?)\s+then\s+(.+?)(?:\s+within\s+(\d+)\s*ms)?$`)

// ParseGA parses one guarded-assertion line.
func ParseGA(line string) (GA, error) {
	ga := GA{Source: line}
	m := gaRe.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return ga, fmt.Errorf("tears: line does not match 'GA <name>: when <guard> then <assert> [within N ms]': %q", line)
	}
	ga.Name = m[1]
	var err error
	if ga.Guard, err = parsePredicate(m[2]); err != nil {
		return ga, fmt.Errorf("tears: %s: guard: %w", ga.Name, err)
	}
	if ga.Assert, err = parsePredicate(m[3]); err != nil {
		return ga, fmt.Errorf("tears: %s: assertion: %w", ga.Name, err)
	}
	if m[4] != "" {
		n, err := strconv.ParseInt(m[4], 10, 64)
		if err != nil {
			return ga, fmt.Errorf("tears: %s: bad window %q", ga.Name, m[4])
		}
		ga.Within = n
	}
	return ga, nil
}

// parsePredicate parses a state predicate, rejecting temporal operators.
func parsePredicate(s string) (tctl.Formula, error) {
	f, err := tctl.Parse(s)
	if err != nil {
		return nil, err
	}
	if err := assertPropositional(f); err != nil {
		return nil, err
	}
	return f, nil
}

func assertPropositional(f tctl.Formula) error {
	switch n := f.(type) {
	case tctl.Prop, tctl.True, tctl.False, tctl.Cmp:
		return nil
	case tctl.Not:
		return assertPropositional(n.F)
	case tctl.And:
		if err := assertPropositional(n.L); err != nil {
			return err
		}
		return assertPropositional(n.R)
	case tctl.Or:
		if err := assertPropositional(n.L); err != nil {
			return err
		}
		return assertPropositional(n.R)
	case tctl.Imply:
		if err := assertPropositional(n.L); err != nil {
			return err
		}
		return assertPropositional(n.R)
	default:
		return fmt.Errorf("temporal operator %q not allowed in a G/A predicate", f.String())
	}
}

// ParseFile parses a multi-line G/A specification, skipping blanks and '#'
// comments. All parse errors are collected.
func ParseFile(text string) ([]GA, []error) {
	var gas []GA
	var errs []error
	for i, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ga, err := ParseGA(line)
		if err != nil {
			errs = append(errs, fmt.Errorf("line %d: %w", i+1, err))
			continue
		}
		gas = append(gas, ga)
	}
	return gas, errs
}

// Violation is one observed G/A failure.
type Violation struct {
	// At is the change point where the guard held.
	At trace.Time
	// Deadline is At+Within for windowed assertions (equal to At for
	// immediate ones).
	Deadline trace.Time
}

// Verdict is the evaluation result of one G/A over one log.
type Verdict struct {
	GA GA
	// Activations counts change points (immediate) or guard rising edges
	// (windowed) at which the G/A was armed.
	Activations int
	Violations  []Violation
}

// Passed reports whether the G/A held throughout the log.
func (v Verdict) Passed() bool { return len(v.Violations) == 0 }

// Vacuous reports whether the guard never held (the G/A was never
// exercised) — TEARS flags these in the overview since a vacuously-passing
// assertion gives no confidence.
func (v Verdict) Vacuous() bool { return v.Activations == 0 }

// Evaluate checks one G/A against a log.
//
// Immediate G/As (Within == 0) require the assertion at every change point
// where the guard holds. Windowed G/As are armed at every rising edge of
// the guard and require some change point within the window (inclusive) at
// which the assertion holds: the bounded eventuality A<>[<=Within] Assert,
// which tctl evaluates with one sliding window over the whole log.
func Evaluate(tr *trace.Trace, ga GA) Verdict {
	v := Verdict{GA: ga}
	served := ga.Assert
	if ga.Within != 0 {
		served = tctl.AF{F: ga.Assert, B: tctl.Within(ga.Within)}
	}
	points, sat := tctl.Vectors(tr, ga.Guard, served)
	guard, ok := sat[0], sat[1]
	prev := false
	for i, t := range points {
		armed := guard[i] && (ga.Within == 0 || !prev)
		prev = guard[i]
		if !armed {
			continue
		}
		v.Activations++
		if !ok[i] {
			v.Violations = append(v.Violations, Violation{At: t, Deadline: t + ga.Within})
		}
	}
	return v
}

// EvaluateAll checks every G/A against the log.
func EvaluateAll(tr *trace.Trace, gas []GA) []Verdict {
	out := make([]Verdict, 0, len(gas))
	for _, ga := range gas {
		out = append(out, Evaluate(tr, ga))
	}
	return out
}

// Overview renders the ANALYSIS_overview report for a set of verdicts.
func Overview(verdicts []Verdict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-8s %-12s %-12s %s\n", "GA", "VERDICT", "ACTIVATIONS", "VIOLATIONS", "NOTE")
	pass, fail, vac := 0, 0, 0
	for _, v := range verdicts {
		verdict := "PASS"
		note := ""
		switch {
		case !v.Passed():
			verdict = "FAIL"
			fail++
			note = fmt.Sprintf("first at t=%d", v.Violations[0].At)
		case v.Vacuous():
			vac++
			note = "vacuous (guard never held)"
			pass++
		default:
			pass++
		}
		fmt.Fprintf(&b, "%-20s %-8s %-12d %-12d %s\n", v.GA.Name, verdict, v.Activations, len(v.Violations), note)
	}
	fmt.Fprintf(&b, "summary: %d pass (%d vacuous), %d fail\n", pass, vac, fail)
	return b.String()
}
