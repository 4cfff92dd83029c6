package tears

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"veridevops/internal/tctl"
	"veridevops/internal/trace"
)

// holdsAt is the reference evaluation of a propositional formula at one
// instant, written independently of tctl's satisfaction vectors.
func holdsAt(tr *trace.Trace, f tctl.Formula, t trace.Time) bool {
	switch n := f.(type) {
	case tctl.True:
		return true
	case tctl.False:
		return false
	case tctl.Prop:
		return tr.BoolAt(n.Name, t)
	case tctl.Cmp:
		x := tr.NumAt(n.Signal, t)
		switch n.Op {
		case tctl.Lt:
			return x < n.Value
		case tctl.Le:
			return x <= n.Value
		case tctl.Gt:
			return x > n.Value
		case tctl.Ge:
			return x >= n.Value
		case tctl.Eq:
			return x == n.Value
		default:
			return x != n.Value
		}
	case tctl.Not:
		return !holdsAt(tr, n.F, t)
	case tctl.And:
		return holdsAt(tr, n.L, t) && holdsAt(tr, n.R, t)
	case tctl.Or:
		return holdsAt(tr, n.L, t) || holdsAt(tr, n.R, t)
	case tctl.Imply:
		return !holdsAt(tr, n.L, t) || holdsAt(tr, n.R, t)
	default:
		panic(fmt.Sprintf("non-propositional node %T", f))
	}
}

// referenceEvaluate is the brute-force G/A semantics: an immediate G/A
// checks the assertion at every change point where the guard holds; a
// windowed one scans the whole window after every rising edge of the
// guard.
func referenceEvaluate(tr *trace.Trace, ga GA) Verdict {
	v := Verdict{GA: ga}
	points := tr.ChangePoints()
	prev := false
	for i, t := range points {
		g := holdsAt(tr, ga.Guard, t)
		armed := g && (ga.Within == 0 || !prev)
		prev = g
		if !armed {
			continue
		}
		v.Activations++
		served := false
		for j := i; j < len(points) && points[j] <= t+ga.Within; j++ {
			if holdsAt(tr, ga.Assert, points[j]) {
				served = true
				break
			}
		}
		if !served {
			v.Violations = append(v.Violations, Violation{At: t, Deadline: t + ga.Within})
		}
	}
	return v
}

// randomLog builds a log over the signals of the seed G/As: up to
// toggles random toggles for each boolean one (GenRandomToggles caps
// them at the end time's distinct instants), random walks for the
// numeric ones.
func randomLog(rng *rand.Rand, toggles int, end trace.Time) *trace.Trace {
	tr := trace.New()
	for _, name := range []string{"a", "b", "c", "d", "locked"} {
		trace.GenRandomToggles(tr, name, rng.Intn(toggles+1), end, rng)
	}
	step := end / trace.Time(toggles+1)
	if step < 1 {
		step = 1
	}
	for _, name := range []string{"t", "u"} {
		trace.GenNumericWalk(tr, name, 0, toggles, step, rng)
	}
	trace.GenNumericWalk(tr, "failed_logins", 2, toggles, step, rng)
	return tr
}

// TestEvaluateMatchesBruteForce is the differential check of Evaluate:
// on random logs, every seed G/A at every window width, including 0, 1
// and one wider than the log, gives the brute-force verdict.
func TestEvaluateMatchesBruteForce(t *testing.T) {
	var gas []GA
	for _, line := range gaSeeds {
		if ga, err := ParseGA(line); err == nil {
			gas = append(gas, ga)
		}
	}
	if len(gas) < 4 {
		t.Fatalf("only %d seed G/As parse", len(gas))
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		end := trace.Time(1 + rng.Intn(400))
		tr := randomLog(rng, rng.Intn(40), end)
		for _, ga := range gas {
			for _, w := range []trace.Time{0, 1, 7, 50, end + 1} {
				ga.Within = w
				got, want := Evaluate(tr, ga), referenceEvaluate(tr, ga)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, %s within %d:\nEvaluate  %+v\nreference %+v\nlog:\n%s",
						trial, ga, w, got, want, tr)
				}
			}
		}
	}
}
