package tctl

import (
	"veridevops/internal/trace"

	"fmt"
)

// Evaluation over finite timed traces.
//
// A trace is a single linear execution, so the path quantifiers collapse:
// A[] and E[] coincide (there is exactly one path), as do A<> and E<>.
// Eventualities use the *strong* finite-trace semantics: A<> p is false if
// p never holds before the trace ends. This matches how the VeriDevOps
// runtime monitors report INCOMPLETE/FAIL when an expected response has not
// been observed by the time the monitoring window closes.
//
// Signals are step functions, so a formula's truth value can only change at
// a signal change point; evaluation therefore works on the vector of change
// points, giving O(|formula| * points) time for the nesting-free operators
// and O(points) extra per bounded eventuality via a sliding window.

// Verdict is the result of evaluating a formula on a trace.
type Verdict struct {
	Holds bool
	// FailAt is the earliest change point at which the top-level formula is
	// violated, meaningful when Holds is false and the formula is an
	// invariant (A[] ...) or leads-to.
	FailAt trace.Time
}

// Eval evaluates the formula at time 0 of the trace.
func Eval(tr *trace.Trace, f Formula) Verdict {
	e := newEvaluator(tr)
	sat := e.vec(Desugar(f))
	if len(sat) == 0 {
		return Verdict{Holds: true}
	}
	if sat[0] {
		return Verdict{Holds: true}
	}
	// Find the earliest witness of violation for invariants: first point
	// where the body is false. For non-invariant top-levels, report 0.
	v := Verdict{Holds: false, FailAt: 0}
	if g, ok := Desugar(f).(AG); ok {
		body := e.vec(g.F)
		for i, b := range body {
			if !b {
				v.FailAt = e.points[i]
				break
			}
		}
	}
	return v
}

// Holds is a convenience wrapper returning only the boolean verdict.
func Holds(tr *trace.Trace, f Formula) bool { return Eval(tr, f).Holds }

// Vectors returns the change points of the trace and, for each formula,
// its satisfaction vector over them: sat[k][i] reports whether fs[k]
// holds at points[i]. The formulas are desugared and share one
// evaluator, so a subformula they have in common is evaluated once; the
// vectors may therefore share storage and must be treated as read-only.
func Vectors(tr *trace.Trace, fs ...Formula) (points []trace.Time, sat [][]bool) {
	e := newEvaluator(tr)
	sat = make([][]bool, len(fs))
	for k, f := range fs {
		sat[k] = e.vec(Desugar(f))
	}
	return e.points, sat
}

type evaluator struct {
	tr     *trace.Trace
	points []trace.Time
	memo   map[string][]bool
}

func newEvaluator(tr *trace.Trace) *evaluator {
	return &evaluator{tr: tr, points: tr.ChangePoints(), memo: map[string][]bool{}}
}

// vec returns the satisfaction vector of f over the change points.
func (e *evaluator) vec(f Formula) []bool {
	key := f.String()
	if v, ok := e.memo[key]; ok {
		return v
	}
	n := len(e.points)
	out := make([]bool, n)
	switch node := f.(type) {
	case True:
		for i := range out {
			out[i] = true
		}
	case False:
		// all false
	case Prop:
		for i, t := range e.points {
			out[i] = e.tr.BoolAt(node.Name, t)
		}
	case Cmp:
		for i, t := range e.points {
			out[i] = cmp(e.tr.NumAt(node.Signal, t), node.Op, node.Value)
		}
	case Not:
		in := e.vec(node.F)
		for i := range out {
			out[i] = !in[i]
		}
	case And:
		l, r := e.vec(node.L), e.vec(node.R)
		for i := range out {
			out[i] = l[i] && r[i]
		}
	case Or:
		l, r := e.vec(node.L), e.vec(node.R)
		for i := range out {
			out[i] = l[i] || r[i]
		}
	case AG:
		in := e.vec(node.F)
		acc := true
		for i := n - 1; i >= 0; i-- {
			acc = acc && in[i]
			out[i] = acc
		}
	case EG:
		// Single path: E[] == A[] on traces.
		return e.vecAs(key, AG{F: node.F})
	case AF:
		in := e.vec(node.F)
		if !node.B.Valid {
			acc := false
			for i := n - 1; i >= 0; i-- {
				acc = acc || in[i]
				out[i] = acc
			}
		} else {
			// Sliding window: out[i] = exists j>=i with points[j]-points[i] <= D and in[j].
			// Two-pointer with a count of true cells in the window.
			j, cnt := 0, 0
			for i := 0; i < n; i++ {
				if j < i {
					j, cnt = i, 0
				}
				for j < n && e.points[j]-e.points[i] <= node.B.D {
					if in[j] {
						cnt++
					}
					j++
				}
				out[i] = cnt > 0
				if in[i] {
					cnt--
				}
			}
		}
	case EF:
		return e.vecAs(key, AF{F: node.F, B: node.B})
	case AU:
		l, r := e.vec(node.L), e.vec(node.R)
		for i := n - 1; i >= 0; i-- {
			switch {
			case r[i]:
				out[i] = true
			case i == n-1:
				out[i] = false
			default:
				out[i] = l[i] && out[i+1]
			}
		}
	case EU:
		return e.vecAs(key, AU{L: node.L, R: node.R})
	default:
		panic(fmt.Sprintf("tctl: eval of non-desugared node %T", f))
	}
	e.memo[key] = out
	return out
}

// vecAs evaluates the replacement formula and memoizes it under the
// original key (used for the path-quantifier collapses).
func (e *evaluator) vecAs(key string, repl Formula) []bool {
	v := e.vec(repl)
	e.memo[key] = v
	return v
}

func cmp(x float64, op CmpOp, c float64) bool {
	switch op {
	case Lt:
		return x < c
	case Le:
		return x <= c
	case Gt:
		return x > c
	case Ge:
		return x >= c
	case Eq:
		return x == c
	default:
		return x != c
	}
}
