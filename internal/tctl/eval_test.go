package tctl

import (
	"math/rand"
	"reflect"
	"testing"

	"veridevops/internal/trace"
)

// mkTrace builds a trace from (signal, time, bool) triples, with horizon end.
func mkTrace(end trace.Time, obs ...struct {
	sig string
	at  trace.Time
	v   bool
}) *trace.Trace {
	tr := trace.New()
	for _, o := range obs {
		tr.SetBool(o.sig, o.at, o.v)
	}
	tr.SetEnd(end)
	return tr
}

type obs = struct {
	sig string
	at  trace.Time
	v   bool
}

func TestEvalInvariantHolds(t *testing.T) {
	tr := mkTrace(100, obs{"p", 0, true})
	if !Holds(tr, MustParse("A[] p")) {
		t.Error("A[] p should hold on constantly-true p")
	}
}

func TestEvalInvariantViolatedWithWitness(t *testing.T) {
	tr := mkTrace(100, obs{"p", 0, true}, obs{"p", 40, false}, obs{"p", 60, true})
	v := Eval(tr, MustParse("A[] p"))
	if v.Holds {
		t.Fatal("A[] p should fail")
	}
	if v.FailAt != 40 {
		t.Errorf("FailAt = %d, want 40", v.FailAt)
	}
}

func TestEvalEventually(t *testing.T) {
	tr := mkTrace(100, obs{"p", 0, false}, obs{"p", 70, true})
	if !Holds(tr, MustParse("A<> p")) {
		t.Error("A<> p should hold when p eventually rises")
	}
	if Holds(tr, MustParse("A<> q")) {
		t.Error("A<> q must be false under strong finite-trace semantics")
	}
}

func TestEvalBoundedEventually(t *testing.T) {
	tr := mkTrace(100, obs{"p", 0, false}, obs{"p", 30, true})
	if !Holds(tr, MustParse("A<>[<=30] p")) {
		t.Error("p rises exactly at the bound; inclusive bound should hold")
	}
	if Holds(tr, MustParse("A<>[<=29] p")) {
		t.Error("bound 29 should fail when p rises at 30")
	}
}

func TestEvalLeadsTo(t *testing.T) {
	tr := trace.New()
	rng := rand.New(rand.NewSource(3))
	maxLat := trace.GenResponsePairs(tr, "req", "ack", 15, 40, 2, 12, rng)

	if !Holds(tr, LeadsTo{L: Prop{"req"}, R: Prop{"ack"}, B: Within(maxLat)}) {
		t.Errorf("req -->[<=%d] ack should hold (max observed latency)", maxLat)
	}
	if Holds(tr, LeadsTo{L: Prop{"req"}, R: Prop{"ack"}, B: Within(1)}) {
		t.Error("req -->[<=1] ack should fail (min latency is 2)")
	}
	if !Holds(tr, MustParse("req --> ack")) {
		t.Error("unbounded req --> ack should hold")
	}
}

func TestEvalLeadsToViolation(t *testing.T) {
	// req at 10 never acknowledged.
	tr := mkTrace(200,
		obs{"req", 10, true}, obs{"req", 11, false},
		obs{"ack", 0, false})
	if Holds(tr, MustParse("req --> ack")) {
		t.Error("response never happens; leads-to must fail")
	}
}

func TestEvalUntil(t *testing.T) {
	// p holds until q rises at 50.
	tr := mkTrace(100, obs{"p", 0, true}, obs{"q", 50, true}, obs{"p", 55, false})
	if !Holds(tr, MustParse("A[p U q]")) {
		t.Error("p U q should hold")
	}
	// p drops before q.
	tr2 := mkTrace(100, obs{"p", 0, true}, obs{"p", 20, false}, obs{"q", 50, true})
	if Holds(tr2, MustParse("A[p U q]")) {
		t.Error("p U q should fail when p drops before q")
	}
	// q never happens.
	tr3 := mkTrace(100, obs{"p", 0, true})
	if Holds(tr3, MustParse("A[p U q]")) {
		t.Error("p U q should fail when q never holds (strong until)")
	}
}

func TestEvalUntilImmediateR(t *testing.T) {
	// q holds at time 0: until is satisfied regardless of p.
	tr := mkTrace(10, obs{"q", 0, true})
	if !Holds(tr, MustParse("A[p U q]")) {
		t.Error("q at start satisfies p U q")
	}
}

func TestEvalBooleanConnectives(t *testing.T) {
	tr := mkTrace(10, obs{"p", 0, true}, obs{"q", 0, false})
	cases := []struct {
		f    string
		want bool
	}{
		{"p && !q", true},
		{"p && q", false},
		{"p || q", true},
		{"q -> p", true},
		{"p -> q", false},
		{"true", true},
		{"false", false},
		{"!false", true},
	}
	for _, c := range cases {
		if got := Holds(tr, MustParse(c.f)); got != c.want {
			t.Errorf("Holds(%q) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestEvalNumericAtoms(t *testing.T) {
	tr := trace.New()
	tr.SetNum("temp", 0, 20)
	tr.SetNum("temp", 50, 150)
	tr.SetEnd(100)

	if Holds(tr, MustParse("A[] temp < 100")) {
		t.Error("temp exceeds 100 at t=50")
	}
	if !Holds(tr, MustParse("A<> temp >= 150")) {
		t.Error("temp reaches 150")
	}
	if !Holds(tr, MustParse("temp == 20")) {
		t.Error("temp is 20 at time 0")
	}
	if !Holds(tr, MustParse("temp != 30")) {
		t.Error("temp is not 30 at time 0")
	}
}

func TestEvalPathQuantifierCollapse(t *testing.T) {
	// On a linear trace, E-quantified operators agree with A-quantified.
	tr := mkTrace(100, obs{"p", 0, false}, obs{"p", 10, true}, obs{"p", 90, false})
	pairs := [][2]string{
		{"E<> p", "A<> p"},
		{"E[] p", "A[] p"},
		{"E[p U q]", "A[p U q]"},
	}
	for _, pr := range pairs {
		if Holds(tr, MustParse(pr[0])) != Holds(tr, MustParse(pr[1])) {
			t.Errorf("%s and %s must agree on a linear trace", pr[0], pr[1])
		}
	}
}

func TestEvalEmptyTrace(t *testing.T) {
	tr := trace.New()
	if !Holds(tr, MustParse("A[] !p")) {
		t.Error("absent signal is false, so A[] !p should hold on an empty trace")
	}
	if Holds(tr, MustParse("A<> p")) {
		t.Error("A<> p should fail on an empty trace")
	}
}

// Property-style test: bounded eventually agrees with a brute-force scan on
// random traces.
func TestBoundedEventuallyAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		tr := trace.New()
		trace.GenRandomToggles(tr, "p", 2+rng.Intn(10), 500, rng)
		bound := trace.Time(rng.Int63n(200))
		got := Holds(tr, AF{F: Prop{"p"}, B: Within(bound)})

		// Brute force on change points.
		want := false
		for _, cp := range tr.ChangePoints() {
			if cp <= bound && tr.BoolAt("p", cp) {
				want = true
				break
			}
		}
		if got != want {
			t.Fatalf("iter %d bound %d: eval=%v brute=%v", iter, bound, got, want)
		}
	}
}

func TestEvalMemoizationConsistency(t *testing.T) {
	// The same subformula appearing twice must evaluate consistently
	// (exercises the memo path).
	tr := mkTrace(50, obs{"p", 0, true})
	f := And{L: AG{Prop{"p"}}, R: Or{L: AG{Prop{"p"}}, R: Prop{"q"}}}
	if !Holds(tr, f) {
		t.Error("memoized duplicate subformula evaluated inconsistently")
	}
}

// Vectors returns one satisfaction vector per formula over the trace's
// change points, desugaring derived operators first.
func TestVectors(t *testing.T) {
	tr := mkTrace(100, obs{"p", 0, false}, obs{"p", 20, true}, obs{"p", 30, false}, obs{"q", 25, true})
	points, sat := Vectors(tr, Prop{"p"}, Imply{L: Prop{"p"}, R: Prop{"q"}}, AF{F: Prop{"p"}, B: Within(10)})
	wantPoints := []trace.Time{0, 20, 25, 30, 100}
	want := [][]bool{
		{false, true, true, false, false},
		{true, false, true, true, true},
		{false, true, true, false, false},
	}
	if !reflect.DeepEqual(points, wantPoints) || !reflect.DeepEqual(sat, want) {
		t.Errorf("Vectors = %v, %v; want %v, %v", points, sat, wantPoints, want)
	}
}

// A bounded universality constrains only its window: a violation after
// the bound does not count.
func TestBoundedUniversalitySemantics(t *testing.T) {
	f := Pattern{Behaviour: Universality, Scope: Globally, P: Prop{"p"}, B: Within(50)}.MustCompile()
	if !Holds(mkTrace(100, obs{"p", 0, true}, obs{"p", 60, false}), f) {
		t.Error("p drops after the window: bounded universality should hold")
	}
	if Holds(mkTrace(100, obs{"p", 0, true}, obs{"p", 50, false}), f) {
		t.Error("p drops at the bound: bounded universality should fail")
	}
	abs := Pattern{Behaviour: Absence, Scope: Globally, P: Prop{"p"}, B: Within(50)}.MustCompile()
	if !Holds(mkTrace(100, obs{"p", 0, false}, obs{"p", 51, true}), abs) {
		t.Error("p rises after the window: bounded absence should hold")
	}
}
