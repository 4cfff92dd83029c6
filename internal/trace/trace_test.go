package trace

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSignalStepSemantics(t *testing.T) {
	s := NewSignal("p")
	s.SetBool(10, true)
	s.SetBool(20, false)

	if s.BoolAt(0) {
		t.Error("signal should be false before the first sample")
	}
	if !s.BoolAt(10) {
		t.Error("signal should be true exactly at the rising sample")
	}
	if !s.BoolAt(15) {
		t.Error("signal should hold true between samples")
	}
	if s.BoolAt(20) || s.BoolAt(1000) {
		t.Error("signal should be false at and after the falling sample")
	}
}

func TestSignalOverwriteAtSameTimestamp(t *testing.T) {
	s := NewSignal("p")
	s.SetNum(5, 1)
	s.SetNum(5, 42)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after overwrite", s.Len())
	}
	if got := s.NumAt(5); got != 42 {
		t.Errorf("NumAt(5) = %v, want 42", got)
	}
}

func TestSignalOutOfOrderInsertion(t *testing.T) {
	s := NewSignal("p")
	s.SetNum(30, 3)
	s.SetNum(10, 1)
	s.SetNum(20, 2)
	want := []float64{1, 2, 3}
	for i, smp := range s.Samples() {
		if smp.Num != want[i] {
			t.Fatalf("samples out of order: %v", s.Samples())
		}
	}
	if s.NumAt(25) != 2 {
		t.Errorf("NumAt(25) = %v, want 2", s.NumAt(25))
	}
}

// Property: regardless of insertion order, samples end up sorted and value
// lookup matches a reference linear scan.
func TestSignalSortedInvariant(t *testing.T) {
	f := func(times []int16, probe int16) bool {
		s := NewSignal("x")
		ref := map[int64]float64{}
		for i, tt := range times {
			at := int64(tt)
			s.SetNum(at, float64(i))
			ref[at] = float64(i)
		}
		// Sorted invariant.
		smps := s.Samples()
		if !sort.SliceIsSorted(smps, func(i, j int) bool { return smps[i].At < smps[j].At }) {
			return false
		}
		// Reference lookup: latest ref sample at or before probe.
		var best int64
		var bestVal float64
		found := false
		for at, v := range ref {
			if at <= int64(probe) && (!found || at >= best) {
				best, bestVal, found = at, v, true
			}
		}
		got := s.NumAt(int64(probe))
		if !found {
			return got == 0
		}
		return got == bestVal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTraceEndTracking(t *testing.T) {
	tr := New()
	tr.SetBool("p", 5, true)
	tr.SetNum("q", 17, 3.5)
	if tr.End() != 17 {
		t.Errorf("End = %d, want 17", tr.End())
	}
	tr.SetEnd(100)
	if tr.End() != 100 {
		t.Errorf("End = %d, want 100 after SetEnd", tr.End())
	}
	tr.SetEnd(50) // must not shrink
	if tr.End() != 100 {
		t.Errorf("End = %d, want 100 (SetEnd must not shrink)", tr.End())
	}
}

func TestTraceMissingSignal(t *testing.T) {
	tr := New()
	if tr.BoolAt("ghost", 10) {
		t.Error("missing signal should be false")
	}
	if tr.NumAt("ghost", 10) != 0 {
		t.Error("missing signal should be zero")
	}
	if tr.Has("ghost") {
		t.Error("Has should be false for missing signal")
	}
}

func TestChangePoints(t *testing.T) {
	tr := New()
	tr.SetBool("p", 10, true)
	tr.SetBool("q", 10, true) // duplicate timestamp across signals
	tr.SetBool("p", 30, false)
	tr.SetEnd(40)
	got := tr.ChangePoints()
	want := []int64{0, 10, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("ChangePoints = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ChangePoints = %v, want %v", got, want)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	tr := New()
	tr.SetBool("zeta", 0, true)
	tr.SetBool("alpha", 0, true)
	names := tr.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("Names = %v", names)
	}
}

func TestGenPeriodic(t *testing.T) {
	tr := New()
	GenPeriodic(tr, "clk", 10, 3, 100)
	for _, c := range []struct {
		at   int64
		want bool
	}{{0, true}, {2, true}, {3, false}, {9, false}, {10, true}, {13, false}} {
		if got := tr.BoolAt("clk", c.at); got != c.want {
			t.Errorf("clk at %d = %v, want %v", c.at, got, c.want)
		}
	}
	if tr.End() < 100 {
		t.Error("end not extended")
	}
}

func TestGenPeriodicPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GenPeriodic should panic on non-positive period")
		}
	}()
	GenPeriodic(New(), "clk", 0, 1, 10)
}

func TestGenRandomTogglesAlternates(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	GenRandomToggles(tr, "p", 7, 1000, rng)
	s := tr.Signal("p")
	if s.Len() != 8 { // initial false + 7 toggles
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	prev := s.Samples()[0].Bool
	if prev {
		t.Fatal("signal must start false")
	}
	for _, smp := range s.Samples()[1:] {
		if smp.Bool == prev {
			t.Fatal("toggles must alternate")
		}
		prev = smp.Bool
	}
}

// TestGenRandomTogglesCapsAtEnd pins the cap: asking for more toggles
// than (0, end] has instants returns one toggle per instant instead of
// drawing forever, and an empty interval draws nothing (rand.Int63n
// would panic on it).
func TestGenRandomTogglesCapsAtEnd(t *testing.T) {
	tr := New()
	GenRandomToggles(tr, "p", 40, 1, rand.New(rand.NewSource(1)))
	if s := tr.Signal("p"); s.Len() != 2 || !s.Samples()[1].Bool || s.Samples()[1].At != 1 {
		t.Fatalf("40 toggles over end 1 = %v, want the initial false and one toggle at 1", s.Samples())
	}
	for _, end := range []Time{0, -5} {
		tr := New()
		GenRandomToggles(tr, "p", 3, end, rand.New(rand.NewSource(1)))
		if s := tr.Signal("p"); s.Len() != 1 {
			t.Errorf("3 toggles over end %d = %v, want only the initial false", end, s.Samples())
		}
	}
}

func TestGenResponsePairsLatencyBound(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(7))
	maxObs := GenResponsePairs(tr, "p", "q", 20, 50, 5, 15, rng)
	if maxObs < 5 || maxObs >= 15 {
		t.Errorf("max latency %d outside [5,15)", maxObs)
	}
	// Every p pulse must be followed by a q pulse within maxObs ticks.
	for _, smp := range tr.Signal("p").Samples() {
		if !smp.Bool {
			continue
		}
		ok := false
		for _, q := range tr.Signal("q").Samples() {
			if q.Bool && q.At >= smp.At && q.At-smp.At <= maxObs {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("p pulse at %d has no q response within %d", smp.At, maxObs)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := New()
	tr.SetBool("p", 0, false)
	tr.SetBool("p", 10, true)
	tr.SetNum("x", 5, 2.75)

	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !got.BoolAt("p", 15) || got.BoolAt("p", 5) {
		t.Error("boolean signal did not round-trip")
	}
	if got.NumAt("x", 7) != 2.75 {
		t.Errorf("numeric signal = %v, want 2.75", got.NumAt("x", 7))
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("p,notatime,1\n")); err == nil {
		t.Error("bad time must error")
	}
	if _, err := ReadCSV(bytes.NewBufferString("p,1,notanum\n")); err == nil {
		t.Error("bad value must error")
	}
	if _, err := ReadCSV(bytes.NewBufferString("p,1\n")); err == nil {
		t.Error("short record must error")
	}
}

func TestTraceString(t *testing.T) {
	tr := New()
	tr.SetBool("p", 3, true)
	if tr.String() != "trace{1 signals, 1 samples, end=3}" {
		t.Errorf("String = %q", tr.String())
	}
}
