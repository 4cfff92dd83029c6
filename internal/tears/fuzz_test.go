package tears

import (
	"math/rand"
	"reflect"
	"testing"

	"veridevops/internal/trace"
)

// FuzzParseGA checks that the G/A parser is total and accepted lines
// round-trip through their canonical rendering.
// gaSeeds are the fuzz seeds of the G/A parser; the ones that parse also
// drive the differential tests of Evaluate.
var gaSeeds = []string{
	"GA g: when a then b",
	"GA g: when a && !b then c || d within 100 ms",
	"GA lockout: when failed_logins >= 3 then locked within 100 ms",
	"GA x: when t > 1.5 then u == 0",
	"", "GA", "GA : when a then b", "GA g: when then b",
	"GA g: when A[] a then b", "ga g: when a then b",
	"GA g: when a then b within -5 ms",
}

func FuzzParseGA(f *testing.F) {
	for _, s := range gaSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		ga, err := ParseGA(input)
		if err != nil {
			return
		}
		again, err := ParseGA(ga.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", ga.String(), input, err)
		}
		if again.Within != ga.Within || again.Guard.String() != ga.Guard.String() {
			t.Fatalf("round trip changed the G/A: %q vs %q", ga.String(), again.String())
		}
	})
}

// FuzzEvaluateGA checks Evaluate against the brute-force reference on a
// fuzzed G/A, window and seeded random log.
func FuzzEvaluateGA(f *testing.F) {
	for i, s := range gaSeeds {
		f.Add(s, uint16(i*7), int64(i), uint8(i*5))
	}
	f.Fuzz(func(t *testing.T, line string, within uint16, seed int64, toggles uint8) {
		ga, err := ParseGA(line)
		if err != nil {
			return
		}
		ga.Within = trace.Time(within)
		rng := rand.New(rand.NewSource(seed))
		tr := randomLog(rng, int(toggles%64), trace.Time(1+rng.Intn(500)))
		got, want := Evaluate(tr, ga), referenceEvaluate(tr, ga)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s within %d:\nEvaluate  %+v\nreference %+v\nlog:\n%s", ga, ga.Within, got, want, tr)
		}
	})
}
