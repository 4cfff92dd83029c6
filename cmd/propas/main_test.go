package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"veridevops/internal/automata"
)

func runCapture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFormulaMode(t *testing.T) {
	code, out, _ := runCapture(t, "-formula", "req -->[<=20] ack")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"formula:", "req -->[<=20] ack", "desugared:", "A[]", "signals:", "ack req"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormulaParseError(t *testing.T) {
	code, _, errb := runCapture(t, "-formula", "((")
	if code != 2 || !strings.Contains(errb, "propas:") {
		t.Errorf("code=%d stderr=%q", code, errb)
	}
}

func TestSentenceMode(t *testing.T) {
	cases := []struct {
		sentence string
		want     []string
	}{
		{"Globally, it is always the case that if intrusion holds, then alarm eventually holds within 50 time units.", []string{
			"template:  global-response-timed",
			"pattern:   response/globally",
			"formula:   intrusion -->[<=50] alarm",
			"observer:  obs_response_intrusion_alarm",
		}},
		// A bounded invariant keeps its bound, and no unbounded observer
		// is offered for it.
		{"It is always the case that p holds during the first 50 time units.", []string{
			"template:  global-universality-timed",
			"pattern:   universality/globally",
			"formula:   !(E<>[<=50] !p)",
			"observer:  (not reachability-checkable: automata: bounded universality",
		}},
	}
	for _, c := range cases {
		code, out, _ := runCapture(t, "-sentence", c.sentence)
		if code != 0 {
			t.Fatalf("exit = %d\n%s", code, out)
		}
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
	}
	if code, _, _ := runCapture(t, "-sentence", "gibberish"); code != 2 {
		t.Error("unparseable sentence should exit 2")
	}
}

func TestPatternHolds(t *testing.T) {
	// latency a->c is 2*10=20 on the 4-ring; deadline 20 holds.
	code, out, _ := runCapture(t, "-pattern", "response", "-p", "a", "-s", "c", "-d", "20", "-plant", "4", "-period", "10")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "A[] !err = true") {
		t.Errorf("output:\n%s", out)
	}
}

func TestPatternViolated(t *testing.T) {
	code, out, _ := runCapture(t, "-pattern", "response", "-p", "a", "-s", "c", "-d", "19", "-plant", "4", "-period", "10")
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "witness:") {
		t.Errorf("violation without witness:\n%s", out)
	}
}

func TestPatternDiscreteAblation(t *testing.T) {
	code, out, _ := runCapture(t, "-pattern", "response", "-p", "a", "-s", "c", "-d", "20", "-plant", "4", "-discrete")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "A[] !err = true") {
		t.Errorf("output:\n%s", out)
	}
}

func TestModelMode(t *testing.T) {
	plant := automata.CyclicPlant("plant", 3, []string{"a", "b", "c"}, 5)
	net := automata.MustNetwork(plant, automata.AbsenceObserver("zz"))
	p := filepath.Join(t.TempDir(), "net.json")
	f, err := os.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	code, out, _ := runCapture(t, "-model", p)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "A[] !err = true") {
		t.Errorf("output:\n%s", out)
	}
}

func TestUppaalExport(t *testing.T) {
	xml := filepath.Join(t.TempDir(), "out.xml")
	code, out, _ := runCapture(t, "-pattern", "response", "-p", "a", "-s", "c", "-d", "20", "-plant", "4", "-uppaal", xml)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	data, err := os.ReadFile(xml)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<nta>") {
		t.Error("uppaal export missing <nta>")
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCapture(t); code != 2 {
		t.Error("no mode should exit 2")
	}
	if code, _, _ := runCapture(t, "-pattern", "bogus"); code != 2 {
		t.Error("unknown pattern should exit 2")
	}
	if code, _, _ := runCapture(t, "-model", "/nonexistent.json"); code != 2 {
		t.Error("unreadable model should exit 2")
	}
}
