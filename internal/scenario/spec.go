// Package scenario executes declarative timed incident scenarios against
// the fleet stack: a JSON spec describes a synthesized fleet and a list
// of forward-only `{"at": "30s", ...}` steps on the virtual clock — host
// mutations through the keyed simulators (package install/remove,
// service flap, config edits, join/leave, connectivity), engine fault
// injection, pipeline commits — interleaved with `expect` assertions on
// live verdicts, alarm/repair episodes and TEARS guarded assertions over
// the recorded compliance trace. Steps are evaluated by push through a
// fleet.Streamer, and every run ends by checking its final verdicts
// against a fresh full sweep of the final fleet, so a scenario doubles
// as a soundness test of push evaluation.
//
// The format follows the loadgen topology-spec precedent: plain JSON,
// stdlib decoding, unknown fields rejected so a typoed knob fails loudly.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"veridevops/internal/gwt"
	"veridevops/internal/loadgen"
	"veridevops/internal/tears"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("30s", "250ms") so specs read as narratives, not nanosecond counts.
type Duration time.Duration

// D converts to the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string ("30s") or a bare number of
// nanoseconds (the encoding a round-tripped zero produces).
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"30s\": %s", b)
	}
	*d = Duration(n)
	return nil
}

// Step is one timed action: a mutation (Do) or an assertion (Expect),
// exactly one of which must be set. The remaining fields parameterize
// the kind; Validate rejects steps missing their kind's requirements.
type Step struct {
	// At is the virtual instant the step executes. Steps run in At order
	// (stable for equal instants); evaluation ticks due at or before At
	// run first, so a mutation at t is observed by the first tick after t.
	At Duration `json:"at"`
	// Do names a mutation kind: install, remove, enable, disable, flap,
	// config, unset-config, join, leave, down, up, churn, faults, heal,
	// pipeline, signal.
	Do string `json:"do,omitempty"`
	// Expect names an assertion kind: verdict, compliance, alarms,
	// repairs, degraded, ga, gwt.
	Expect string `json:"expect,omitempty"`
	// On selects target hosts: an exact host name, a class name (all its
	// members), "class#i" (the i-th member of the class in name order),
	// "class#i..j" (an inclusive range), "#i" / "#i..j" (fleet-wide name
	// order), or "*" (every member).
	On string `json:"on,omitempty"`

	Package string `json:"package,omitempty"`
	Version string `json:"version,omitempty"`
	Service string `json:"service,omitempty"`
	File    string `json:"file,omitempty"`
	Key     string `json:"key,omitempty"`
	Value   string `json:"value,omitempty"`
	// Class forces the synthesized class of a join step.
	Class string `json:"class,omitempty"`
	// Events is the number of churn events a churn step draws.
	Events int `json:"events,omitempty"`
	// Commits and GateRecall parameterize a pipeline step; escaped
	// violations materialize as banned-package drift on the On hosts.
	Commits    int     `json:"commits,omitempty"`
	GateRecall float64 `json:"gate_recall,omitempty"`
	// Seed overrides the spec seed for this step's random draws
	// (pipeline); 0 derives one from the spec seed and step index.
	Seed int64 `json:"seed,omitempty"`
	// FailFirst is the faults step's injected plan: the first N checks of
	// every requirement on the On hosts return transient INCOMPLETE.
	FailFirst int `json:"fail_first,omitempty"`
	// Signal and Num are the custom trace signal a signal step records.
	Signal string  `json:"signal,omitempty"`
	Num    float64 `json:"num,omitempty"`
	// Finding and Status are a verdict expectation ("pass", "fail",
	// "error", "incomplete"); Op and Num a numeric one ("==", "!=", "<",
	// "<=", ">", ">=" against compliance/alarms/repairs).
	Finding string `json:"finding,omitempty"`
	Status  string `json:"status,omitempty"`
	Op      string `json:"op,omitempty"`
	// GA is a raw TEARS guarded-assertion line; Gherkin a Given-When-Then
	// text bridged into G/As with WithinMS as the response window. Both
	// are deferred to the end of the run and evaluated over the full
	// recorded trace.
	GA       string `json:"ga,omitempty"`
	Gherkin  string `json:"gherkin,omitempty"`
	WithinMS int64  `json:"within_ms,omitempty"`
}

// Kind returns the step's action name regardless of which side it is on.
func (s Step) Kind() string {
	if s.Do != "" {
		return s.Do
	}
	return "expect " + s.Expect
}

// Spec is one declarative timed scenario.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Hosts is the synthesized fleet size; Seed pins synthesis, churn and
	// every other random draw.
	Hosts int   `json:"hosts"`
	Seed  int64 `json:"seed"`
	// Topology overrides the built-in three-tier spec. Corpus scenarios
	// embed small zero-drift topologies so the initial fleet is compliant
	// and every alarm is traceable to a step.
	Topology *loadgen.Topology `json:"topology,omitempty"`
	// Window is the flush cadence; it defaults to 250ms.
	Window Duration `json:"window,omitempty"`
	// Duration is the virtual horizon; 0 extends two windows past the
	// last step so its effects are always observed. With an explicit
	// Duration every do step must land before the last tick.
	Duration Duration `json:"duration,omitempty"`
	Steps    []Step   `json:"steps"`
}

// DefaultCadence is the flush cadence used when a spec sets no Window.
const DefaultCadence = 250 * time.Millisecond

var statusNames = map[string]bool{"pass": true, "fail": true, "error": true, "incomplete": true}

var opNames = map[string]bool{"==": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

// Validate reports the first structural problem with the spec.
func (sp Spec) Validate() error {
	if strings.TrimSpace(sp.Name) == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if sp.Hosts < 1 {
		return fmt.Errorf("scenario %s: hosts %d, need >= 1", sp.Name, sp.Hosts)
	}
	if sp.Topology != nil {
		if err := sp.Topology.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", sp.Name, err)
		}
	}
	if sp.Window < 0 || sp.Duration < 0 {
		return fmt.Errorf("scenario %s: negative cadence or duration", sp.Name)
	}
	if len(sp.Steps) == 0 {
		return fmt.Errorf("scenario %s: no steps", sp.Name)
	}
	prev := Duration(0)
	for i, st := range sp.Steps {
		if err := sp.validateStep(i, st); err != nil {
			return err
		}
		if st.At < prev {
			return fmt.Errorf("scenario %s: step %d at %v before step %d at %v — steps must be time-ordered",
				sp.Name, i, st.At, i-1, prev)
		}
		prev = st.At
	}
	if sp.Duration > 0 {
		// Mutations after the last flush would never be evaluated.
		window := sp.cadence()
		last := sp.Duration.D() / window * window
		for i, st := range sp.Steps {
			if st.Do != "" && st.At.D() >= last {
				return fmt.Errorf("scenario %s: step %d (%s) at %v is not before the last tick at %v (duration %v, window %v)",
					sp.Name, i, st.Kind(), st.At, last, sp.Duration, window)
			}
		}
	}
	return nil
}

func (sp Spec) validateStep(i int, st Step) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %s: step %d (%s): %s", sp.Name, i, st.Kind(), fmt.Sprintf(format, args...))
	}
	if (st.Do == "") == (st.Expect == "") {
		return fmt.Errorf("scenario %s: step %d: exactly one of do/expect must be set", sp.Name, i)
	}
	if st.At < 0 {
		return bad("negative at")
	}
	switch st.Do {
	case "":
	case "install":
		if st.On == "" || st.Package == "" {
			return bad("needs on and package")
		}
	case "remove":
		if st.On == "" || st.Package == "" {
			return bad("needs on and package")
		}
	case "enable", "disable", "flap":
		if st.On == "" || st.Service == "" {
			return bad("needs on and service")
		}
	case "config":
		if st.On == "" || st.File == "" || st.Key == "" {
			return bad("needs on, file and key")
		}
	case "unset-config":
		if st.On == "" || st.File == "" || st.Key == "" {
			return bad("needs on, file and key")
		}
	case "join":
	case "leave", "down", "up":
		if st.On == "" {
			return bad("needs on")
		}
	case "churn":
		if st.Events < 1 {
			return bad("needs events >= 1")
		}
	case "faults":
		if st.On == "" || st.FailFirst < 1 {
			return bad("needs on and fail_first >= 1")
		}
	case "heal":
		if st.On == "" {
			return bad("needs on")
		}
	case "pipeline":
		if st.Commits < 1 {
			return bad("needs commits >= 1")
		}
		if st.GateRecall < 0 || st.GateRecall > 1 {
			return bad("gate_recall %v outside [0,1]", st.GateRecall)
		}
	case "signal":
		if st.Signal == "" {
			return bad("needs signal")
		}
	default:
		return bad("unknown do kind %q", st.Do)
	}
	switch st.Expect {
	case "":
	case "verdict":
		if st.On == "" || st.Finding == "" || !statusNames[st.Status] {
			return bad("needs on, finding and status in {pass, fail, error, incomplete}")
		}
	case "compliance", "alarms", "repairs":
		if !opNames[st.Op] {
			return bad("needs op in {==, !=, <, <=, >, >=}")
		}
	case "degraded":
		if st.On == "" {
			return bad("needs on")
		}
		if st.Value != "" && st.Value != "true" && st.Value != "false" {
			return bad("value must be true or false")
		}
	case "ga":
		if _, err := tears.ParseGA(st.GA); err != nil {
			return bad("%v", err)
		}
	case "gwt":
		scs, err := gwt.ParseScenarios(st.Gherkin)
		if err != nil {
			return bad("%v", err)
		}
		if _, errs := tears.FromScenarios(scs, st.WithinMS); len(errs) > 0 {
			return bad("%v", errs[0])
		}
	default:
		return bad("unknown expect kind %q", st.Expect)
	}
	return nil
}

// Parse decodes and validates one JSON scenario spec.
func Parse(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// cadence resolves the flush period.
func (sp Spec) cadence() time.Duration {
	if sp.Window > 0 {
		return sp.Window.D()
	}
	return DefaultCadence
}

// horizon resolves the virtual end of the run for a cadence.
func (sp Spec) horizon(cadence time.Duration) time.Duration {
	if sp.Duration > 0 {
		return sp.Duration.D()
	}
	last := time.Duration(0)
	for _, st := range sp.Steps {
		if st.At.D() > last {
			last = st.At.D()
		}
	}
	return last + 2*cadence
}
