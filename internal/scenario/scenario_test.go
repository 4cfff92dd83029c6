package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/host"
	"veridevops/internal/loadgen"
)

func at(msec int) Duration { return Duration(time.Duration(msec) * time.Millisecond) }

// testSpec builds a spec over the small zero-drift fuzz topology so every
// verdict movement is traceable to a step.
func testSpec(name string, hosts int, seed int64, steps []Step) Spec {
	return Spec{
		Name:     name,
		Hosts:    hosts,
		Seed:     seed,
		Topology: fuzzTopology(),
		Window:   at(250),
		Steps:    steps,
	}
}

func TestDurationJSON(t *testing.T) {
	d := at(1500)
	b, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1.5s"` {
		t.Fatalf("marshal: got %s, want %q", b, "1.5s")
	}
	var back Duration
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip: got %v, want %v", back, d)
	}
	if err := back.UnmarshalJSON([]byte(`"not-a-duration"`)); err == nil {
		t.Fatal("bad duration string accepted")
	}
	// A bare number decodes as nanoseconds (round-tripped zero).
	if err := back.UnmarshalJSON([]byte(`250000000`)); err != nil {
		t.Fatal(err)
	}
	if back.D() != 250*time.Millisecond {
		t.Fatalf("numeric decode: got %v", back.D())
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown field", `{"name":"x","hosts":2,"bogus":1,"steps":[{"at":"1s","do":"join"}]}`, "unknown field"},
		{"no name", `{"hosts":2,"steps":[{"at":"1s","do":"join"}]}`, "no name"},
		{"no steps", `{"name":"x","hosts":2}`, "no steps"},
		{"zero hosts", `{"name":"x","hosts":0,"steps":[{"at":"1s","do":"join"}]}`, "hosts 0"},
		{"unordered", `{"name":"x","hosts":2,"steps":[{"at":"2s","do":"join"},{"at":"1s","do":"join"}]}`, "time-ordered"},
		{"do and expect", `{"name":"x","hosts":2,"steps":[{"at":"1s","do":"join","expect":"alarms","op":"=="}]}`, "exactly one"},
		{"neither", `{"name":"x","hosts":2,"steps":[{"at":"1s"}]}`, "exactly one"},
		{"unknown do", `{"name":"x","hosts":2,"steps":[{"at":"1s","do":"reboot"}]}`, "unknown do kind"},
		{"unknown expect", `{"name":"x","hosts":2,"steps":[{"at":"1s","expect":"happiness"}]}`, "unknown expect kind"},
		{"install no package", `{"name":"x","hosts":2,"steps":[{"at":"1s","do":"install","on":"*"}]}`, "needs on and package"},
		{"verdict bad status", `{"name":"x","hosts":2,"steps":[{"at":"1s","expect":"verdict","on":"*","finding":"V-1","status":"meh"}]}`, "status"},
		{"compliance bad op", `{"name":"x","hosts":2,"steps":[{"at":"1s","expect":"compliance","op":"~="}]}`, "op"},
		{"bad ga", `{"name":"x","hosts":2,"steps":[{"at":"1s","expect":"ga","ga":"nonsense"}]}`, "ga"},
		{"bad gherkin", `{"name":"x","hosts":2,"steps":[{"at":"1s","expect":"gwt","gherkin":"Given \nThen x"}]}`, "gwt"},
		{"sweep cadence retired", `{"name":"x","hosts":2,"sweep_every":"100ms","steps":[{"at":"1s","do":"join"}]}`, "unknown field"},
		{"do at duration", `{"name":"x","hosts":2,"duration":"1s","steps":[{"at":"1s","do":"join"}]}`, "last tick"},
		{"do past last tick", `{"name":"x","hosts":2,"duration":"1.1s","window":"250ms","steps":[{"at":"1.05s","do":"join"}]}`, "last tick at 1s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.json))
			if err == nil {
				t.Fatalf("accepted: %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseAcceptsValidSpec(t *testing.T) {
	sp, err := Parse(strings.NewReader(`{
		"name": "ok", "hosts": 3, "seed": 7,
		"window": "100ms", "duration": "1.05s",
		"steps": [
			{"at": "200ms", "do": "config", "on": "#0", "file": "/etc/login.defs", "key": "ENCRYPT_METHOD", "value": "MD5"},
			{"at": "999ms", "do": "signal", "signal": "just before the last tick", "num": 1},
			{"at": "1s", "expect": "compliance", "op": "<", "num": 1}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Window.D() != 100*time.Millisecond || len(sp.Steps) != 3 {
		t.Fatalf("decoded spec wrong: %+v", sp)
	}
	if sp.Steps[0].At.D() != 200*time.Millisecond {
		t.Fatalf("step at: %v", sp.Steps[0].At)
	}
}

func TestResolveSelectors(t *testing.T) {
	f, err := loadgen.Synthesize(*fuzzTopology(), 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	ex := &executor{fleet: f}

	all := ex.resolve("*")
	if len(all) != 8 {
		t.Fatalf("* matched %d hosts", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatal("* not in name order")
		}
	}
	web, db := ex.resolve("web"), ex.resolve("db")
	if len(web)+len(db) != 8 {
		t.Fatalf("class partition %d+%d != 8", len(web), len(db))
	}
	if len(web) == 0 {
		t.Fatal("no web hosts at seed 42")
	}
	if got := ex.resolve("web#0"); len(got) != 1 || got[0].Name != web[0].Name {
		t.Fatalf("web#0: %+v", got)
	}
	if got := ex.resolve("#0..2"); len(got) != 3 || got[0].Name != all[0].Name {
		t.Fatalf("#0..2 matched %d", len(got))
	}
	// Range end clamps to fleet size.
	if got := ex.resolve("#6..99"); len(got) != 2 {
		t.Fatalf("#6..99 matched %d, want 2", len(got))
	}
	if got := ex.resolve(all[3].Name); len(got) != 1 || got[0] != all[3] {
		t.Fatal("exact-name lookup failed")
	}
	for _, bad := range []string{"#99", "ghost", "ghost#0", "#-1", "#x"} {
		if got := ex.resolve(bad); len(got) != 0 {
			t.Fatalf("%q matched %d hosts", bad, len(got))
		}
	}
}

// driftSpec is the canonical incident shape: a config drift lands, is
// detected within a bound, repaired, and the fleet returns to full
// compliance. The gwt step routes through the Gherkin bridge with
// tab-separated keywords, covering the whitespace fix end to end.
func driftSpec() Spec {
	return testSpec("drift", 4, 11, []Step{
		{At: at(200), Do: "signal", Signal: "drift started", Num: 1},
		{At: at(200), Do: "config", On: "#0", File: "/etc/login.defs", Key: "ENCRYPT_METHOD", Value: "MD5"},
		{At: at(1000), Expect: "verdict", On: "#0", Finding: "V-219177", Status: "fail"},
		{At: at(1000), Expect: "alarms", Op: "==", Num: 1},
		{At: at(1000), Expect: "compliance", Op: "<", Num: 1},
		{At: at(1100), Expect: "ga", GA: "GA detect: when drift_started then failing > 0 within 600 ms"},
		{At: at(1100), Expect: "gwt",
			Gherkin:  "Scenario: drift is repaired\n\tGiven\tdrift started\n\tWhen\talarm\n\tThen\trepair",
			WithinMS: 1500},
		{At: at(1200), Do: "config", On: "#0", File: "/etc/login.defs", Key: "ENCRYPT_METHOD", Value: "SHA512"},
		{At: at(2000), Expect: "repairs", Op: "==", Num: 1},
		{At: at(2000), Expect: "compliance", Op: "==", Num: 1},
	})
}

func TestDriftScenario(t *testing.T) {
	res, err := Run(driftSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatal(res.Report())
	}
	if res.Alarms != 1 || res.Repairs != 1 {
		t.Fatalf("alarms=%d repairs=%d, want 1/1", res.Alarms, res.Repairs)
	}
	if res.FinalCompliance != 1 {
		t.Fatalf("final compliance %v", res.FinalCompliance)
	}
	if len(res.FinalState) != 4*8 {
		t.Fatalf("%d verdicts, want 32", len(res.FinalState))
	}
}

// TestDeterminism: identical spec and seed yield byte-identical reports
// and event schedules, and the final view agrees with the reference
// sweep. The spec deliberately mixes churn, membership and connectivity
// mutations. Run with -race in CI to catch nondeterminism from
// unsynchronized sharing.
func TestDeterminism(t *testing.T) {
	sp := testSpec("det", 6, 5, []Step{
		{At: at(100), Do: "signal", Signal: "drift started", Num: 1},
		{At: at(100), Do: "config", On: "web#0", File: "/etc/login.defs", Key: "ENCRYPT_METHOD", Value: "MD5"},
		{At: at(300), Do: "join", Class: "db"},
		{At: at(400), Do: "churn", Events: 5},
		{At: at(600), Do: "flap", On: "web", Service: "web-svc-00"},
		{At: at(800), Do: "down", On: "web#1"},
		{At: at(1000), Do: "up", On: "web#1"},
		{At: at(1200), Do: "config", On: "web#0", File: "/etc/login.defs", Key: "ENCRYPT_METHOD", Value: "SHA512"},
		{At: at(1600), Expect: "compliance", Op: ">", Num: 0},
	})
	a, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() != b.Report() {
		t.Fatalf("reports differ:\n--- a ---\n%s--- b ---\n%s", a.Report(), b.Report())
	}
	if !reflect.DeepEqual(a.Schedule, b.Schedule) {
		t.Fatal("schedules differ")
	}
	if !reflect.DeepEqual(a.FinalState, b.FinalState) {
		t.Fatal("final states differ")
	}
	if msg := a.Failure(); msg != "" {
		t.Fatal(msg)
	}
}

func TestFaultsAndHeal(t *testing.T) {
	sp := testSpec("faults", 3, 9, []Step{
		{At: at(300), Do: "faults", On: "#0", FailFirst: 1},
		{At: at(1000), Expect: "verdict", On: "#0", Finding: "V-219157", Status: "incomplete"},
		{At: at(1000), Expect: "alarms", Op: "==", Num: 8},
		{At: at(1000), Expect: "compliance", Op: "<", Num: 1},
		{At: at(1300), Do: "heal", On: "#0"},
		{At: at(2000), Expect: "repairs", Op: "==", Num: 8},
		{At: at(2000), Expect: "compliance", Op: "==", Num: 1},
	})
	res, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatal(res.Report())
	}
}

// TestVerifyReadsOracle pins the post-run declared-reads oracle: on a
// pristine catalogue the run is clean; on a fleet left with a
// fault-wrapped catalogue (the wrapper drops the KeyReader surface) the
// oracle reports advisory unlocalized findings without failing the run
// — only undeclared reads are fatal.
func TestVerifyReadsOracle(t *testing.T) {
	clean := testSpec("vr-clean", 2, 3, []Step{
		{At: at(100), Do: "config", On: "#0", File: "/etc/login.defs", Key: "ENCRYPT_METHOD", Value: "MD5"},
		{At: at(600), Expect: "compliance", Op: "<", Num: 1},
	})
	res, err := Run(clean, Options{VerifyReads: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatal(res.Report())
	}
	if len(res.ReadViolations) != 0 {
		t.Fatalf("clean fleet reported %v", res.ReadViolations)
	}

	// Each wrapped check is called three times: by the flush after the
	// swap, by the reference sweep and by the oracle. Two failing calls
	// make the flush and the sweep agree on INCOMPLETE; the oracle's
	// call reaches the wrapped check, whose reads it records. With one
	// failing call the sweep would see PASS where the view keeps the
	// transient INCOMPLETE, and the truth check would fail the run.
	faulty := testSpec("vr-faulty", 2, 3, []Step{
		{At: at(300), Do: "faults", On: "#0", FailFirst: 2},
		{At: at(900), Expect: "compliance", Op: "<=", Num: 1},
	})
	res, err = Run(faulty, Options{VerifyReads: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FatalReadViolations != 0 {
		t.Fatalf("fault wrappers must stay advisory:\n%s", res.Report())
	}
	if res.Failed() {
		t.Fatalf("advisory violations failed the run:\n%s", res.Report())
	}
	advisory := false
	for _, v := range res.ReadViolations {
		if strings.Contains(v, "unlocalized") {
			advisory = true
		}
	}
	if !advisory {
		t.Fatalf("fault-wrapped catalogue produced no unlocalized advisory: %v", res.ReadViolations)
	}
}

// hiddenRead checks the password hashing policy but declares a package
// key instead of the config key it reads, so the dependency index never
// re-runs it when that config changes.
type hiddenRead struct {
	core.Finding
	H *host.Linux
}

func (c *hiddenRead) Check() core.CheckStatus {
	v, _ := c.H.Config("/etc/login.defs", "ENCRYPT_METHOD")
	return core.CheckBool(v == "SHA512")
}

func (c *hiddenRead) Enforce() core.EnforcementStatus { return core.EnforceSuccess }

func (c *hiddenRead) CheckStateKeys() []host.StateKey {
	return []host.StateKey{host.PackageKey("sudo")}
}

// TestTruthCheckCatchesUndeclaredRead: with the declared-reads oracle
// off, a check that leaves out a key it reads keeps a stale PASS in the
// final view after that key drifts, and the run's truth check alone
// fails it, naming the host and finding.
func TestTruthCheckCatchesUndeclaredRead(t *testing.T) {
	sp := testSpec("hidden-read", 2, 3, nil)
	f, err := loadgen.Synthesize(*sp.Topology, sp.Hosts, sp.Seed)
	if err != nil {
		t.Fatal(err)
	}
	h := f.Hosts()[0]
	cat := core.NewCatalog()
	cat.MustRegister(&hiddenRead{
		Finding: core.Finding{ID: "LEAK-1", Sev: "high", Desc: "reads the hashing policy it does not declare"},
		H:       h.Linux,
	})
	h.SetCatalog(cat)
	sp.Steps = []Step{
		{At: at(300), Do: "config", On: h.Name, File: "/etc/login.defs", Key: "ENCRYPT_METHOD", Value: "MD5"},
	}

	res, err := newExecutor(sp, Options{}, f).run()
	if err != nil {
		t.Fatal(err)
	}
	want := h.Name + " LEAK-1: view PASS, sweep FAIL"
	if len(res.Divergences) == 0 || res.Divergences[0] != want {
		t.Fatalf("divergences = %q, want first %q", res.Divergences, want)
	}
	if !res.Failed() || len(res.Failures()) != 0 {
		t.Fatalf("the divergence alone must fail the run:\n%s", res.Report())
	}
	if !strings.Contains(res.Report(), want) {
		t.Fatalf("report does not name the divergence:\n%s", res.Report())
	}
}

func TestUnreachableHostDegradation(t *testing.T) {
	sp := testSpec("outage", 3, 21, []Step{
		{At: at(300), Do: "down", On: "#1"},
		// A mutation against the down host is skipped, not fatal.
		{At: at(400), Do: "config", On: "#1", File: "/etc/f", Key: "k", Value: "v"},
		{At: at(1000), Expect: "degraded", On: "#1"},
		{At: at(1000), Expect: "alarms", Op: "==", Num: 8},
		{At: at(1200), Do: "up", On: "#1"},
		{At: at(2000), Expect: "degraded", On: "#1", Value: "false"},
		{At: at(2000), Expect: "repairs", Op: "==", Num: 8},
		{At: at(2000), Expect: "compliance", Op: "==", Num: 1},
	})
	res, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatal(res.Report())
	}
	if !res.Steps[1].Skipped {
		t.Fatalf("mutation on down host not skipped: %+v", res.Steps[1])
	}
	if !strings.Contains(res.Steps[1].Detail, "unreachable") {
		t.Fatalf("skip detail %q", res.Steps[1].Detail)
	}
}

func TestVacuousGAFailsStep(t *testing.T) {
	sp := testSpec("vacuous", 2, 3, []Step{
		{At: at(200), Do: "flap", On: "#0", Service: "web-svc-00"},
		{At: at(500), Expect: "ga", GA: "GA never: when missing_signal then failing > 0 within 100 ms"},
	})
	res, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatalf("vacuous GA passed:\n%s", res.Report())
	}
	if f := res.Failures(); !strings.Contains(f[0].Detail, "VACUOUS") {
		t.Fatalf("failure detail %q", f[0].Detail)
	}
}

func TestReportRendersProvenance(t *testing.T) {
	sp := testSpec("render", 2, 3, []Step{
		{At: at(200), Do: "install", On: "#0", Package: "nis"},
		{At: at(700), Expect: "alarms", Op: "==", Num: 0}, // wrong on purpose
	})
	res, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	for _, want := range []string{"scenario render: FAIL", "install", "FAIL #1", "alarms 1 == 0", "final:"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestShrinkMinimizes verifies the fuzzer's reducer: an impossible
// assertion buried under ten noise mutations shrinks to the single
// failing step.
func TestShrinkMinimizes(t *testing.T) {
	var steps []Step
	for i := 0; i < 10; i++ {
		steps = append(steps, Step{
			At: at(100 * (i + 1)), Do: "config", On: "#0",
			File: "/etc/web/conf-00", Key: "key-00", Value: string(rune('a' + i)),
		})
	}
	steps = append(steps, Step{At: at(1100), Expect: "compliance", Op: ">", Num: 2})
	sp := testSpec("shrinkme", 3, 17, steps)

	pred := func(c Spec) string {
		res, err := Run(c, Options{})
		if err != nil {
			return ""
		}
		if res.Failed() {
			return res.Failures()[0].Detail
		}
		return ""
	}
	if pred(sp) == "" {
		t.Fatal("seed spec does not fail")
	}
	min := Shrink(sp, pred)
	if len(min.Steps) != 1 {
		t.Fatalf("shrunk to %d steps, want 1: %+v", len(min.Steps), min.Steps)
	}
	if min.Steps[0].Expect != "compliance" {
		t.Fatalf("wrong surviving step: %+v", min.Steps[0])
	}
	if min.Steps[0].At != at(1100) {
		t.Fatalf("surviving step lost its instant: %v", min.Steps[0].At)
	}
}

func TestFuzzSmoke(t *testing.T) {
	fr := Fuzz(10, 1, Options{})
	if fr.Failed() {
		t.Fatalf("fuzz divergence:\n%s", fr)
	}
	if fr.Iterations != 10 {
		t.Fatalf("iterations %d", fr.Iterations)
	}
}
