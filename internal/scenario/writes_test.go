package scenario

import (
	"fmt"
	"sync"
	"testing"

	"veridevops/internal/host"
	"veridevops/internal/loadgen"
)

// The write-side oracle over both mutation grammars: around every
// scenario mutation verb and every churn kind, each state slot that
// changed on a host must be named by a key that host logged during the
// step. An unkeyed event covers its host whole, which is how the
// streamer treats it. Push evaluation re-runs only the checks of logged
// keys, so a changed slot without one would leave those checks'
// verdicts stale.

// hostState is what the oracle captures of one host around a step:
// its state before the step, and a recorder of the events its log
// delivers during it.
type hostState struct {
	snap host.Snapshot
	down bool
	// stop cancels the recorder's subscription and returns the events
	// it received.
	stop func() []host.Event
}

// recordEvents subscribes to log and returns the function that cancels
// the subscription and returns the events delivered in between.
func recordEvents(log *host.EventLog) (stop func() []host.Event) {
	var (
		mu  sync.Mutex
		evs []host.Event
	)
	cancel := log.Subscribe(func(ev host.Event) {
		mu.Lock()
		defer mu.Unlock()
		evs = append(evs, ev)
	})
	return func() []host.Event {
		cancel()
		mu.Lock()
		defer mu.Unlock()
		return evs
	}
}

// reachable reports whether a probe of the host returns, i.e. the
// value of its connectivity slot.
func reachable(l *host.Linux) (up bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != host.ErrUnreachable {
				panic(r)
			}
			up = false
		}
	}()
	l.Installed("")
	return true
}

func captureFleet(f *loadgen.Fleet) map[string]hostState {
	out := map[string]hostState{}
	for _, h := range f.Hosts() {
		out[h.Name] = hostState{h.Linux.Snapshot(), !reachable(h.Linux), recordEvents(h.Linux.Log())}
	}
	return out
}

// changeKey is the state key of one Diff entry: a config Change's Item
// is "file:key", the name ConfigKey gives the slot.
func changeKey(c host.Change) host.StateKey {
	switch c.Kind {
	case "package":
		return host.PackageKey(c.Item)
	case "service":
		return host.ServiceKey(c.Item)
	}
	return host.StateKey{Kind: host.KeyConfig, Name: c.Item}
}

// unloggedWrites lists, per host present before and after the step, the
// changed slots no event the host logged during the step names. A host
// that joined during the step has no recorder and is skipped: the
// streamer primes a new host with a full run.
func unloggedWrites(before map[string]hostState, f *loadgen.Fleet) []string {
	delivered := make(map[string][]host.Event, len(before))
	for name, was := range before {
		delivered[name] = was.stop()
	}
	var out []string
	for _, h := range f.Hosts() {
		was, ok := before[h.Name]
		if !ok {
			continue
		}
		evs := delivered[h.Name]
		logged, keys, whole := map[host.StateKey]bool{}, []host.StateKey{}, false
		for _, ev := range evs {
			logged[ev.Key] = true
			keys = append(keys, ev.Key)
			whole = whole || ev.Key.IsZero()
		}
		if whole {
			continue
		}
		now := hostState{snap: h.Linux.Snapshot(), down: !reachable(h.Linux)}
		var changed []host.StateKey
		for _, c := range host.Diff(was.snap, now.snap) {
			changed = append(changed, changeKey(c))
		}
		if was.down != now.down {
			changed = append(changed, host.NetKey())
		}
		for _, k := range changed {
			if !logged[k] {
				out = append(out, fmt.Sprintf("%s changed %s without logging it (logged %v)", h.Name, k, keys))
			}
		}
	}
	return out
}

// mutationExecutor is an executor over a small fleet of the fuzz
// topology, enough for mutate to run every verb.
func mutationExecutor(t *testing.T) *executor {
	t.Helper()
	sp := Spec{Name: "writes", Hosts: 8, Seed: 3, Topology: fuzzTopology()}
	f, err := loadgen.Synthesize(*sp.Topology, sp.Hosts, sp.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return newExecutor(sp, Options{}, f)
}

// TestScenarioVerbsLogWhatTheyChange runs every mutation verb of the
// scenario grammar, a mutation of a down host included, and checks the
// changed slots against the logged keys after each step.
func TestScenarioVerbsLogWhatTheyChange(t *testing.T) {
	ex := mutationExecutor(t)
	steps := []Step{
		{Do: "install", On: "#0..3", Package: "telnetd", Version: "0.17"},
		{Do: "install", On: "web#0", Package: "web-pkg-00", Version: "1.2"},
		{Do: "remove", On: "#0..3", Package: "aide"},
		{Do: "enable", On: "#0..5", Service: "auditd"},
		{Do: "disable", On: "#2..6", Service: "web-svc-00"},
		{Do: "flap", On: "*", Service: "web-svc-00"},
		{Do: "config", On: "#1..4", File: "/etc/login.defs", Key: "ENCRYPT_METHOD", Value: "MD5"},
		{Do: "unset-config", On: "*", File: "/etc/web/conf-00", Key: "key-01"},
		{Do: "down", On: "#0..1"},
		{Do: "install", On: "#0", Package: "nis"},
		{Do: "up", On: "#0"},
		{Do: "join"},
		{Do: "join", Class: "db"},
		{Do: "leave", On: "#2"},
		{Do: "churn", Events: 40},
		{Do: "faults", On: "#0..1", FailFirst: 1},
		{Do: "heal", On: "#0..1"},
		{Do: "pipeline", On: "#0..2", Commits: 20, GateRecall: 0.3, Seed: 5},
		{Do: "signal", Signal: "deploy", Num: 1},
	}
	verbs := map[string]bool{}
	for i, st := range steps {
		if err := ex.spec.validateStep(i, st); err != nil {
			t.Fatal(err)
		}
		verbs[st.Do] = true
		before := captureFleet(ex.fleet)
		ex.step(i, st)
		for _, miss := range unloggedWrites(before, ex.fleet) {
			t.Errorf("step %d (%s %s): %s", i, st.Do, st.On, miss)
		}
	}
	if len(verbs) != 16 {
		t.Errorf("exercised %d mutation verbs, want all 16", len(verbs))
	}
}

// TestChurnKindsLogWhatTheyChange draws each churn kind on its own and
// checks the changed slots against the logged keys after every event.
func TestChurnKindsLogWhatTheyChange(t *testing.T) {
	kinds := []struct {
		kind loadgen.EventKind
		mix  loadgen.ChurnMix
	}{
		{loadgen.PackageUpgrade, loadgen.ChurnMix{PackageUpgrade: 1}},
		{loadgen.PackageDowngrade, loadgen.ChurnMix{PackageDowngrade: 1}},
		{loadgen.PackageInstall, loadgen.ChurnMix{PackageInstall: 1}},
		{loadgen.PackageRemove, loadgen.ChurnMix{PackageRemove: 1}},
		{loadgen.ServiceFlap, loadgen.ChurnMix{ServiceFlap: 1}},
		{loadgen.ConfigEdit, loadgen.ChurnMix{ConfigEdit: 1}},
		{loadgen.HostJoin, loadgen.ChurnMix{HostJoin: 1}},
		{loadgen.HostLeave, loadgen.ChurnMix{HostLeave: 1}},
		{loadgen.HostDown, loadgen.ChurnMix{HostDown: 1}},
		// Down events give the up draws something to restore.
		{loadgen.HostUp, loadgen.ChurnMix{HostDown: 1, HostUp: 1}},
	}
	for _, k := range kinds {
		f, err := loadgen.Synthesize(*fuzzTopology(), 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		c := loadgen.NewChurn(f, k.mix, 11)
		for n := 0; n < 30; n++ {
			before := captureFleet(f)
			ev, _ := c.Step()
			for _, miss := range unloggedWrites(before, f) {
				t.Errorf("%s: %s", ev.Kind, miss)
			}
		}
		if c.Applied[k.kind] == 0 {
			t.Errorf("%s: no event applied", k.kind)
		}
	}
}
