package host

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestEventLogVersionAdvancesPerAppend(t *testing.T) {
	l := NewEventLog()
	if v := l.Version(); v != 0 {
		t.Fatalf("fresh log Version = %d, want 0", v)
	}
	for i := 1; i <= 5; i++ {
		l.Append("op", "x")
		if v := l.Version(); v != uint64(i) {
			t.Fatalf("Version after %d appends = %d", i, v)
		}
	}
	if l.Len() != 5 {
		t.Errorf("Len = %d, want 5", l.Len())
	}
}

func TestEventLogVersionMonotonicUnderConcurrency(t *testing.T) {
	l := NewEventLog()
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append("op", "x")
				l.Version()
			}
		}()
	}
	wg.Wait()
	if v := l.Version(); v != writers*per {
		t.Errorf("Version = %d, want %d", v, writers*per)
	}
}

// recordEvents subscribes to l and returns a function that cancels the
// subscription and returns the events appended in between, in the
// order they were delivered.
func recordEvents(l *EventLog) (stop func() []Event) {
	var (
		mu  sync.Mutex
		evs []Event
	)
	cancel := l.Subscribe(func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		evs = append(evs, ev)
	})
	return func() []Event {
		cancel()
		mu.Lock()
		defer mu.Unlock()
		return evs
	}
}

// TestEventLogRaceAppendSinceVersion is the -race regression test for
// concurrent Append/Version/Subscribe: subscribers registered while
// writers append each receive whole events, and one present for the
// whole run receives every Seq exactly once.
func TestEventLogRaceAppendSinceVersion(t *testing.T) {
	l := NewEventLog()
	const writers, per, readers = 4, 100, 4
	all := recordEvents(l)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.AppendKeyed("op", "x", PackageKey("p"))
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = l.Version()
				stop := recordEvents(l)
				for _, ev := range stop() {
					if ev.Action != "op" || ev.Key.Kind != KeyPackage {
						t.Errorf("torn event delivered: %+v", ev)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if v := l.Version(); v != writers*per {
		t.Errorf("Version = %d, want %d", v, writers*per)
	}
	seen := make([]bool, writers*per)
	for _, ev := range all() {
		if ev.Seq < 0 || ev.Seq >= len(seen) || seen[ev.Seq] {
			t.Fatalf("event Seq %d out of range or delivered twice", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Errorf("event Seq %d never delivered", i)
	}
}

func TestEventLogSubscribe(t *testing.T) {
	l := NewEventLog()
	var got []Event
	cancel := l.Subscribe(func(ev Event) { got = append(got, ev) })
	l.AppendKeyed("apt.install", "aide", PackageKey("aide"))
	if len(got) != 1 || got[0].Key != PackageKey("aide") || got[0].Seq != 0 {
		t.Fatalf("subscriber saw %v, want one keyed apt.install event", got)
	}
	// A subscriber may call back into the log (notification runs
	// outside the lock).
	cancel2 := l.Subscribe(func(Event) { _ = l.Version() })
	l.Append("op", "x")
	if len(got) != 2 {
		t.Fatalf("subscriber saw %d events after second append, want 2", len(got))
	}
	cancel()
	cancel() // idempotent
	cancel2()
	l.Append("op", "y")
	if len(got) != 2 {
		t.Errorf("cancelled subscriber still notified: %v", got)
	}
}

// TestEventLogSubscribeCancelDuringAppends races subscriptions coming
// and going against appends (run under -race): a subscriber present for
// the whole run sees every append exactly once, and each transient one
// sees at least the appends it made itself while subscribed.
func TestEventLogSubscribeCancelDuringAppends(t *testing.T) {
	l := NewEventLog()
	var steady atomic.Int64
	l.Subscribe(func(Event) { steady.Add(1) })
	const workers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var seen atomic.Int64
				cancel := l.Subscribe(func(Event) { seen.Add(1) })
				l.Append("op", "x")
				cancel()
				if seen.Load() < 1 {
					t.Error("transient subscriber missed its own append")
				}
			}
		}()
	}
	wg.Wait()
	if got := steady.Load(); got != workers*per {
		t.Errorf("steady subscriber saw %d appends, want %d", got, workers*per)
	}
}

// TestEventLogSubscribersInRegistrationOrder pins the notification
// order: registration order, with a cancelled subscriber leaving no gap
// and a later registration going last.
func TestEventLogSubscribersInRegistrationOrder(t *testing.T) {
	l := NewEventLog()
	var order []string
	sub := func(name string) func() {
		return l.Subscribe(func(Event) { order = append(order, name) })
	}
	sub("a")
	cancelB := sub("b")
	sub("c")
	l.Append("op", "1")
	cancelB()
	sub("d")
	l.Append("op", "2")
	want := []string{"a", "b", "c", "a", "c", "d"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("notification order = %q, want %q", order, want)
	}
}

func TestStateKeyForms(t *testing.T) {
	cases := []struct {
		key  StateKey
		want string
	}{
		{PackageKey("telnetd"), "pkg:telnetd"},
		{ServiceKey("rsh.socket"), "svc:rsh.socket"},
		{ConfigKey("/etc/ssh/sshd_config", "Ciphers"), "cfg:/etc/ssh/sshd_config:Ciphers"},
		{AuditKey("Logon"), "audit:Logon"},
		{RegistryKey(`HKLM\SOFTWARE\Policies\X`), `reg:HKLM\SOFTWARE\Policies\X`},
		{NetKey(), "net:transport"},
	}
	for _, c := range cases {
		if got := c.key.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.key, got, c.want)
		}
		if c.key.IsZero() {
			t.Errorf("%+v.IsZero() = true", c.key)
		}
	}
	if !(StateKey{}).IsZero() {
		t.Error("zero StateKey.IsZero() = false")
	}
	// CompareKeys orders keys as their rendered forms sort.
	keys := []StateKey{wildcard(KeyPackage), wildcard(KeyAudit), PackageKey("a"), ConfigKey("a", "b")}
	for _, c := range cases {
		keys = append(keys, c.key)
	}
	for _, a := range keys {
		for _, b := range keys {
			if got, want := CompareKeys(a, b), strings.Compare(a.String(), b.String()); got != want {
				t.Errorf("CompareKeys(%s, %s) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestMutatorsEmitKeys pins the (action, detail, key) triple every
// mutator logs, on a writable and on a read-only host: the reverse
// dependency index looks up these exact keys, and operators read the
// details. Denied mutations keep the key so push consumers still
// re-verify the slot.
func TestMutatorsEmitKeys(t *testing.T) {
	type logged struct {
		action, detail string
		key            StateKey
	}
	logs := func(log *EventLog, mutate func()) []logged {
		stop := recordEvents(log)
		mutate()
		evs := stop()
		out := make([]logged, len(evs))
		for i, ev := range evs {
			out[i] = logged{ev.Action, ev.Detail, ev.Key}
		}
		return out
	}
	mutate := func(l *Linux) {
		l.Install("aide", "0.16")
		l.Remove("telnetd")
		l.EnableService("auditd")
		l.DisableService("rsh.socket")
		l.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "SHA512")
		l.SetConfig("/etc/app:v2.conf", "mode", "")
		l.UnsetConfig("/etc/login.defs", "ENCRYPT_METHOD")
	}
	writable := []logged{
		{"apt.install", "aide", PackageKey("aide")},
		{"apt.remove", "telnetd", PackageKey("telnetd")},
		{"systemctl.enable", "auditd", ServiceKey("auditd")},
		{"systemctl.disable", "rsh.socket", ServiceKey("rsh.socket")},
		{"config.set", "/etc/login.defs:ENCRYPT_METHOD=SHA512", ConfigKey("/etc/login.defs", "ENCRYPT_METHOD")},
		{"config.set", "/etc/app:v2.conf:mode=", ConfigKey("/etc/app:v2.conf", "mode")},
		{"config.unset", "/etc/login.defs:ENCRYPT_METHOD", ConfigKey("/etc/login.defs", "ENCRYPT_METHOD")},
	}
	l := NewLinux()
	if got := logs(l.Log(), func() { mutate(l) }); !reflect.DeepEqual(got, writable) {
		t.Errorf("writable events =\n%v\nwant\n%v", got, writable)
	}

	var denied []logged
	for _, w := range writable {
		denied = append(denied, logged{w.action + ".denied", w.key.Name, w.key})
	}
	l.SetReadOnly(true)
	if got := logs(l.Log(), func() { mutate(l) }); !reflect.DeepEqual(got, denied) {
		t.Errorf("read-only events =\n%v\nwant\n%v", got, denied)
	}
	// A read-only host still records connectivity flips, and a flip to
	// the state the host is already in records nothing.
	flips := func() {
		l.SetUnreachable(true)
		l.SetUnreachable(true)
		l.SetUnreachable(false)
		l.SetUnreachable(false)
	}
	net := []logged{
		{"net.down", "transport lost", NetKey()},
		{"net.up", "transport restored", NetKey()},
	}
	if got := logs(l.Log(), flips); !reflect.DeepEqual(got, net) {
		t.Errorf("net events =\n%v\nwant\n%v", got, net)
	}

	w := NewWindows10()
	winWrites := func() {
		if err := w.SetAudit("Logon", AuditSetting{Success: true, Failure: true}); err != nil {
			t.Fatal(err)
		}
		if err := w.SetAudit("No Such Subcategory", AuditSetting{}); err == nil {
			t.Error("SetAudit of an unknown subcategory succeeded")
		}
		w.SetRegistry(`HKLM\X`, "1")
	}
	wantWin := []logged{
		{"auditpol.set", "Logon=Success and Failure", AuditKey("Logon")},
		{"reg.set", `HKLM\X=1`, RegistryKey(`HKLM\X`)},
	}
	if got := logs(w.Log(), winWrites); !reflect.DeepEqual(got, wantWin) {
		t.Errorf("windows events =\n%v\nwant\n%v", got, wantWin)
	}
}

func TestSetUnreachableLogsTransitions(t *testing.T) {
	l := NewLinux()
	v0 := l.Log().Version()

	stop := recordEvents(l.Log())
	l.SetUnreachable(true)
	l.SetUnreachable(true) // repeated flip must not re-log
	l.SetUnreachable(false)

	events := stop()
	if len(events) != 2 {
		t.Fatalf("got %d net events, want 2: %v", len(events), events)
	}
	if events[0].Action != "net.down" || events[1].Action != "net.up" {
		t.Errorf("events = %v, want net.down then net.up", events)
	}
	if l.Log().Version() != v0+2 {
		t.Errorf("Version = %d, want %d (one advance per transition)", l.Log().Version(), v0+2)
	}
	// The host must be fully usable after the outage ends.
	l.Install("aide", "1")
	if !l.Installed("aide") {
		t.Error("host unusable after outage cleared")
	}
}
