package host

import (
	"reflect"
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

// TestEventLogTailSnapshotImmutable pins the copy semantics of Tail:
// the returned slice must never alias the log's internal storage, so a
// consumer iterating a snapshot while appends continue (the streamer's
// whole life) reads stable values.
func TestEventLogTailSnapshotImmutable(t *testing.T) {
	l := NewEventLog()
	l.Append("a", "1")
	l.Append("b", "2")
	snap, _ := l.Tail(0, nil)
	if len(snap) != 2 {
		t.Fatalf("Tail(0) = %d events, want 2", len(snap))
	}
	// Mutating the snapshot must not leak into the log...
	snap[0].Action = "mutated"
	if again, _ := l.Tail(0, nil); again[0].Action != "a" {
		t.Errorf("log event mutated through snapshot: Action = %q, want %q", again[0].Action, "a")
	}
	// ...and appends after the snapshot must not grow or change it.
	l.Append("c", "3")
	if len(snap) != 2 || snap[1].Action != "b" {
		t.Errorf("snapshot changed by later append: %v", snap)
	}
}

// TestEventLogRaceAppendSinceVersion is the -race regression test for
// concurrent Append/Version/Tail: it proves snapshots taken while writers
// append never observe torn events or alias live storage.
func TestEventLogRaceAppendSinceVersion(t *testing.T) {
	l := NewEventLog()
	const writers, per, readers = 4, 100, 4
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
			cursor := 0
			for i := 0; i < per; i++ {
				_ = l.Version()
				old, _ := l.Tail(cursor/2, nil)
				for _, ev := range old {
					if ev.Action != "op" || ev.Key.Kind != KeyPackage {
						t.Errorf("torn event read: %+v", ev)
						return
					}
				}
				var evs []Event
				evs, cursor = l.Tail(cursor, nil)
				for _, ev := range evs {
					// Mutate the snapshot: under -race this catches any
					// aliasing of the log's backing array by a writer.
					ev.Detail = "scribbled"
					_ = ev
				}
			}
		}()
	}
	wg.Wait()
	if v := l.Version(); v != writers*per {
		t.Errorf("Version = %d, want %d", v, writers*per)
	}
}

func TestEventLogTailCursor(t *testing.T) {
	l := NewEventLog()

	// Tail on an empty log: no events, cursor stays at 0.
	evs, next := l.Tail(0, nil)
	if evs != nil || next != 0 {
		t.Fatalf("Tail(0) on empty log = (%v, %d), want (nil, 0)", evs, next)
	}

	l.Append("a", "1")
	l.Append("b", "2")
	l.Append("c", "3")

	// Tail from 0 returns everything and a cursor at the end.
	evs, next = l.Tail(0, nil)
	if len(evs) != 3 || next != 3 {
		t.Fatalf("Tail(0) = (%d events, %d), want (3, 3)", len(evs), next)
	}
	if evs[0].Seq != 0 || evs[2].Seq != 2 {
		t.Errorf("Tail(0) seqs = %d..%d, want 0..2", evs[0].Seq, evs[2].Seq)
	}

	// Resuming from the returned cursor is empty until a new append.
	evs, next = l.Tail(next, nil)
	if evs != nil || next != 3 {
		t.Fatalf("Tail(end) = (%v, %d), want (nil, 3)", evs, next)
	}
	l.Append("d", "4")
	evs, next = l.Tail(next, nil)
	if len(evs) != 1 || evs[0].Action != "d" || next != 4 {
		t.Fatalf("Tail after append = (%v, %d), want ([d], 4)", evs, next)
	}

	// A cursor past the end must not go backwards or explode.
	evs, next = l.Tail(99, nil)
	if evs != nil || next != 4 {
		t.Errorf("Tail(past end) = (%v, %d), want (nil, 4)", evs, next)
	}
	// A negative cursor reads from the beginning.
	evs, next = l.Tail(-1, nil)
	if len(evs) != 4 || next != 4 {
		t.Errorf("Tail(-1) = (%d events, %d), want (4, 4)", len(evs), next)
	}
}

// TestEventLogSinceBounds pins Tail's clamping of out-of-range cursors:
// an empty log, a negative cursor, a cursor at the end and one past it.
func TestEventLogSinceBounds(t *testing.T) {
	l := NewEventLog()
	if got, _ := l.Tail(0, nil); got != nil {
		t.Errorf("Tail(0) on empty log = %v, want nil", got)
	}
	l.Append("a", "1")
	l.Append("b", "2")
	if got, _ := l.Tail(-3, nil); len(got) != 2 {
		t.Errorf("Tail(-3) = %d events, want 2 (negative clamps to 0)", len(got))
	}
	if got, _ := l.Tail(2, nil); got != nil {
		t.Errorf("Tail(len) = %v, want nil", got)
	}
	if got, _ := l.Tail(99, nil); got != nil {
		t.Errorf("Tail(past end) = %v, want nil", got)
	}
}

// TestEventLogTailAppendsToBuffer pins the caller-buffer contract: Tail
// appends after whatever the buffer holds, a buffer truncated to [:0]
// with room left is reused without reallocation, and a read with
// nothing new hands the buffer back unchanged.
func TestEventLogTailAppendsToBuffer(t *testing.T) {
	l := NewEventLog()
	l.Append("a", "1")
	l.Append("b", "2")
	buf := make([]Event, 1, 8)
	buf[0].Action = "kept"
	got, next := l.Tail(1, buf)
	if next != 2 || len(got) != 2 || got[0].Action != "kept" || got[1].Action != "b" {
		t.Fatalf("Tail(1, [kept]) = (%v, %d), want ([kept b], 2)", got, next)
	}
	if &got[0] != &buf[0] {
		t.Error("Tail reallocated a buffer with room left")
	}
	again, next := l.Tail(next, got[:0])
	if next != 2 || len(again) != 0 || cap(again) != cap(buf) {
		t.Errorf("Tail(end, buf[:0]) = (%v, %d) with cap %d, want the empty buffer back", again, next, cap(again))
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
	tail := func(log *EventLog, from int) []logged {
		evs, _ := log.Tail(from, nil)
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
	mutate(l)
	if got := tail(l.Log(), 0); !reflect.DeepEqual(got, writable) {
		t.Errorf("writable events =\n%v\nwant\n%v", got, writable)
	}

	var denied []logged
	for _, w := range writable {
		denied = append(denied, logged{w.action + ".denied", w.key.Name, w.key})
	}
	l.SetReadOnly(true)
	base := l.Log().Len()
	mutate(l)
	if got := tail(l.Log(), base); !reflect.DeepEqual(got, denied) {
		t.Errorf("read-only events =\n%v\nwant\n%v", got, denied)
	}
	// A read-only host still records connectivity flips, and a flip to
	// the state the host is already in records nothing.
	base = l.Log().Len()
	l.SetUnreachable(true)
	l.SetUnreachable(true)
	l.SetUnreachable(false)
	l.SetUnreachable(false)
	net := []logged{
		{"net.down", "transport lost", NetKey()},
		{"net.up", "transport restored", NetKey()},
	}
	if got := tail(l.Log(), base); !reflect.DeepEqual(got, net) {
		t.Errorf("net events =\n%v\nwant\n%v", got, net)
	}

	w := NewWindows10()
	base = w.Log().Len()
	if err := w.SetAudit("Logon", AuditSetting{Success: true, Failure: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.SetAudit("No Such Subcategory", AuditSetting{}); err == nil {
		t.Error("SetAudit of an unknown subcategory succeeded")
	}
	w.SetRegistry(`HKLM\X`, "1")
	wantWin := []logged{
		{"auditpol.set", "Logon=Success and Failure", AuditKey("Logon")},
		{"reg.set", `HKLM\X=1`, RegistryKey(`HKLM\X`)},
	}
	if got := tail(w.Log(), base); !reflect.DeepEqual(got, wantWin) {
		t.Errorf("windows events =\n%v\nwant\n%v", got, wantWin)
	}
}

func TestSetUnreachableLogsTransitions(t *testing.T) {
	l := NewLinux()
	v0 := l.Log().Version()

	l.SetUnreachable(true)
	l.SetUnreachable(true) // repeated flip must not re-log
	l.SetUnreachable(false)

	events, _ := l.Log().Tail(int(v0), nil)
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
