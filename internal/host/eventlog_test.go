package host

import (
	"sync"
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
	snap, _ := l.Tail(0)
	if len(snap) != 2 {
		t.Fatalf("Tail(0) = %d events, want 2", len(snap))
	}
	// Mutating the snapshot must not leak into the log...
	snap[0].Action = "mutated"
	if again, _ := l.Tail(0); again[0].Action != "a" {
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
				old, _ := l.Tail(cursor / 2)
				for _, ev := range old {
					if ev.Action != "op" || ev.Key.Kind != KeyPackage {
						t.Errorf("torn event read: %+v", ev)
						return
					}
				}
				var evs []Event
				evs, cursor = l.Tail(cursor)
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
	evs, next := l.Tail(0)
	if evs != nil || next != 0 {
		t.Fatalf("Tail(0) on empty log = (%v, %d), want (nil, 0)", evs, next)
	}

	l.Append("a", "1")
	l.Append("b", "2")
	l.Append("c", "3")

	// Tail from 0 returns everything and a cursor at the end.
	evs, next = l.Tail(0)
	if len(evs) != 3 || next != 3 {
		t.Fatalf("Tail(0) = (%d events, %d), want (3, 3)", len(evs), next)
	}
	if evs[0].Seq != 0 || evs[2].Seq != 2 {
		t.Errorf("Tail(0) seqs = %d..%d, want 0..2", evs[0].Seq, evs[2].Seq)
	}

	// Resuming from the returned cursor is empty until a new append.
	evs, next = l.Tail(next)
	if evs != nil || next != 3 {
		t.Fatalf("Tail(end) = (%v, %d), want (nil, 3)", evs, next)
	}
	l.Append("d", "4")
	evs, next = l.Tail(next)
	if len(evs) != 1 || evs[0].Action != "d" || next != 4 {
		t.Fatalf("Tail after append = (%v, %d), want ([d], 4)", evs, next)
	}

	// A cursor past the end must not go backwards or explode.
	evs, next = l.Tail(99)
	if evs != nil || next != 4 {
		t.Errorf("Tail(past end) = (%v, %d), want (nil, 4)", evs, next)
	}
	// A negative cursor reads from the beginning.
	evs, next = l.Tail(-1)
	if len(evs) != 4 || next != 4 {
		t.Errorf("Tail(-1) = (%d events, %d), want (4, 4)", len(evs), next)
	}
}

// TestEventLogSinceBounds pins Tail's clamping of out-of-range cursors:
// an empty log, a negative cursor, a cursor at the end and one past it.
func TestEventLogSinceBounds(t *testing.T) {
	l := NewEventLog()
	if got, _ := l.Tail(0); got != nil {
		t.Errorf("Tail(0) on empty log = %v, want nil", got)
	}
	l.Append("a", "1")
	l.Append("b", "2")
	if got, _ := l.Tail(-3); len(got) != 2 {
		t.Errorf("Tail(-3) = %d events, want 2 (negative clamps to 0)", len(got))
	}
	if got, _ := l.Tail(2); got != nil {
		t.Errorf("Tail(len) = %v, want nil", got)
	}
	if got, _ := l.Tail(99); got != nil {
		t.Errorf("Tail(past end) = %v, want nil", got)
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
}

// TestMutatorsEmitKeys pins the key every mutator attaches to its event:
// the reverse dependency index depends on these exact strings.
func TestMutatorsEmitKeys(t *testing.T) {
	l := NewLinux()
	l.Install("aide", "1")
	l.Remove("telnetd")
	l.EnableService("auditd")
	l.DisableService("rsh.socket")
	l.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "SHA512")
	l.UnsetConfig("/etc/login.defs", "ENCRYPT_METHOD")
	want := []StateKey{
		PackageKey("aide"),
		PackageKey("telnetd"),
		ServiceKey("auditd"),
		ServiceKey("rsh.socket"),
		ConfigKey("/etc/login.defs", "ENCRYPT_METHOD"),
		ConfigKey("/etc/login.defs", "ENCRYPT_METHOD"),
	}
	evs, _ := l.Log().Tail(0)
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(evs), len(want), evs)
	}
	for i, ev := range evs {
		if ev.Key != want[i] {
			t.Errorf("event %d (%s) key = %v, want %v", i, ev.Action, ev.Key, want[i])
		}
	}

	// Denied mutations keep the key so push consumers still re-verify.
	l.SetReadOnly(true)
	l.Install("doas", "1")
	evs, _ = l.Log().Tail(len(want))
	if len(evs) != 1 || evs[0].Action != "apt.install.denied" || evs[0].Key != PackageKey("doas") {
		t.Errorf("denied install event = %v, want keyed apt.install.denied", evs)
	}

	w := NewWindows10()
	base := w.Log().Len()
	if err := w.SetAudit("Logon", AuditSetting{Success: true, Failure: true}); err != nil {
		t.Fatal(err)
	}
	w.SetRegistry(`HKLM\X`, "1")
	wevs, _ := w.Log().Tail(base)
	if len(wevs) != 2 || wevs[0].Key != AuditKey("Logon") || wevs[1].Key != RegistryKey(`HKLM\X`) {
		t.Errorf("windows events = %v, want audit + registry keys", wevs)
	}
}

func TestSetUnreachableLogsTransitions(t *testing.T) {
	l := NewLinux()
	v0 := l.Log().Version()

	l.SetUnreachable(true)
	l.SetUnreachable(true) // repeated flip must not re-log
	l.SetUnreachable(false)

	events, _ := l.Log().Tail(int(v0))
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
