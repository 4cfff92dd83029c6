package host

import (
	"reflect"
	"testing"
)

func TestReadRecorderCapturesLinuxReads(t *testing.T) {
	l := NewUbuntu1804()
	rec := NewReadRecorder()
	l.SetRecorder(rec)

	l.Installed("sudo")
	l.Installed("sudo")
	l.Version("apt")
	l.ServiceActive("sshd")
	l.Config("/etc/login.defs", "ENCRYPT_METHOD")
	l.Packages()

	want := []StateKey{
		ConfigKey("/etc/login.defs", "ENCRYPT_METHOD"),
		wildcard(KeyPackage),
		PackageKey("apt"),
		PackageKey("sudo"),
		ServiceKey("sshd"),
	}
	if got := rec.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recorded keys = %v, want %v", got, want)
	}
	rec.Reset()
	if got := rec.Keys(); len(got) != 0 {
		t.Fatalf("keys after Reset = %v, want empty", got)
	}
	// Detached recorder: further reads do not record.
	l.SetRecorder(nil)
	l.Installed("sudo")
	if got := rec.Keys(); len(got) != 0 {
		t.Fatalf("detached recorder captured %v", got)
	}
}

func TestReadRecorderCapturesWindowsReads(t *testing.T) {
	w := NewWindows10()
	rec := NewReadRecorder()
	w.SetRecorder(rec)

	if _, err := w.GetAudit("Logon"); err != nil {
		t.Fatalf("GetAudit: %v", err)
	}
	w.Registry(`HKLM\Software\Policies\X`)
	w.Subcategories()
	// The auditpol text interface routes through GetAudit, so forked
	// /get invocations record too.
	ap := AuditPol{W: w}
	if _, err := ap.Run("/get", `/subcategory:"Account Lockout"`); err != nil {
		t.Fatalf("auditpol /get: %v", err)
	}

	want := []StateKey{
		wildcard(KeyAudit),
		AuditKey("Account Lockout"),
		AuditKey("Logon"),
		RegistryKey(`HKLM\Software\Policies\X`),
	}
	if got := rec.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recorded keys = %v, want %v", got, want)
	}
}

func TestReadRecorderUnreachableRecordsNothing(t *testing.T) {
	l := NewUbuntu1804()
	rec := NewReadRecorder()
	l.SetRecorder(rec)
	l.SetUnreachable(true)
	func() {
		defer func() {
			if r := recover(); r != ErrUnreachable {
				t.Fatalf("recovered %v, want ErrUnreachable", r)
			}
		}()
		l.Installed("sudo")
	}()
	if got := rec.Keys(); len(got) != 0 {
		t.Fatalf("unreachable probe recorded %v, want nothing", got)
	}
}

// TestReadAllocsPerKey pins that a read of a host without a recorder
// allocates nothing. A configuration read builds its ConfigKey only for
// an attached recorder, so a name longer than the runtime's 32-byte
// stack buffer (sshd_config:PermitEmptyPasswords) costs nothing either.
// A recorder that kept the caller's key strings would make them escape,
// and reads would allocate.
func TestReadAllocsPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	l := NewUbuntu1804()
	for name, read := range map[string]func(){
		"Installed":     func() { l.Installed("sudo") },
		"ServiceActive": func() { l.ServiceActive("sshd") },
		"Config":        func() { l.Config("/etc/login.defs", "ENCRYPT_METHOD") },
		"Config long":   func() { l.Config("/etc/ssh/sshd_config", "PermitEmptyPasswords") },
	} {
		if got := testing.AllocsPerRun(100, read); got != 0 {
			t.Errorf("%s allocates %.0f times per read, want 0", name, got)
		}
	}
}
