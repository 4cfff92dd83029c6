package host

import (
	"context"
	"math/rand"
	"strings"
	"testing"
)

func TestLinuxPackageLifecycle(t *testing.T) {
	l := NewLinux()
	if l.Installed("nis") {
		t.Error("fresh host should not have nis")
	}
	l.Install("nis", "3.17")
	if !l.Installed("nis") {
		t.Error("nis should be installed")
	}
	l.Remove("nis")
	if l.Installed("nis") {
		t.Error("nis should be removed")
	}
	l.Remove("ghost") // no-op, must not panic
}

func TestLinuxPackagesSorted(t *testing.T) {
	l := NewLinux()
	l.Install("zsh", "1")
	l.Install("aide", "1")
	l.Install("mid", "1")
	l.Remove("mid")
	got := l.Packages()
	if len(got) != 2 || got[0] != "aide" || got[1] != "zsh" {
		t.Errorf("Packages = %v", got)
	}
}

func TestLinuxServices(t *testing.T) {
	l := NewLinux()
	if l.ServiceActive("sshd") {
		t.Error("unknown service should be inactive")
	}
	l.EnableService("sshd")
	if !l.ServiceActive("sshd") {
		t.Error("enabled service should be active")
	}
	l.DisableService("sshd")
	if l.ServiceActive("sshd") {
		t.Error("disabled service should be inactive")
	}
}

func TestLinuxConfig(t *testing.T) {
	l := NewLinux()
	if _, ok := l.Config("/etc/login.defs", "ENCRYPT_METHOD"); ok {
		t.Error("unset key should not be found")
	}
	l.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "SHA512")
	v, ok := l.Config("/etc/login.defs", "ENCRYPT_METHOD")
	if !ok || v != "SHA512" {
		t.Errorf("Config = %q,%v", v, ok)
	}
	l.UnsetConfig("/etc/login.defs", "ENCRYPT_METHOD")
	if _, ok := l.Config("/etc/login.defs", "ENCRYPT_METHOD"); ok {
		t.Error("unset key should be gone")
	}
	l.UnsetConfig("/missing", "key") // must not panic
}

func TestUbuntu1804Baseline(t *testing.T) {
	l := NewUbuntu1804()
	if !l.Installed("openssh-server") {
		t.Error("baseline should include openssh-server")
	}
	for _, banned := range BannedPackages {
		if l.Installed(banned) {
			t.Errorf("baseline should not include %s", banned)
		}
	}
	if v, _ := l.Config("/etc/login.defs", "ENCRYPT_METHOD"); v != "SHA512" {
		t.Errorf("ENCRYPT_METHOD = %q, want SHA512", v)
	}
}

func TestEventLog(t *testing.T) {
	l := NewEventLog()
	if l.Len() != 0 {
		t.Fatal("fresh log should be empty")
	}
	s1 := l.Append("a", "1")
	s2 := l.Append("b", "2")
	if s1 != 0 || s2 != 1 {
		t.Errorf("sequence numbers %d,%d", s1, s2)
	}
	evs, _ := l.Tail(1)
	if len(evs) != 1 || evs[0].Action != "b" {
		t.Errorf("Tail(1) = %v", evs)
	}
	if got, _ := l.Tail(99); got != nil {
		t.Error("Tail past end should be nil")
	}
	if got, _ := l.Tail(-5); len(got) != 2 {
		t.Errorf("Tail(-5) = %v", got)
	}
	if !strings.Contains(evs[0].String(), "b 2") {
		t.Errorf("Event.String = %q", evs[0].String())
	}
}

func TestLinuxActionsAreLogged(t *testing.T) {
	l := NewLinux()
	l.Install("nis", "1")
	l.Remove("nis")
	l.SetConfig("/f", "k", "v")
	if l.Log().Len() != 3 {
		t.Errorf("log has %d events, want 3", l.Log().Len())
	}
}

func TestWindowsAuditDefaults(t *testing.T) {
	w := NewWindows10()
	s, err := w.GetAudit("Logon")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Success || s.Failure {
		t.Errorf("default Logon = %v, want Success only", s)
	}
	s, err = w.GetAudit("Sensitive Privilege Use")
	if err != nil || s.Success || s.Failure {
		t.Errorf("default Sensitive Privilege Use = %v, want No Auditing", s)
	}
	if _, err := w.GetAudit("Ghost"); err == nil {
		t.Error("unknown subcategory must error")
	}
}

func TestWindowsCategoryTaxonomy(t *testing.T) {
	w := NewWindows10()
	c, err := w.Category("User Account Management")
	if err != nil || c != "Account Management" {
		t.Errorf("Category = %q, %v", c, err)
	}
	if _, err := w.Category("Ghost"); err == nil {
		t.Error("unknown subcategory must error")
	}
	subs := w.Subcategories()
	if len(subs) != 8 {
		t.Errorf("Subcategories = %d entries, want 8", len(subs))
	}
}

func TestWindowsSetAudit(t *testing.T) {
	w := NewWindows10()
	if err := w.SetAudit("Logon", AuditSetting{Success: true, Failure: true}); err != nil {
		t.Fatal(err)
	}
	s, _ := w.GetAudit("Logon")
	if !s.Success || !s.Failure {
		t.Errorf("after set: %v", s)
	}
	if err := w.SetAudit("Ghost", AuditSetting{}); err == nil {
		t.Error("unknown subcategory must error")
	}
}

func TestAuditSettingString(t *testing.T) {
	cases := map[string]AuditSetting{
		"No Auditing":         {},
		"Success":             {Success: true},
		"Failure":             {Failure: true},
		"Success and Failure": {Success: true, Failure: true},
	}
	for want, s := range cases {
		if s.String() != want {
			t.Errorf("%+v prints %q, want %q", s, s.String(), want)
		}
	}
}

func TestWindowsRegistry(t *testing.T) {
	w := NewWindows10()
	if _, ok := w.Registry(`HKLM\X`); ok {
		t.Error("unset key found")
	}
	w.SetRegistry(`HKLM\X`, "1")
	if v, ok := w.Registry(`HKLM\X`); !ok || v != "1" {
		t.Errorf("Registry = %q,%v", v, ok)
	}
}

func TestAuditPolTextInterface(t *testing.T) {
	w := NewWindows10()
	ap := AuditPol{W: w}

	out, err := ap.Run("/get", `/subcategory:"Logon"`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Logon/Logoff") || !strings.Contains(out, "Logon") {
		t.Errorf("get output missing category/subcategory:\n%s", out)
	}
	s, err := ParseSetting(out, "Logon")
	if err != nil || !s.Success || s.Failure {
		t.Errorf("ParseSetting = %v, %v", s, err)
	}

	if _, err := ap.Run("/set", `/subcategory:"Logon"`, "/success:enable", "/failure:enable"); err != nil {
		t.Fatal(err)
	}
	out, _ = ap.Run("/get", `/subcategory:"Logon"`)
	s, err = ParseSetting(out, "Logon")
	if err != nil || !s.Success || !s.Failure {
		t.Errorf("after set: %v, %v", s, err)
	}
}

func TestAuditPolErrors(t *testing.T) {
	ap := AuditPol{W: NewWindows10()}
	if _, err := ap.Run(); err == nil {
		t.Error("missing verb must error")
	}
	if _, err := ap.Run("/frob"); err == nil {
		t.Error("unknown verb must error")
	}
	if _, err := ap.Run("/get"); err == nil {
		t.Error("missing subcategory must error")
	}
	if _, err := ap.Run("/get", `/subcategory:"Ghost"`); err == nil {
		t.Error("unknown subcategory must error")
	}
	if _, err := ap.Run("/set", `/subcategory:"Ghost"`, "/success:enable"); err == nil {
		t.Error("set on unknown subcategory must error")
	}
	if _, err := ParseSetting("garbage", "Logon"); err == nil {
		t.Error("ParseSetting on garbage must error")
	}
}

func TestParseSettingAllForms(t *testing.T) {
	w := NewWindows10()
	ap := AuditPol{W: w}
	forms := []AuditSetting{
		{},
		{Success: true},
		{Failure: true},
		{Success: true, Failure: true},
	}
	for _, want := range forms {
		if err := w.SetAudit("Logoff", want); err != nil {
			t.Fatal(err)
		}
		out, err := ap.Run("/get", `/subcategory:"Logoff"`)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseSetting(out, "Logoff")
		if err != nil || got != want {
			t.Errorf("round-trip %v -> %v (%v)", want, got, err)
		}
	}
}

func TestDriftLinuxBreaksCompliance(t *testing.T) {
	l := NewUbuntu1804()
	rng := rand.New(rand.NewSource(5))
	DriftLinux(l, 10, rng)
	broken := false
	for _, b := range BannedPackages {
		if l.Installed(b) {
			broken = true
		}
	}
	for _, r := range RequiredPackages {
		if !l.Installed(r) {
			broken = true
		}
	}
	if v, _ := l.Config("/etc/login.defs", "ENCRYPT_METHOD"); v != "SHA512" {
		broken = true
	}
	if !broken {
		t.Error("10 drift operations should break something")
	}
}

func TestDriftWindowsDisablesAuditing(t *testing.T) {
	w := NewWindows10()
	// Turn everything on first.
	for _, sub := range w.Subcategories() {
		if err := w.SetAudit(sub, AuditSetting{Success: true, Failure: true}); err != nil {
			t.Fatal(err)
		}
	}
	DriftWindows(w, 5, rand.New(rand.NewSource(7)))
	off := 0
	for _, sub := range w.Subcategories() {
		s, _ := w.GetAudit(sub)
		if !s.Success && !s.Failure {
			off++
		}
	}
	if off == 0 {
		t.Error("drift should have disabled some subcategory")
	}
}

func TestUnreachableHostPanicsAndRecovers(t *testing.T) {
	h := NewUbuntu1804()
	h.SetUnreachable(true)
	trap := func(f func()) (v interface{}) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	if got := trap(func() { h.Installed("sudo") }); got != ErrUnreachable {
		t.Errorf("probe panic = %v, want ErrUnreachable", got)
	}
	if got := trap(func() { h.Install("nis", "1") }); got != ErrUnreachable {
		t.Errorf("mutation panic = %v, want ErrUnreachable", got)
	}
	if got := trap(func() { h.Config("/etc/login.defs", "ENCRYPT_METHOD") }); got != ErrUnreachable {
		t.Errorf("config probe panic = %v, want ErrUnreachable", got)
	}
	h.SetUnreachable(false)
	if !h.Installed("sudo") {
		t.Error("host state must survive the outage")
	}
}

func TestCtxProbesPanicOnCanceledContext(t *testing.T) {
	l := NewUbuntu1804()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, probe := range map[string]func(){
		"InstalledCtx":     func() { l.InstalledCtx(ctx, "sudo") },
		"ConfigCtx":        func() { l.ConfigCtx(ctx, "/etc/login.defs", "ENCRYPT_METHOD") },
		"ServiceActiveCtx": func() { l.ServiceActiveCtx(ctx, "sshd") },
	} {
		func() {
			defer func() {
				if r := recover(); r != ErrCanceled {
					t.Errorf("%s: recovered %v, want ErrCanceled", name, r)
				}
			}()
			probe()
			t.Errorf("%s: canceled probe did not panic", name)
		}()
	}
	// The unwind left the host lock released and the host usable.
	if !l.Installed("sudo") {
		t.Error("host unusable after canceled probe")
	}
}

func TestCtxProbesPassThroughLiveContext(t *testing.T) {
	l := NewUbuntu1804()
	if !l.InstalledCtx(context.Background(), "sudo") {
		t.Error("live-context probe diverges from Installed")
	}
	if v, ok := l.ConfigCtx(context.Background(), "/etc/login.defs", "ENCRYPT_METHOD"); !ok || v != "SHA512" {
		t.Errorf("ConfigCtx = %q,%t", v, ok)
	}
	// nil context degrades to the plain probe.
	if !l.InstalledCtx(nil, "sudo") {
		t.Error("nil-context probe diverges from Installed")
	}
}

func TestCtxProbeUnreachableStillPanicsUnreachable(t *testing.T) {
	l := NewUbuntu1804()
	l.SetUnreachable(true)
	defer func() {
		if r := recover(); r != ErrUnreachable {
			t.Errorf("recovered %v, want ErrUnreachable", r)
		}
	}()
	l.InstalledCtx(context.Background(), "sudo")
	t.Error("unreachable probe did not panic")
}
