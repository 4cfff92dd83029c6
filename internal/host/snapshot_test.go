package host

import (
	"math/rand"
	"strings"
	"testing"
)

func TestSnapshotDiffEmpty(t *testing.T) {
	l := NewUbuntu1804()
	s := l.Snapshot()
	if got := Diff(s, l.Snapshot()); len(got) != 0 {
		t.Errorf("identical snapshots should not differ: %v", got)
	}
	if RenderDiff(nil) != "no changes\n" {
		t.Error("empty render wrong")
	}
}

func TestSnapshotDiffKinds(t *testing.T) {
	l := NewUbuntu1804()
	before := l.Snapshot()

	l.Install("nis", "3.17")                                // package added
	l.Remove("openssh-server")                              // package removed
	l.Install("sudo", "2.0")                                // version change
	l.EnableService("telnet")                               // service appears
	l.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "MD5") // config change
	l.SetConfig("/new", "k", "v")                           // config added
	after := l.Snapshot()

	changes := Diff(before, after)
	byItem := map[string]Change{}
	for _, c := range changes {
		byItem[c.Kind+"/"+c.Item] = c
	}
	if c := byItem["package/nis"]; c.Before != "absent" || c.After != "3.17" {
		t.Errorf("nis change = %+v", c)
	}
	if c := byItem["package/openssh-server"]; c.After != "absent" {
		t.Errorf("openssh-server change = %+v", c)
	}
	if c := byItem["package/sudo"]; c.Before != "1.0" || c.After != "2.0" {
		t.Errorf("sudo change = %+v", c)
	}
	if c := byItem["service/telnet"]; c.Before != "absent" || c.After != "active" {
		t.Errorf("telnet change = %+v", c)
	}
	if c := byItem["config//etc/login.defs:ENCRYPT_METHOD"]; c.Before != "SHA512" || c.After != "MD5" {
		t.Errorf("encrypt change = %+v", c)
	}
	if c := byItem["config//new:k"]; c.After != "v" {
		t.Errorf("new config change = %+v", c)
	}
	if len(changes) != 6 {
		t.Errorf("changes = %d, want 6:\n%s", len(changes), RenderDiff(changes))
	}
}

func TestSnapshotDiffServiceToggle(t *testing.T) {
	l := NewLinux()
	l.EnableService("auditd")
	before := l.Snapshot()
	l.DisableService("auditd")
	changes := Diff(before, l.Snapshot())
	if len(changes) != 1 || changes[0].Before != "active" || changes[0].After != "inactive" {
		t.Errorf("changes = %v", changes)
	}
}

func TestRenderDiffSortedAndCounted(t *testing.T) {
	l := NewUbuntu1804()
	before := l.Snapshot()
	DriftLinux(l, 6, rand.New(rand.NewSource(2)))
	out := RenderDiff(Diff(before, l.Snapshot()))
	if !strings.Contains(out, "changes\n") {
		t.Errorf("render = %q", out)
	}
	// Kinds appear grouped: config before package before service.
	ci, pi := strings.Index(out, "config"), strings.Index(out, "package")
	if ci >= 0 && pi >= 0 && ci > pi {
		t.Error("diff not sorted by kind")
	}
}

func TestSnapshotIsIsolatedCopy(t *testing.T) {
	l := NewUbuntu1804()
	s := l.Snapshot()
	l.Install("nis", "1")
	if _, ok := s.Packages["nis"]; ok {
		t.Error("snapshot must not alias live state")
	}
}

// TestNewLinuxFromSnapshotRoundTrip provisions a host from a reference
// host's snapshot and checks the observable state matches: the bulk path
// must be indistinguishable from per-mutation construction except for
// the single provision event it logs.
func TestNewLinuxFromSnapshotRoundTrip(t *testing.T) {
	ref := NewUbuntu1804()
	ref.Install("nginx", "1.24")
	ref.EnableService("nginx")
	ref.DisableService("telnet")
	ref.SetConfig("/etc/nginx/nginx.conf", "worker_processes", "4")

	got := NewLinuxFromSnapshot(ref.Snapshot())
	if d := Diff(ref.Snapshot(), got.Snapshot()); len(d) != 0 {
		t.Fatalf("provisioned host diverges from reference:\n%s", RenderDiff(d))
	}
	if got.Log().Len() != 1 {
		t.Errorf("bulk provision logged %d events, want 1", got.Log().Len())
	}
	if v := got.Log().Version(); v != 1 {
		t.Errorf("provisioned version = %d, want 1 (cache keys need a nonzero version)", v)
	}
	// The provisioned host stays mutable through the normal logged paths.
	got.Remove("nginx")
	if got.Installed("nginx") {
		t.Error("provisioned host must accept normal mutations")
	}
	if got.Log().Len() != 2 {
		t.Errorf("mutation after provision logged %d events, want 2", got.Log().Len())
	}
}
