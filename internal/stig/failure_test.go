package stig

import (
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/host"
	"veridevops/internal/monitor"
)

// Failure injection: a read-only host denies every mutation, so
// enforcement must report FAILURE instead of silently claiming success.

func TestPackageEnforceFailsOnReadOnlyHost(t *testing.T) {
	h := host.NewUbuntu1804()
	h.Install("nis", "1")
	h.SetReadOnly(true)

	req := NewV219157(h)
	if req.Check() != core.CheckFail {
		t.Fatal("precondition: nis installed")
	}
	if got := req.Enforce(); got != core.EnforceFailure {
		t.Errorf("Enforce = %v, want FAILURE on read-only host", got)
	}
	if req.Check() != core.CheckFail {
		t.Error("read-only host must still be non-compliant")
	}
	h.SetReadOnly(false)
	if req.Enforce() != core.EnforceSuccess || req.Check() != core.CheckPass {
		t.Error("enforcement must succeed once the host is writable")
	}
}

func TestConfigEnforceFailsOnReadOnlyHost(t *testing.T) {
	h := host.NewLinux()
	h.SetReadOnly(true)
	req := NewV219177(h)
	if got := req.Enforce(); got != core.EnforceFailure {
		t.Errorf("Enforce = %v, want FAILURE", got)
	}
}

func TestServiceEnforceFailsOnReadOnlyHost(t *testing.T) {
	h := host.NewLinux()
	h.EnableService("telnet")
	h.SetReadOnly(true)
	req := &UbuntuServicePattern{Finding: core.Finding{ID: "EXT-1"}, Host: h, ServiceName: "telnet"}
	if got := req.Enforce(); got != core.EnforceFailure {
		t.Errorf("Enforce = %v, want FAILURE", got)
	}
}

func TestDeniedMutationsAreLogged(t *testing.T) {
	h := host.NewLinux()
	h.SetReadOnly(true)
	before := h.Log().Len()
	h.Install("nis", "1")
	h.Remove("nis")
	h.SetConfig("/f", "k", "v")
	evs, _ := h.Log().Tail(before)
	if len(evs) != 3 {
		t.Fatalf("denied events = %d, want 3", len(evs))
	}
	for _, e := range evs {
		if e.Action != "apt.install.denied" && e.Action != "apt.remove.denied" && e.Action != "config.set.denied" {
			t.Errorf("unexpected action %q", e.Action)
		}
	}
}

func TestCatalogReportsEnforcementFailures(t *testing.T) {
	h := host.NewUbuntu1804()
	cat := UbuntuCatalog(h)
	cat.Run(core.CheckAndEnforce) // harden
	h.Install("nis", "1")
	h.SetReadOnly(true)

	rep := cat.Run(core.CheckAndEnforce)
	if rep.Compliance() == 1 {
		t.Fatal("read-only host cannot be brought compliant")
	}
	found := false
	for _, res := range rep.Results {
		if res.FindingID == "V-219157" {
			if !res.Enforced || res.Enforcement != core.EnforceFailure || res.After != core.CheckFail {
				t.Errorf("V-219157 result = %+v", res)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("V-219157 missing from report")
	}
}

func TestMonitorRecordsFailedRepairs(t *testing.T) {
	h := host.NewUbuntu1804()
	s := monitor.NewScheduler(10)
	s.AutoEnforce = true
	s.WatchEnforceable("V-219157", NewV219157(h))
	s.Run(200, []monitor.TimedAction{
		{At: 40, Do: func() { h.Install("nis", "1"); h.SetReadOnly(true) }},
	})
	alarms := s.Alarms()
	if len(alarms) != 1 {
		t.Fatalf("alarms = %d, want 1 (episode persists)", len(alarms))
	}
	a := alarms[0]
	if !a.Enforced || a.Enforcement != core.EnforceFailure || a.RepairedAt != -1 {
		t.Errorf("alarm = %+v, want failed enforcement with no repair", a)
	}
}

func TestUnreachableHostAuditCompletesAllError(t *testing.T) {
	// Connectivity fault: every probe panics. The engine must recover each
	// panic into an ERROR verdict and the audit must still complete.
	h := host.NewUbuntu1804()
	cat := UbuntuCatalog(h)
	cat.Run(core.CheckAndEnforce) // harden while reachable
	h.SetUnreachable(true)

	rep, st := cat.RunEngine(core.RunOptions{Mode: core.CheckOnly, Workers: 4})
	if len(rep.Results) != len(cat.All()) {
		t.Fatalf("results = %d, want %d (audit must complete)", len(rep.Results), len(cat.All()))
	}
	for _, r := range rep.Results {
		if r.After != core.CheckError {
			t.Errorf("%s = %v, want ERROR while unreachable", r.FindingID, r.After)
		}
	}
	if st.Errors != len(rep.Results) || st.Panics < len(rep.Results) {
		t.Errorf("telemetry = %+v, want every requirement errored via a recovered panic", st)
	}

	h.SetUnreachable(false)
	if c := cat.Run(core.CheckOnly).Compliance(); c != 1 {
		t.Errorf("compliance after reconnect = %v, want 1 (outage must not corrupt state)", c)
	}
}
