package stig

import (
	"strings"
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

func TestUbuntuServicePatternBanned(t *testing.T) {
	h := host.NewLinux()
	h.EnableService("telnet")
	req := &UbuntuServicePattern{
		Finding:     &core.Finding{ID: "EXT-SVC-1", Sev: "high"},
		Host:        h,
		ServiceName: "telnet",
	}
	if req.Check() != core.CheckFail {
		t.Error("active banned service should FAIL")
	}
	if req.Enforce() != core.EnforceSuccess {
		t.Error("enforce should succeed")
	}
	if req.Check() != core.CheckPass {
		t.Error("disabled service should PASS")
	}
	if !strings.Contains(req.String(), "must be disabled") {
		t.Errorf("String = %q", req.String())
	}
}

func TestUbuntuServicePatternRequired(t *testing.T) {
	h := host.NewLinux()
	req := &UbuntuServicePattern{
		Finding:      &core.Finding{ID: "EXT-SVC-2"},
		Host:         h,
		ServiceName:  "auditd",
		MustBeActive: true,
	}
	if req.Check() != core.CheckFail {
		t.Error("inactive required service should FAIL")
	}
	req.Enforce()
	if !h.ServiceActive("auditd") || req.Check() != core.CheckPass {
		t.Error("enforcement should start the service")
	}
	if !strings.Contains(req.String(), "must be enabled") {
		t.Errorf("String = %q", req.String())
	}
}

func TestUbuntuServicePatternNilHost(t *testing.T) {
	req := &UbuntuServicePattern{ServiceName: "x"}
	if req.Check() != core.CheckIncomplete || req.Enforce() != core.EnforceIncomplete {
		t.Error("nil host should be INCOMPLETE")
	}
}

func TestRegistryRequirement(t *testing.T) {
	w := host.NewWindows10()
	req := &RegistryRequirement{
		Finding: &core.Finding{ID: "EXT-REG-1"},
		Host:    w,
		Key:     `HKLM\SOFTWARE\Policies\Microsoft\Windows\System\EnableSmartScreen`,
		Want:    "1",
	}
	if req.Check() != core.CheckFail {
		t.Error("unset value should FAIL")
	}
	w.SetRegistry(req.Key, "0")
	if req.Check() != core.CheckFail {
		t.Error("wrong value should FAIL")
	}
	if req.Enforce() != core.EnforceSuccess || req.Check() != core.CheckPass {
		t.Error("enforcement should set the value")
	}
	if !strings.Contains(req.String(), "EnableSmartScreen") {
		t.Errorf("String = %q", req.String())
	}
}

func TestRegistryRequirementNilHost(t *testing.T) {
	req := &RegistryRequirement{Key: "k", Want: "v"}
	if req.Check() != core.CheckIncomplete || req.Enforce() != core.EnforceIncomplete {
		t.Error("nil host should be INCOMPLETE")
	}
}

func TestExtensionPatternsRegisterInCatalog(t *testing.T) {
	h := host.NewLinux()
	w := host.NewWindows10()
	cat := core.NewCatalog()
	cat.MustRegister(&UbuntuServicePattern{
		Finding: &core.Finding{ID: "EXT-SVC-3"}, Host: h, ServiceName: "rlogin",
	})
	cat.MustRegister(&RegistryRequirement{
		Finding: &core.Finding{ID: "EXT-REG-2"}, Host: w, Key: `HKLM\X`, Want: "1",
	})
	rep := cat.Run(core.CheckAndEnforce)
	if rep.Compliance() != 1 {
		t.Errorf("extension patterns should enforce cleanly:\n%s", rep)
	}
}
