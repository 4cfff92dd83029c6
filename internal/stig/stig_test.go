package stig

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

func TestUbuntuPackagePatternBanned(t *testing.T) {
	h := host.NewLinux()
	req := NewV219157(h) // nis must not be installed
	if req.Check() != core.CheckPass {
		t.Error("absent banned package should PASS")
	}
	h.Install("nis", "3.17")
	if req.Check() != core.CheckFail {
		t.Error("installed banned package should FAIL")
	}
	if req.Enforce() != core.EnforceSuccess {
		t.Error("enforcement should succeed")
	}
	if req.Check() != core.CheckPass {
		t.Error("after enforcement the check should PASS")
	}
}

func TestUbuntuPackagePatternRequired(t *testing.T) {
	h := host.NewLinux()
	req := NewV219304(h) // vlock must be installed
	if req.Check() != core.CheckFail {
		t.Error("missing required package should FAIL")
	}
	if req.Enforce() != core.EnforceSuccess {
		t.Error("enforcement should succeed")
	}
	if !h.Installed("vlock") {
		t.Error("enforcement should install the package")
	}
	if req.Check() != core.CheckPass {
		t.Error("after enforcement the check should PASS")
	}
}

func TestUbuntuPatternNilHost(t *testing.T) {
	req := &UbuntuPackagePattern{PackageName: "nis"}
	if req.Check() != core.CheckIncomplete {
		t.Error("nil host check should be INCOMPLETE")
	}
	if req.Enforce() != core.EnforceIncomplete {
		t.Error("nil host enforce should be INCOMPLETE")
	}
	cfg := &UbuntuConfigPattern{File: "/f", Key: "k", Value: "v"}
	if cfg.Check() != core.CheckIncomplete || cfg.Enforce() != core.EnforceIncomplete {
		t.Error("nil host config pattern should be INCOMPLETE")
	}
}

func TestUbuntuConfigPattern(t *testing.T) {
	h := host.NewLinux()
	req := NewV219177(h) // ENCRYPT_METHOD SHA512
	if req.Check() != core.CheckFail {
		t.Error("unset key should FAIL")
	}
	h.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "MD5")
	if req.Check() != core.CheckFail {
		t.Error("wrong value should FAIL")
	}
	if req.Enforce() != core.EnforceSuccess {
		t.Error("enforcement should succeed")
	}
	if req.Check() != core.CheckPass {
		t.Error("after enforcement the check should PASS")
	}
	if !strings.Contains(req.String(), "ENCRYPT_METHOD") {
		t.Errorf("String = %q", req.String())
	}
}

func TestUbuntuFindingMetadata(t *testing.T) {
	h := host.NewLinux()
	req := NewV219158(h)
	if req.FindingID() != "V-219158" {
		t.Errorf("FindingID = %q", req.FindingID())
	}
	if req.Severity() != "high" {
		t.Errorf("Severity = %q", req.Severity())
	}
	if req.STIG() != "Canonical Ubuntu 18.04 LTS STIG" {
		t.Errorf("STIG = %q", req.STIG())
	}
	if !strings.Contains(req.Description(), "rsh-server") {
		t.Error("description should mention rsh-server")
	}
	if !strings.Contains(req.String(), "V-219158") {
		t.Errorf("String = %q", req.String())
	}
	var _ core.CheckableEnforceableRequirement = req
}

func TestUbuntuCatalogRoundTrip(t *testing.T) {
	h := host.NewUbuntu1804()
	rng := rand.New(rand.NewSource(17))
	host.DriftLinux(h, 12, rng)

	cat := UbuntuCatalog(h)
	if cat.Len() != 8 {
		t.Fatalf("catalogue has %d findings, want 8", cat.Len())
	}
	before := cat.Run(core.CheckOnly)
	if before.Compliance() == 1 {
		t.Fatal("drifted host should not be fully compliant")
	}
	after := cat.Run(core.CheckAndEnforce)
	if after.Compliance() != 1 {
		t.Errorf("after enforcement compliance = %.2f, want 1.0\n%s",
			after.Compliance(), after)
	}
	// Idempotence: a second audit run stays compliant without enforcing.
	again := cat.Run(core.CheckOnly)
	if again.Compliance() != 1 {
		t.Error("compliance should persist")
	}
}

func TestWin10AuditRequirementCheckEnforce(t *testing.T) {
	w := host.NewWindows10()
	req := NewV63487(w) // Sensitive Privilege Use success auditing
	if req.Check() != core.CheckFail {
		t.Error("fresh Windows 10 should FAIL the sensitive-privilege-use audit")
	}
	if req.Enforce() != core.EnforceSuccess {
		t.Error("enforcement should succeed")
	}
	if req.Check() != core.CheckPass {
		t.Error("after enforcement the check should PASS")
	}
	// The success flag was enabled without touching failure.
	s, _ := w.GetAudit("Sensitive Privilege Use")
	if !s.Success || s.Failure {
		t.Errorf("setting = %v, want success only", s)
	}
}

func TestWin10PreservesUnconstrainedFlag(t *testing.T) {
	w := host.NewWindows10()
	if err := w.SetAudit("Logon", host.AuditSetting{Success: true}); err != nil {
		t.Fatal(err)
	}
	req := NewV63463(w) // Logon failures
	if req.Check() != core.CheckFail {
		t.Fatal("failure auditing off: must FAIL")
	}
	req.Enforce()
	s, _ := w.GetAudit("Logon")
	if !s.Success || !s.Failure {
		t.Errorf("enforcement must preserve the success flag: %v", s)
	}
	// V-63467 (Logon successes) now passes without enforcement.
	if NewV63467(w).Check() != core.CheckPass {
		t.Error("success flag should satisfy V-63467")
	}
}

func TestWin10PatternAccessors(t *testing.T) {
	w := host.NewWindows10()
	req := NewV63449(w)
	if req.GetCategory() != "Account Management" {
		t.Errorf("GetCategory = %q", req.GetCategory())
	}
	if req.GetSubcategory() != "User Account Management" {
		t.Errorf("GetSubcategory = %q", req.GetSubcategory())
	}
	if req.GetInclusionSetting() != "Failure" {
		t.Errorf("GetInclusionSetting = %q", req.GetInclusionSetting())
	}
	if req.GetSuccess() != "" || req.GetFailure() != "enable" {
		t.Errorf("flags = %q/%q", req.GetSuccess(), req.GetFailure())
	}
	both := &AuditPolicyRequirement{WantSuccess: true, WantFailure: true}
	if both.GetInclusionSetting() != "Success and Failure" {
		t.Errorf("GetInclusionSetting = %q", both.GetInclusionSetting())
	}
	if !strings.Contains(req.String(), "User Account Management") {
		t.Errorf("String = %q", req.String())
	}
}

func TestWin10NilHost(t *testing.T) {
	req := &AuditPolicyRequirement{Subcategory: "Logon"}
	if req.Check() != core.CheckIncomplete {
		t.Error("nil host check should be INCOMPLETE")
	}
	if req.Enforce() != core.EnforceIncomplete {
		t.Error("nil host enforce should be INCOMPLETE")
	}
}

func TestWin10UnknownSubcategoryIncomplete(t *testing.T) {
	w := host.NewWindows10()
	req := &AuditPolicyRequirement{AP: host.AuditPol{W: w}, Subcategory: "Ghost"}
	if req.Check() != core.CheckIncomplete {
		t.Error("unknown subcategory should be INCOMPLETE")
	}
	req.WantSuccess = true
	if req.Enforce() != core.EnforceFailure {
		t.Error("enforcing an unknown subcategory should FAIL")
	}
}

func TestWindows10GuideRoundTrip(t *testing.T) {
	w := host.NewWindows10()
	guide := Windows10SecurityTechnicalImplementationGuide{Host: w}
	if got := len(guide.AllSTIGs()); got != 6 {
		t.Fatalf("AllSTIGs = %d findings, want 6", got)
	}
	cat := guide.Catalog()
	before := cat.Run(core.CheckOnly)
	if before.Compliance() == 1 {
		t.Fatal("fresh Windows 10 should not be compliant")
	}
	after := cat.Run(core.CheckAndEnforce)
	if after.Compliance() != 1 {
		t.Errorf("after enforcement compliance = %.2f, want 1.0\n%s", after.Compliance(), after)
	}
}

func TestWin10CatalogDriftRecovery(t *testing.T) {
	w := host.NewWindows10()
	cat := Win10Catalog(w)
	cat.Run(core.CheckAndEnforce) // harden
	host.DriftWindows(w, 6, rand.New(rand.NewSource(3)))
	mid := cat.Run(core.CheckOnly)
	if mid.Compliance() == 1 {
		t.Skip("drift happened to hit only unconstrained subcategories")
	}
	after := cat.Run(core.CheckAndEnforce)
	if after.Compliance() != 1 {
		t.Error("re-enforcement should restore compliance")
	}
}

func TestUbuntuFindingIDsMatchDeliverable(t *testing.T) {
	// The catalogue must expose exactly the findings listed in D2.7.
	h := host.NewLinux()
	got := UbuntuCatalog(h).IDs()
	want := []string{
		"V-219157", "V-219158", "V-219161", "V-219177",
		"V-219304", "V-219318", "V-219319", "V-219343",
	}
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestWin10FindingIDsMatchDeliverable(t *testing.T) {
	got := Win10Catalog(host.NewWindows10()).IDs()
	want := []string{"V-63447", "V-63449", "V-63463", "V-63467", "V-63483", "V-63487"}
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestUbuntuCheckStateDigests(t *testing.T) {
	a, b := host.NewUbuntu1804(), host.NewUbuntu1804()
	ra, rb := NewV219157(a), NewV219157(b)
	da, ok := ra.CheckStateDigest()
	if !ok {
		t.Fatal("package pattern must digest its state")
	}
	db, _ := rb.CheckStateDigest()
	if da != db {
		t.Errorf("identical hosts digest differently: %q vs %q", da, db)
	}
	// Diverging the read state diverges the digest.
	b.Install("nis", "0.legacy")
	if db2, _ := rb.CheckStateDigest(); db2 == da {
		t.Error("digest ignored the package state the check reads")
	}
	// Config pattern likewise.
	ca, _ := NewV219177(a).CheckStateDigest()
	cb, _ := NewV219177(b).CheckStateDigest()
	if ca != cb {
		t.Errorf("config digests diverge on identical config: %q vs %q", ca, cb)
	}
	b.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "MD5")
	if cb2, _ := NewV219177(b).CheckStateDigest(); cb2 == ca {
		t.Error("config digest ignored the value the check reads")
	}
	// Nil-host patterns are undigestable, not wrong.
	if _, ok := (&UbuntuPackagePattern{}).CheckStateDigest(); ok {
		t.Error("nil host must not digest")
	}
}

// TestUbuntuCheckStateDigestText pins the exact digest text of both
// Ubuntu patterns: equal text is what makes two hosts' checks share one
// memo entry, so a change of format silently splits or merges dedup
// groups. Config values are quoted as Go string literals.
func TestUbuntuCheckStateDigestText(t *testing.T) {
	h := host.NewLinux()
	h.Install("nis", "0.legacy")
	h.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "SHA512")
	h.SetConfig("/etc/motd", "Banner", "say \"hi\"\tnow\x00ü")
	for _, tc := range []struct {
		name string
		req  core.StateDigester
		want string
	}{
		{"banned installed", &UbuntuPackagePattern{Host: h, PackageName: "nis"},
			"pkg:nis=true;want=false"},
		{"required absent", &UbuntuPackagePattern{Host: h, PackageName: "auditd", MustBeInstalled: true},
			"pkg:auditd=false;want=true"},
		{"config set", &UbuntuConfigPattern{Host: h, File: "/etc/login.defs", Key: "ENCRYPT_METHOD", Value: "SHA512"},
			`cfg:/etc/login.defs:ENCRYPT_METHOD="SHA512",true;want="SHA512"`},
		{"config unset", &UbuntuConfigPattern{Host: h, File: "/etc/ssh/sshd_config", Key: "PermitEmptyPasswords", Value: "no"},
			`cfg:/etc/ssh/sshd_config:PermitEmptyPasswords="",false;want="no"`},
		{"config quoted", &UbuntuConfigPattern{Host: h, File: "/etc/motd", Key: "Banner", Value: "a\\b\n"},
			`cfg:/etc/motd:Banner="say \"hi\"\tnow\x00ü",true;want="a\\b\n"`},
	} {
		got, ok := tc.req.CheckStateDigest()
		if !ok || got != tc.want {
			t.Errorf("%s: digest = %q, %v; want %q, true", tc.name, got, ok, tc.want)
		}
	}
}

func TestUbuntuCheckCtxMatchesCheck(t *testing.T) {
	h := host.NewUbuntu1804()
	for _, r := range UbuntuCatalog(h).All() {
		cc, ok := r.(core.ContextChecker)
		if !ok {
			t.Fatalf("%s does not implement ContextChecker", r.FindingID())
		}
		if got, want := cc.CheckCtx(context.Background()), r.Check(); got != want {
			t.Errorf("%s: CheckCtx = %s, Check = %s", r.FindingID(), got, want)
		}
	}
}
