package stig_test

import (
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/fleet"
	"veridevops/internal/host"
	"veridevops/internal/stig"
)

// The declared-reads contract behind the reverse dependency index is
// verified mechanically here: instead of hand-maintained byte-identity
// assertions (pre-PR-10), the dynamic oracle records which state keys
// each check actually reads (host.ReadRecorder) and cross-checks them
// against CheckStateKeys, and the mutator side is tied in by asserting
// the event key every mutation logs is one of the keys the check read.

// patternCases enumerates one requirement per pattern kind with the
// mutation touching the slot it reads.
func patternCases(l *host.Linux, w *host.Windows) []struct {
	name   string
	req    core.CheckableEnforceableRequirement
	rec    fleet.Recordable
	log    *host.EventLog
	mutate func()
} {
	return []struct {
		name   string
		req    core.CheckableEnforceableRequirement
		rec    fleet.Recordable
		log    *host.EventLog
		mutate func()
	}{
		{"package", stig.NewV219343(l), l, l.Log(), func() { l.Install("aide", "1") }},
		{"config", stig.NewV219177(l), l, l.Log(), func() { l.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "MD5") }},
		{"service", &stig.UbuntuServicePattern{Finding: core.Finding{ID: "T-1", Sev: "medium", Desc: "auditd must run"}, Host: l, ServiceName: "auditd", MustBeActive: true},
			l, l.Log(), func() { l.EnableService("auditd") }},
		{"audit", stig.NewV63447(w), w, w.Log(), func() {
			_ = w.SetAudit("User Account Management", host.AuditSetting{Failure: true})
		}},
		{"registry", &stig.RegistryRequirement{Finding: core.Finding{ID: "T-2", Sev: "medium", Desc: "policy value"}, Host: w, Key: `HKLM\X`, Want: "1"},
			w, w.Log(), func() { w.SetRegistry(`HKLM\X`, "1") }},
	}
}

// TestPatternReadsCoverMutatorKeys replaces the old byte-identity
// assertions: for every pattern kind, the key the mutator logs must be
// one the check was recorded reading AND one the check declares —
// otherwise a change never re-triggers its check under push evaluation.
func TestPatternReadsCoverMutatorKeys(t *testing.T) {
	l := host.NewLinux()
	w := host.NewWindows10()
	for _, c := range patternCases(l, w) {
		cat := core.NewCatalog()
		cat.MustRegister(c.req)
		rec := host.NewReadRecorder()
		c.rec.SetRecorder(rec)
		cat.RunEngine(core.RunOptions{Mode: core.CheckOnly, Workers: 1})
		c.rec.SetRecorder(nil)
		read := map[string]bool{}
		for _, k := range rec.Keys() {
			read[k] = true
		}
		if len(read) == 0 {
			t.Errorf("%s: check recorded no reads", c.name)
			continue
		}
		declared := map[string]bool{}
		keys, ok := core.CheckKeys(c.req)
		if !ok {
			t.Errorf("%s: declares no state keys", c.name)
			continue
		}
		for _, k := range keys {
			declared[k] = true
		}
		before := c.log.Len()
		c.mutate()
		evs, _ := c.log.Tail(before)
		if len(evs) != 1 {
			t.Errorf("%s: mutation logged %d events, want 1", c.name, len(evs))
			continue
		}
		key := evs[0].Key.String()
		if !read[key] {
			t.Errorf("%s: mutator key %q was not among recorded reads %v", c.name, key, rec.Keys())
		}
		if !declared[key] {
			t.Errorf("%s: mutator key %q not declared in %v", c.name, key, keys)
		}
	}
}

// TestCatalogueReadsMatchDeclarations runs the dynamic oracle over the
// shipped catalogues plus one instance of each generic pattern: zero
// violations of any kind — every recorded read declared, every declared
// key actually read on the seed host states.
func TestCatalogueReadsMatchDeclarations(t *testing.T) {
	l := host.NewUbuntu1804()
	w := host.NewWindows10()

	for _, tc := range []struct {
		name  string
		cat   *core.Catalog
		hosts []fleet.Recordable
	}{
		{"ubuntu", stig.UbuntuCatalog(l), []fleet.Recordable{l}},
		{"win10", stig.Win10Catalog(w), []fleet.Recordable{w}},
		{"patterns", patternCatalog(l, w), []fleet.Recordable{l, w}},
	} {
		for _, v := range fleet.VerifyReads(tc.cat, tc.hosts...) {
			t.Errorf("%s: %s", tc.name, v)
		}
	}
}

// patternCatalog registers one instance of each generic pattern that is
// not part of a shipped catalogue, so the oracle covers the whole
// pattern surface.
func patternCatalog(l *host.Linux, w *host.Windows) *core.Catalog {
	cat := core.NewCatalog()
	cat.MustRegister(&stig.UbuntuServicePattern{Finding: core.Finding{ID: "T-svc", Sev: "medium", Desc: "auditd must run"}, Host: l, ServiceName: "auditd", MustBeActive: true})
	cat.MustRegister(&stig.RegistryRequirement{Finding: core.Finding{ID: "T-reg", Sev: "medium", Desc: "policy value"}, Host: w, Key: `HKLM\X`, Want: "1"})
	return cat
}

// TestCatalogsFullyIndexable verifies every registered Ubuntu and Win10
// finding declares its read keys: no silent fallback-to-full-sweep
// entries hide in the shipped catalogues.
func TestCatalogsFullyIndexable(t *testing.T) {
	for _, c := range []*core.Catalog{
		stig.UbuntuCatalog(host.NewUbuntu1804()),
		stig.Win10Catalog(host.NewWindows10()),
	} {
		for _, req := range c.All() {
			if _, ok := core.CheckKeys(req); !ok {
				t.Errorf("%s declares no state keys", req.FindingID())
			}
		}
	}
}
