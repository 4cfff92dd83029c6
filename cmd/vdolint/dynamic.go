package main

import (
	"veridevops/internal/analysis"
	"veridevops/internal/core"
	"veridevops/internal/fleet"
	"veridevops/internal/host"
	"veridevops/internal/stig"
	"veridevops/internal/vulndb"
)

// The -dynamic mode is the runtime counterpart of the static keyreads
// analyzer: instead of proving the declared-reads contract from source,
// it executes every entry of the shipped catalogues on fresh simulated
// hosts with a host.ReadRecorder attached (fleet.VerifyReads) and
// reports every mismatch between recorded and declared state keys.
// Violations surface as findings under the synthetic "keyreads-dynamic"
// analyzer name so all three output formats (text, -json, -sarif) work
// unchanged: undeclared reads are errors, overdeclared/unlocalized are
// warnings, and the usual exit-code contract applies (1 on any finding).

// dynamicBundles enumerates the catalogue bundles the oracle covers:
// the two shipped STIG catalogues plus one instance of each generic
// pattern that is not part of a catalogue (service, registry, vulndb
// patch), so the whole requirement surface is exercised.
func dynamicBundles() []struct {
	name  string
	cat   *core.Catalog
	hosts []fleet.Recordable
} {
	l := host.NewUbuntu1804()
	w := host.NewWindows10()
	pl := host.NewUbuntu1804()
	pw := host.NewWindows10()
	pl.Install("openssl", "1.0.0") // vulnerable: the patch check reads both pkg slots
	pats := core.NewCatalog()
	pats.MustRegister(&stig.UbuntuServicePattern{
		Finding: &core.Finding{ID: "DYN-SVC-1", Sev: "medium", Desc: "auditd must be active"},
		Host:    pl, ServiceName: "auditd", MustBeActive: true,
	})
	pats.MustRegister(&stig.RegistryRequirement{
		Finding: &core.Finding{ID: "DYN-REG-1", Sev: "medium", Desc: "policy value must be set"},
		Host:    pw, Key: `HKLM\Software\Policies\System\EnableLUA`, Want: "1",
	})
	pats.MustRegister(vulndb.NewPatchRequirement(pl, vulndb.Advisory{
		ID: "CVE-2026-9999", Package: "openssl", FixedIn: "1.0.2",
		Vector: "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", Summary: "synthetic oracle advisory",
	}))
	return []struct {
		name  string
		cat   *core.Catalog
		hosts []fleet.Recordable
	}{
		{"ubuntu", stig.UbuntuCatalog(l), []fleet.Recordable{l}},
		{"win10", stig.Win10Catalog(w), []fleet.Recordable{w}},
		{"patterns", pats, []fleet.Recordable{pl, pw}},
	}
}

// dynamicFindings runs the oracle over every bundle and converts the
// violations to findings.
func dynamicFindings() []analysis.Finding {
	var out []analysis.Finding
	for _, b := range dynamicBundles() {
		for _, v := range fleet.VerifyReads(b.cat, b.hosts...) {
			sev := analysis.SeverityWarning
			if v.Fatal() {
				sev = analysis.SeverityError
			}
			out = append(out, analysis.Finding{
				Analyzer: "keyreads-dynamic",
				File:     "(dynamic)",
				Message:  v.String(),
				Package:  b.name,
				Severity: sev,
			})
		}
	}
	return out
}
