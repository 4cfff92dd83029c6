package vulndb

import (
	"fmt"
	"math/rand"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

// Requirement generation: every advisory match becomes an RQCODE
// requirement ("the installed package must not be vulnerable to X"),
// checkable against the host and enforceable by upgrading to the fixed
// version (or removing the package when no fix exists). This is the WP2
// path from vulnerability databases to the same Checkable/Enforceable
// plane the STIG findings live on.

// PatchRequirement is the generated requirement for one advisory.
type PatchRequirement struct {
	core.Finding
	Host     *host.Linux
	Advisory Advisory
}

// NewPatchRequirement builds the requirement for an advisory.
func NewPatchRequirement(h *host.Linux, a Advisory) *PatchRequirement {
	score := a.Score()
	fix := "Upgrade " + a.Package + " to " + a.FixedIn + " or later."
	if a.FixedIn == "" {
		fix = "No fixed version exists; remove the " + a.Package + " package."
	}
	return &PatchRequirement{
		Finding: core.Finding{
			ID:       a.ID,
			Sev:      SeverityOf(score).String(),
			Desc:     fmt.Sprintf("%s (CVSS %.1f, %s)", a.Summary, score, a.Vector),
			Guide:    "Vulnerability advisories",
			CheckTxt: fmt.Sprintf("Verify %s is not installed at a version below %q.", a.Package, a.FixedIn),
			FixTxt:   fix,
		},
		Host:     h,
		Advisory: a,
	}
}

// Check reports PASS when the package is absent or at/above the fixed
// version.
func (r *PatchRequirement) Check() core.CheckStatus {
	if r.Host == nil {
		return core.CheckIncomplete
	}
	if !r.Host.Installed(r.Advisory.Package) {
		return core.CheckPass
	}
	if r.Advisory.FixedIn == "" {
		return core.CheckFail // installed and unfixable
	}
	return core.CheckBool(CompareVersions(r.Host.Version(r.Advisory.Package), r.Advisory.FixedIn) >= 0)
}

// CheckStateKeys declares the single package slot Check reads, making
// patch requirements localizable in fleet.DepIndex: a push-mode fleet
// re-evaluates the advisory only when its package changes. (Found by
// the keyreads analyzer: before PR 10 this type was unindexed and every
// host event conservatively re-ran the whole advisory catalogue.)
func (r *PatchRequirement) CheckStateKeys() []host.StateKey {
	return []host.StateKey{host.PackageKey(r.Advisory.Package)}
}

// Enforce upgrades the package to the fixed version, or removes it when no
// fix exists, verifying the mutation took effect.
func (r *PatchRequirement) Enforce() core.EnforcementStatus {
	if r.Host == nil {
		return core.EnforceIncomplete
	}
	if !r.Host.Installed(r.Advisory.Package) {
		return core.EnforceSuccess
	}
	if r.Advisory.FixedIn == "" {
		r.Host.Remove(r.Advisory.Package)
	} else {
		r.Host.Install(r.Advisory.Package, r.Advisory.FixedIn)
	}
	if r.Check() != core.CheckPass {
		return core.EnforceFailure
	}
	return core.EnforceSuccess
}

// String renders the requirement.
func (r *PatchRequirement) String() string {
	return fmt.Sprintf("[%s] %s must not be vulnerable (fixed in %q). Status: %s",
		r.FindingID(), r.Advisory.Package, r.Advisory.FixedIn, r.Check())
}

var _ core.CheckableEnforceableRequirement = (*PatchRequirement)(nil)
var _ core.KeyReader = (*PatchRequirement)(nil)

// Catalog generates one requirement per advisory matching the host and
// registers them in an RQCODE catalogue, ready for the same audit/enforce
// runner the STIG findings use.
func Catalog(db *DB, h *host.Linux) *core.Catalog {
	cat := core.NewCatalog()
	for _, m := range db.Scan(h) {
		cat.MustRegister(NewPatchRequirement(h, m.Advisory))
	}
	return cat
}

// GenerateFeed produces a synthetic advisory feed over the given package
// names for the benchmark harness: nPerPkg advisories per package with
// seeded severities and fixed versions. Deterministic in rng.
func GenerateFeed(packages []string, nPerPkg int, rng *rand.Rand) []Advisory {
	vectors := []string{
		"CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", // 9.8 critical
		"CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:C/C:H/I:H/A:H", // 10.0 critical
		"CVSS:3.1/AV:N/AC:L/PR:L/UI:N/S:U/C:H/I:N/A:N", // 6.5 medium
		"CVSS:3.1/AV:L/AC:L/PR:L/UI:N/S:U/C:H/I:N/A:N", // 5.5 medium
		"CVSS:3.1/AV:N/AC:H/PR:N/UI:R/S:U/C:L/I:L/A:N", // 4.2 medium
		"CVSS:3.1/AV:L/AC:H/PR:H/UI:R/S:U/C:L/I:N/A:N", // 2.2 low
		"CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:H", // 7.5 high
		"CVSS:3.1/AV:A/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", // 8.8 high
	}
	var out []Advisory
	id := 0
	for _, pkg := range packages {
		for i := 0; i < nPerPkg; i++ {
			id++
			a := Advisory{
				ID:      fmt.Sprintf("CVE-2026-%05d", id),
				Package: pkg,
				Vector:  vectors[rng.Intn(len(vectors))],
				Summary: fmt.Sprintf("Synthetic vulnerability %d in %s.", i+1, pkg),
			}
			// 80% of advisories have a fix one minor version up.
			if rng.Float64() < 0.8 {
				a.FixedIn = fmt.Sprintf("1.%d.0", 1+rng.Intn(9))
			}
			out = append(out, a)
		}
	}
	return out
}
