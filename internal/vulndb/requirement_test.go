package vulndb_test

import (
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/fleet"
	"veridevops/internal/host"
	"veridevops/internal/vulndb"
)

// TestPatchRequirementDeclaredReads locks in the PR 10 keyreads fix:
// patch requirements declare the package slot they read, so advisory
// catalogues are localizable in the dependency index, and the dynamic
// oracle confirms the declaration covers every recorded read in both
// the vulnerable-installed and absent states.
func TestPatchRequirementDeclaredReads(t *testing.T) {
	h := host.NewLinux()
	h.Install("openssl", "1.0.0")

	vulnerable := vulndb.Advisory{ID: "CVE-2026-0001", Package: "openssl", FixedIn: "1.0.2",
		Vector: "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", Summary: "synthetic"}
	absent := vulndb.Advisory{ID: "CVE-2026-0002", Package: "telnetd", FixedIn: "2.0",
		Vector: "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", Summary: "synthetic"}

	cat := core.NewCatalog()
	for _, a := range []vulndb.Advisory{vulnerable, absent} {
		req := vulndb.NewPatchRequirement(h, a)
		keys, ok := core.CheckKeys(req)
		if !ok || len(keys) != 1 || keys[0] != host.PackageKey(a.Package) {
			t.Fatalf("%s: CheckKeys = (%v, %v), want [%s]", a.ID, keys, ok, host.PackageKey(a.Package))
		}
		cat.MustRegister(req)
	}

	// The installed advisory reads pkg:openssl twice (Installed +
	// Version); the absent one short-circuits after pkg:telnetd. Either
	// way every recorded read is declared and every declared key read.
	if vs := fleet.VerifyReads(cat, h); len(vs) != 0 {
		t.Fatalf("VerifyReads = %v, want no violations", vs)
	}
}
