// Package stig implements the concrete security requirements of VeriDevOps
// D2.7: the rqcode.stigs.ubuntu and rqcode.stigs.win10 catalogues. Each
// finding is a core.CheckableEnforceableRequirement whose Check/Enforce
// operate on the simulated hosts of internal/host (standing in for live
// dpkg/auditpol access; see DESIGN.md).
package stig

import (
	"context"
	"fmt"
	"strconv"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

// UbuntuPackagePattern is the reusable security-requirement pattern from
// the STIG repository: "package NAME must (not) be installed". It mirrors
// rqcode.stigs.ubuntu.UbuntuPackagePattern.
type UbuntuPackagePattern struct {
	*core.Finding
	Host *host.Linux
	// PackageName is the dpkg package under requirement.
	PackageName string
	// MustBeInstalled selects between "required" and "banned".
	MustBeInstalled bool
}

// Check reports whether the package state matches the requirement.
func (u *UbuntuPackagePattern) Check() core.CheckStatus {
	return u.CheckCtx(context.Background())
}

// CheckCtx is Check with cooperative cancellation: the dpkg probe
// observes ctx at its boundary, so an attempt the engine already
// abandoned (AttemptTimeout) unwinds instead of running on.
func (u *UbuntuPackagePattern) CheckCtx(ctx context.Context) core.CheckStatus {
	if u.Host == nil {
		return core.CheckIncomplete
	}
	return core.CheckBool(u.Host.InstalledCtx(ctx, u.PackageName) == u.MustBeInstalled)
}

// CheckStateDigest returns the canonical digest of the host state the
// check reads — the package's installed flag plus the requirement's
// expectation — for cross-host dedup of identical check work (see
// core.CheckFingerprint). The digest probe reads the host inventory
// directly, modelling a cached fleet inventory snapshot that is far
// cheaper than the per-check transport round-trip the audit itself pays.
func (u *UbuntuPackagePattern) CheckStateDigest() (string, bool) {
	if u.Host == nil {
		return "", false
	}
	return "pkg:" + u.PackageName + "=" + strconv.FormatBool(u.Host.Installed(u.PackageName)) +
		";want=" + strconv.FormatBool(u.MustBeInstalled), true
}

// CheckStateKeys declares the single state slot the check reads — the
// package's installed flag — as its typed host.StateKey, so the
// fleet's reverse dependency index can re-run exactly this check when a
// pkg event for the package arrives (see core.KeyReader).
func (u *UbuntuPackagePattern) CheckStateKeys() []host.StateKey {
	return []host.StateKey{host.PackageKey(u.PackageName)}
}

// Enforce installs or removes the package to satisfy the requirement and
// verifies the mutation took effect; a host that denies the change (for
// example a read-only host) yields FAILURE.
func (u *UbuntuPackagePattern) Enforce() core.EnforcementStatus {
	if u.Host == nil {
		return core.EnforceIncomplete
	}
	if u.MustBeInstalled {
		u.Host.Install(u.PackageName, "stig-enforced")
	} else {
		u.Host.Remove(u.PackageName)
	}
	if u.Check() != core.CheckPass {
		return core.EnforceFailure
	}
	return core.EnforceSuccess
}

// String renders the requirement in the toString style of the reference
// class.
func (u *UbuntuPackagePattern) String() string {
	verb := "must not be installed"
	if u.MustBeInstalled {
		verb = "must be installed"
	}
	return fmt.Sprintf("[%s] The %s package %s. Status: %s",
		u.FindingID(), u.PackageName, verb, u.Check())
}

// UbuntuConfigPattern is the companion pattern for key-value configuration
// requirements ("FILE must set KEY to VALUE"), used by the findings whose
// STIG check text greps a configuration file rather than dpkg.
type UbuntuConfigPattern struct {
	*core.Finding
	Host  *host.Linux
	File  string
	Key   string
	Value string
}

// Check reports whether the configuration key has the required value.
func (u *UbuntuConfigPattern) Check() core.CheckStatus {
	return u.CheckCtx(context.Background())
}

// CheckCtx is Check with cooperative cancellation at the config-probe
// boundary (see UbuntuPackagePattern.CheckCtx).
func (u *UbuntuConfigPattern) CheckCtx(ctx context.Context) core.CheckStatus {
	if u.Host == nil {
		return core.CheckIncomplete
	}
	v, ok := u.Host.ConfigCtx(ctx, u.File, u.Key)
	return core.CheckBool(ok && v == u.Value)
}

// CheckStateDigest returns the canonical digest of the configuration
// state the check reads, for cross-host dedup (see
// UbuntuPackagePattern.CheckStateDigest).
func (u *UbuntuConfigPattern) CheckStateDigest() (string, bool) {
	if u.Host == nil {
		return "", false
	}
	v, ok := u.Host.Config(u.File, u.Key)
	return "cfg:" + u.File + ":" + u.Key + "=" + strconv.Quote(v) + "," + strconv.FormatBool(ok) +
		";want=" + strconv.Quote(u.Value), true
}

// CheckStateKeys declares the single configuration slot the check reads
// (see core.KeyReader).
func (u *UbuntuConfigPattern) CheckStateKeys() []host.StateKey {
	return []host.StateKey{host.ConfigKey(u.File, u.Key)}
}

// Enforce writes the required value and verifies it took effect.
func (u *UbuntuConfigPattern) Enforce() core.EnforcementStatus {
	if u.Host == nil {
		return core.EnforceIncomplete
	}
	u.Host.SetConfig(u.File, u.Key, u.Value)
	if u.Check() != core.CheckPass {
		return core.EnforceFailure
	}
	return core.EnforceSuccess
}

// String renders the requirement.
func (u *UbuntuConfigPattern) String() string {
	return fmt.Sprintf("[%s] %s must set %s to %s. Status: %s",
		u.FindingID(), u.File, u.Key, u.Value, u.Check())
}

const ubuntuGuide = "Canonical Ubuntu 18.04 LTS STIG"

// ubuntuFinding builds the metadata of one built-in Ubuntu finding. Each
// is built once, at package initialisation, and every host's requirement
// for that finding points at the same value; the NewV… constructors bind
// only the host and the pattern parameters.
func ubuntuFinding(id, version, sev, desc, check, fix string) *core.Finding {
	return &core.Finding{
		ID:        id,
		Ver:       version,
		Rule:      "SV-" + id[2:] + "r610931_rule",
		Sev:       sev,
		Desc:      desc,
		Guide:     ubuntuGuide,
		Published: "2021-06-16",
		CheckTxt:  check,
		FixTxt:    fix,
	}
}

var v219157 = ubuntuFinding("V-219157", "UBTU-18-010017", "medium",
	"Removing the Network Information Service (NIS) package decreases the risk of the accidental (or intentional) activation of NIS or NIS+ services.",
	"Verify the NIS package is not installed: dpkg -l | grep nis",
	"Remove the NIS package: sudo apt-get remove nis")

// NewV219157 — the NIS package must not be installed.
// https://www.stigviewer.com/stig/canonical_ubuntu_18.04_lts/2021-06-16/finding/V-219157
func NewV219157(h *host.Linux) *UbuntuPackagePattern {
	return &UbuntuPackagePattern{Finding: v219157, Host: h, PackageName: "nis", MustBeInstalled: false}
}

var v219158 = ubuntuFinding("V-219158", "UBTU-18-010019", "high",
	"The rsh-server service provides an unencrypted remote access service that does not provide for the confidentiality and integrity of user passwords or the remote session.",
	"Verify the rsh-server package is not installed: dpkg -l | grep rsh-server",
	"Remove the rsh-server package: sudo apt-get remove rsh-server")

// NewV219158 — the rsh-server package must not be installed.
// https://www.stigviewer.com/stig/canonical_ubuntu_18.04_lts/2021-06-16/finding/V-219158
func NewV219158(h *host.Linux) *UbuntuPackagePattern {
	return &UbuntuPackagePattern{Finding: v219158, Host: h, PackageName: "rsh-server", MustBeInstalled: false}
}

var v219161 = ubuntuFinding("V-219161", "UBTU-18-010023", "high",
	"Remote access services which lack automated control capabilities increase risk. The operating system must provide a controlled, encrypted remote access method capable of enforcement actions.",
	"Verify the openssh-server package is installed: dpkg -l | grep openssh-server",
	"Install the openssh-server package: sudo apt-get install openssh-server")

// NewV219161 — an SSH server must be installed so that remote access
// sessions are encrypted and centrally controllable.
// https://www.stigviewer.com/stig/canonical_ubuntu_18.04_lts/2021-06-16/finding/V-219161
func NewV219161(h *host.Linux) *UbuntuPackagePattern {
	return &UbuntuPackagePattern{Finding: v219161, Host: h, PackageName: "openssh-server", MustBeInstalled: true}
}

var v219177 = ubuntuFinding("V-219177", "UBTU-18-010104", "high",
	"Passwords need to be protected at all times, and encryption is the standard method for protecting passwords. If passwords are not encrypted, they can be plainly read and easily compromised.",
	"Verify ENCRYPT_METHOD is SHA512 in /etc/login.defs: grep -i encrypt_method /etc/login.defs",
	"Edit /etc/login.defs and set ENCRYPT_METHOD SHA512")

// NewV219177 — passwords must be stored with a strong one-way hash
// (ENCRYPT_METHOD SHA512 in /etc/login.defs). The deliverable wraps this in
// the package pattern; the underlying STIG check text greps login.defs, so
// the config pattern is used here.
// https://www.stigviewer.com/stig/canonical_ubuntu_18.04_lts/2021-06-16/finding/V-219177
func NewV219177(h *host.Linux) *UbuntuConfigPattern {
	return &UbuntuConfigPattern{Finding: v219177, Host: h, File: "/etc/login.defs", Key: "ENCRYPT_METHOD", Value: "SHA512"}
}

var v219304 = ubuntuFinding("V-219304", "UBTU-18-010403", "medium",
	"The operating system needs to provide users with the ability to manually invoke a session lock so users may secure their session should the need arise to temporarily vacate the immediate physical vicinity.",
	"Verify the vlock package is installed: dpkg -l | grep vlock",
	"Install the vlock package: sudo apt-get install vlock")

// NewV219304 — the vlock package must be installed so users can manually
// lock their sessions.
// https://www.stigviewer.com/stig/canonical_ubuntu_18.04_lts/2021-06-16/finding/V-219304
func NewV219304(h *host.Linux) *UbuntuPackagePattern {
	return &UbuntuPackagePattern{Finding: v219304, Host: h, PackageName: "vlock", MustBeInstalled: true}
}

var v219318 = ubuntuFinding("V-219318", "UBTU-18-010425", "medium",
	"Using an authentication device, such as a CAC or token that is separate from the information system, ensures that even if the information system is compromised, that compromise will not affect credentials stored on the authentication device.",
	"Verify the libpam-pkcs11 package is installed: dpkg -l | grep libpam-pkcs11",
	"Install the libpam-pkcs11 package: sudo apt-get install libpam-pkcs11")

// NewV219318 — the libpam-pkcs11 package must be installed for multifactor
// (smart card) authentication.
// https://www.stigviewer.com/stig/canonical_ubuntu_18.04_lts/2021-06-16/finding/V-219318
func NewV219318(h *host.Linux) *UbuntuPackagePattern {
	return &UbuntuPackagePattern{Finding: v219318, Host: h, PackageName: "libpam-pkcs11", MustBeInstalled: true}
}

var v219319 = ubuntuFinding("V-219319", "UBTU-18-010426", "medium",
	"The use of PIV credentials facilitates standardization and reduces the risk of unauthorized access. DoD has mandated the use of the CAC to support identity management and personal authentication.",
	"Verify the opensc-pkcs11 package is installed: dpkg -l | grep opensc-pkcs11",
	"Install the opensc-pkcs11 package: sudo apt-get install opensc-pkcs11")

// NewV219319 — the opensc-pkcs11 package must be installed to accept PIV
// credentials.
// https://www.stigviewer.com/stig/canonical_ubuntu_18.04_lts/2021-06-16/finding/V-219319
func NewV219319(h *host.Linux) *UbuntuPackagePattern {
	return &UbuntuPackagePattern{Finding: v219319, Host: h, PackageName: "opensc-pkcs11", MustBeInstalled: true}
}

var v219343 = ubuntuFinding("V-219343", "UBTU-18-010450", "medium",
	"Without verification of the security functions, security functions may not operate correctly and the failure may go unnoticed. Security function verification includes file integrity monitoring of the software enforcing the security policy.",
	"Verify the aide package is installed: dpkg -l | grep aide",
	"Install the aide package: sudo apt-get install aide")

// NewV219343 — a file-integrity tool (AIDE) must be installed to verify
// the correct operation of security functions.
// https://www.stigviewer.com/stig/canonical_ubuntu_18.04_lts/2021-06-16/finding/V-219343
func NewV219343(h *host.Linux) *UbuntuPackagePattern {
	return &UbuntuPackagePattern{Finding: v219343, Host: h, PackageName: "aide", MustBeInstalled: true}
}

// UbuntuCatalog registers every implemented Ubuntu 18.04 finding against
// the host, mirroring the rqcode.stigs.ubuntu.Main instantiation example.
func UbuntuCatalog(h *host.Linux) *core.Catalog {
	c := core.NewCatalog()
	c.MustRegister(NewV219157(h))
	c.MustRegister(NewV219158(h))
	c.MustRegister(NewV219161(h))
	c.MustRegister(NewV219177(h))
	c.MustRegister(NewV219304(h))
	c.MustRegister(NewV219318(h))
	c.MustRegister(NewV219319(h))
	c.MustRegister(NewV219343(h))
	return c
}
