package stig

import (
	"fmt"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

// AuditPolicyRequirement is the Windows 10 STIG requirement pattern for
// advanced audit-policy settings, mirroring
// rqcode.patterns.win10.AuditPolicyRequirement. It checks and enforces
// through the auditpol text interface (host.AuditPol), the Go analogue of
// the reference implementation forking auditpol.exe.
type AuditPolicyRequirement struct {
	*core.Finding
	AP host.AuditPol
	// Category and Subcategory locate the policy in the auditpol taxonomy.
	Category, Subcategory string
	// WantSuccess / WantFailure are the audit flags the finding requires
	// to be enabled.
	WantSuccess, WantFailure bool
}

// GetCategory returns the audit category, as in the reference class.
func (r *AuditPolicyRequirement) GetCategory() string { return r.Category }

// GetSubcategory returns the audit subcategory.
func (r *AuditPolicyRequirement) GetSubcategory() string { return r.Subcategory }

// GetInclusionSetting renders the required setting ("Success", "Failure"
// or "Success and Failure").
func (r *AuditPolicyRequirement) GetInclusionSetting() string {
	return host.AuditSetting{Success: r.WantSuccess, Failure: r.WantFailure}.String()
}

// GetSuccess renders the required success flag.
func (r *AuditPolicyRequirement) GetSuccess() string {
	if r.WantSuccess {
		return "enable"
	}
	return ""
}

// GetFailure renders the required failure flag.
func (r *AuditPolicyRequirement) GetFailure() string {
	if r.WantFailure {
		return "enable"
	}
	return ""
}

// Check runs auditpol /get and verifies that the required flags are set.
// Flags the finding does not require are left unconstrained, matching the
// STIG check text ("if the system does not audit the following, this is a
// finding").
func (r *AuditPolicyRequirement) Check() core.CheckStatus {
	if r.AP.W == nil {
		return core.CheckIncomplete
	}
	out, err := r.AP.Run("/get", fmt.Sprintf("/subcategory:%q", r.Subcategory))
	if err != nil {
		return core.CheckIncomplete
	}
	s, err := host.ParseSetting(out, r.Subcategory)
	if err != nil {
		return core.CheckIncomplete
	}
	if r.WantSuccess && !s.Success {
		return core.CheckFail
	}
	if r.WantFailure && !s.Failure {
		return core.CheckFail
	}
	return core.CheckPass
}

// CheckStateKeys declares the single audit-policy subcategory the check
// reads (see core.KeyReader).
func (r *AuditPolicyRequirement) CheckStateKeys() []host.StateKey {
	return []host.StateKey{host.AuditKey(r.Subcategory)}
}

// Enforce runs auditpol /set enabling the required flags, preserving flags
// the finding does not constrain.
func (r *AuditPolicyRequirement) Enforce() core.EnforcementStatus {
	if r.AP.W == nil {
		return core.EnforceIncomplete
	}
	args := []string{"/set", fmt.Sprintf("/subcategory:%q", r.Subcategory)}
	if r.WantSuccess {
		args = append(args, "/success:enable")
	}
	if r.WantFailure {
		args = append(args, "/failure:enable")
	}
	if _, err := r.AP.Run(args...); err != nil {
		return core.EnforceFailure
	}
	return core.EnforceSuccess
}

// String renders the requirement.
func (r *AuditPolicyRequirement) String() string {
	return fmt.Sprintf("[%s] Audit %s >> %s must include %s. Status: %s",
		r.FindingID(), r.Category, r.Subcategory, r.GetInclusionSetting(), r.Check())
}

// The intermediate pattern layers of the reference hierarchy
// (AccountManagementRequirement, LogonLogoffRequirement,
// PrivilegeUseRequirement and their subcategory refinements) become
// constructor helpers: Go composes by embedding rather than subclassing,
// and the only state each layer adds is the category/subcategory pair.

func newAccountManagement(sub string) AuditPolicyRequirement {
	return AuditPolicyRequirement{Category: "Account Management", Subcategory: sub}
}

func newUserAccountManagement() AuditPolicyRequirement {
	return newAccountManagement("User Account Management")
}

func newLogonLogoff(sub string) AuditPolicyRequirement {
	return AuditPolicyRequirement{Category: "Logon/Logoff", Subcategory: sub}
}

func newLogon() AuditPolicyRequirement { return newLogonLogoff("Logon") }

func newPrivilegeUse(sub string) AuditPolicyRequirement {
	return AuditPolicyRequirement{Category: "Privilege Use", Subcategory: sub}
}

func newSensitivePrivilegeUse() AuditPolicyRequirement {
	return newPrivilegeUse("Sensitive Privilege Use")
}

const win10Guide = "Windows 10 STIG"

const auditTrailDesc = "Maintaining an audit trail of system activity logs can help identify configuration errors, troubleshoot service disruptions, and analyze compromises that have occurred, as well as detect attacks."

// win10Finding builds the metadata of one built-in Windows 10 finding,
// once per finding at package initialisation (see ubuntuFinding).
func win10Finding(id, version string, sub, setting string) *core.Finding {
	return &core.Finding{
		ID:        id,
		Ver:       version,
		Rule:      "SV-" + id[2:] + "r1_rule",
		Sev:       "medium",
		Desc:      auditTrailDesc + " " + sub + " auditing of " + setting + " events is required.",
		Guide:     win10Guide,
		Published: "2016-10-28",
		CheckTxt:  fmt.Sprintf("Run auditpol /get /subcategory:%q and verify %s is audited.", sub, setting),
		FixTxt:    fmt.Sprintf("Configure the policy: auditpol /set /subcategory:%q with %s auditing.", sub, setting),
	}
}

var v63447 = win10Finding("V-63447", "WN10-AU-000030", "User Account Management", "Success")

// NewV63447 — audit User Account Management successes.
// https://www.stigviewer.com/stig/windows_10/2016-10-28/finding/V-63447
func NewV63447(w *host.Windows) *AuditPolicyRequirement {
	r := newUserAccountManagement()
	r.Finding = v63447
	r.AP = host.AuditPol{W: w}
	r.WantSuccess = true
	return &r
}

var v63449 = win10Finding("V-63449", "WN10-AU-000035", "User Account Management", "Failure")

// NewV63449 — audit User Account Management failures.
// https://www.stigviewer.com/stig/windows_10/2016-10-28/finding/V-63449
func NewV63449(w *host.Windows) *AuditPolicyRequirement {
	r := newUserAccountManagement()
	r.Finding = v63449
	r.AP = host.AuditPol{W: w}
	r.WantFailure = true
	return &r
}

var v63463 = win10Finding("V-63463", "WN10-AU-000075", "Logon", "Failure")

// NewV63463 — audit Logon failures.
// https://www.stigviewer.com/stig/windows_10/2016-10-28/finding/V-63463
func NewV63463(w *host.Windows) *AuditPolicyRequirement {
	r := newLogon()
	r.Finding = v63463
	r.AP = host.AuditPol{W: w}
	r.WantFailure = true
	return &r
}

var v63467 = win10Finding("V-63467", "WN10-AU-000080", "Logon", "Success")

// NewV63467 — audit Logon successes.
// https://www.stigviewer.com/stig/windows_10/2016-10-28/finding/V-63467
func NewV63467(w *host.Windows) *AuditPolicyRequirement {
	r := newLogon()
	r.Finding = v63467
	r.AP = host.AuditPol{W: w}
	r.WantSuccess = true
	return &r
}

var v63483 = win10Finding("V-63483", "WN10-AU-000110", "Sensitive Privilege Use", "Failure")

// NewV63483 — audit Sensitive Privilege Use failures.
// https://www.stigviewer.com/stig/windows_10/2016-10-28/finding/V-63483
func NewV63483(w *host.Windows) *AuditPolicyRequirement {
	r := newSensitivePrivilegeUse()
	r.Finding = v63483
	r.AP = host.AuditPol{W: w}
	r.WantFailure = true
	return &r
}

var v63487 = win10Finding("V-63487", "WN10-AU-000115", "Sensitive Privilege Use", "Success")

// NewV63487 — audit Sensitive Privilege Use successes.
// https://www.stigviewer.com/stig/windows_10/2016-10-28/finding/V-63487
func NewV63487(w *host.Windows) *AuditPolicyRequirement {
	r := newSensitivePrivilegeUse()
	r.Finding = v63487
	r.AP = host.AuditPol{W: w}
	r.WantSuccess = true
	return &r
}

// Windows10SecurityTechnicalImplementationGuide aggregates the implemented
// Windows 10 findings, mirroring the reference instantiation class of the
// same name.
type Windows10SecurityTechnicalImplementationGuide struct {
	Host *host.Windows
}

// AllSTIGs returns every implemented finding bound to the host.
func (g Windows10SecurityTechnicalImplementationGuide) AllSTIGs() []core.CheckableEnforceableRequirement {
	return []core.CheckableEnforceableRequirement{
		NewV63447(g.Host),
		NewV63449(g.Host),
		NewV63463(g.Host),
		NewV63467(g.Host),
		NewV63483(g.Host),
		NewV63487(g.Host),
	}
}

// Catalog registers the findings in a core.Catalog.
func (g Windows10SecurityTechnicalImplementationGuide) Catalog() *core.Catalog {
	c := core.NewCatalog()
	for _, r := range g.AllSTIGs() {
		c.MustRegister(r)
	}
	return c
}

// Win10Catalog is shorthand for the guide catalogue over a host.
func Win10Catalog(w *host.Windows) *core.Catalog {
	return Windows10SecurityTechnicalImplementationGuide{Host: w}.Catalog()
}
