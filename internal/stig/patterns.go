package stig

import (
	"fmt"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

// Additional reusable requirement patterns. D2.7 notes the encoded STIG
// set "is not exhaustive [and] continuously updated"; these are the
// extension points new findings instantiate, alongside UbuntuPackagePattern
// and UbuntuConfigPattern.

// UbuntuServicePattern requires a service to be active or inactive
// ("systemctl is-active" style checks in STIG check texts).
type UbuntuServicePattern struct {
	*core.Finding
	Host *host.Linux
	// ServiceName is the systemd unit under requirement.
	ServiceName string
	// MustBeActive selects between "must run" and "must be disabled".
	MustBeActive bool
}

// Check reports whether the service state matches the requirement.
func (u *UbuntuServicePattern) Check() core.CheckStatus {
	if u.Host == nil {
		return core.CheckIncomplete
	}
	return core.CheckBool(u.Host.ServiceActive(u.ServiceName) == u.MustBeActive)
}

// Enforce enables or disables the service and verifies the change took
// effect.
func (u *UbuntuServicePattern) Enforce() core.EnforcementStatus {
	if u.Host == nil {
		return core.EnforceIncomplete
	}
	if u.MustBeActive {
		u.Host.EnableService(u.ServiceName)
	} else {
		u.Host.DisableService(u.ServiceName)
	}
	if u.Check() != core.CheckPass {
		return core.EnforceFailure
	}
	return core.EnforceSuccess
}

// CheckStateKeys declares the single service slot the check reads (see
// core.KeyReader).
func (u *UbuntuServicePattern) CheckStateKeys() []host.StateKey {
	return []host.StateKey{host.ServiceKey(u.ServiceName)}
}

// String renders the requirement.
func (u *UbuntuServicePattern) String() string {
	verb := "must be disabled"
	if u.MustBeActive {
		verb = "must be enabled and active"
	}
	return fmt.Sprintf("[%s] The %s service %s. Status: %s",
		u.FindingID(), u.ServiceName, verb, u.Check())
}

// RegistryRequirement requires a Windows registry value, the pattern
// behind the large family of registry-based Windows 10 STIG findings.
type RegistryRequirement struct {
	*core.Finding
	Host *host.Windows
	// Key is the full registry path (hive\path\name form).
	Key string
	// Want is the required value.
	Want string
}

// Check reports whether the registry value matches.
func (r *RegistryRequirement) Check() core.CheckStatus {
	if r.Host == nil {
		return core.CheckIncomplete
	}
	v, ok := r.Host.Registry(r.Key)
	return core.CheckBool(ok && v == r.Want)
}

// Enforce writes the required value.
func (r *RegistryRequirement) Enforce() core.EnforcementStatus {
	if r.Host == nil {
		return core.EnforceIncomplete
	}
	r.Host.SetRegistry(r.Key, r.Want)
	return core.EnforceSuccess
}

// CheckStateKeys declares the single registry slot the check reads (see
// core.KeyReader).
func (r *RegistryRequirement) CheckStateKeys() []host.StateKey {
	return []host.StateKey{host.RegistryKey(r.Key)}
}

// String renders the requirement.
func (r *RegistryRequirement) String() string {
	return fmt.Sprintf("[%s] Registry %s must be %q. Status: %s",
		r.FindingID(), r.Key, r.Want, r.Check())
}

var (
	_ core.CheckableEnforceableRequirement = (*UbuntuPackagePattern)(nil)
	_ core.CheckableEnforceableRequirement = (*UbuntuConfigPattern)(nil)
	_ core.CheckableEnforceableRequirement = (*UbuntuServicePattern)(nil)
	_ core.CheckableEnforceableRequirement = (*AuditPolicyRequirement)(nil)
	_ core.CheckableEnforceableRequirement = (*RegistryRequirement)(nil)

	// Every pattern declares the state keys its Check reads, so the whole
	// catalogue is indexable for push-based incremental evaluation.
	_ core.KeyReader = (*UbuntuPackagePattern)(nil)
	_ core.KeyReader = (*UbuntuConfigPattern)(nil)
	_ core.KeyReader = (*UbuntuServicePattern)(nil)
	_ core.KeyReader = (*AuditPolicyRequirement)(nil)
	_ core.KeyReader = (*RegistryRequirement)(nil)
)
