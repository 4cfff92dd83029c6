// Fixture for the keyreads analyzer: declared-reads contract between
// Check/CheckCtx bodies and CheckStateKeys declarations.
package a

import (
	"context"
	"fmt"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

// UnderDeclared reads two package slots but declares only one: the
// hard-coded auditd read is invisible to the dependency index.
type UnderDeclared struct {
	H    *host.Linux
	Name string
}

func (u *UnderDeclared) Check() core.CheckStatus {
	if !u.H.Installed(u.Name) {
		return core.CheckBool(false)
	}
	return core.CheckBool(u.H.Installed("auditd")) // want `UnderDeclared reads pkg:auditd but CheckStateKeys does not declare it`
}

func (u *UnderDeclared) CheckStateKeys() []host.StateKey {
	return []host.StateKey{host.PackageKey(u.Name)}
}

// OverDeclared declares a service slot its body never reads.
type OverDeclared struct{ H *host.Linux }

func (o *OverDeclared) Check() core.CheckStatus {
	return core.CheckBool(o.H.ServiceActive("sshd"))
}

func (o *OverDeclared) CheckStateKeys() []host.StateKey {
	return []host.StateKey{
		host.ServiceKey("sshd"),
		host.ServiceKey("telnetd"), // want `OverDeclared declares svc:telnetd which Check never reads`
	}
}

// ViaHelper routes its config read through a helper method; the
// interprocedural summary still matches the declaration. Clean.
type ViaHelper struct {
	H             *host.Linux
	File, Setting string
}

func (v *ViaHelper) Check() core.CheckStatus {
	val, ok := v.lookup()
	return core.CheckBool(ok && val == "no")
}

func (v *ViaHelper) lookup() (string, bool) { return v.H.Config(v.File, v.Setting) }

func (v *ViaHelper) CheckStateKeys() []host.StateKey {
	return []host.StateKey{host.ConfigKey(v.File, v.Setting)}
}

// HelperLeak hides an undeclared service read behind a helper, and
// declares a package key it never reads.
type HelperLeak struct{ H *host.Linux }

func (h *HelperLeak) Check() core.CheckStatus {
	return core.CheckBool(h.probe()) // want `HelperLeak reads svc:cron \(via probe\) but CheckStateKeys does not declare it`
}

func (h *HelperLeak) probe() bool { return h.H.ServiceActive("cron") }

func (h *HelperLeak) CheckStateKeys() []host.StateKey {
	return []host.StateKey{host.PackageKey("cron")} // want `HelperLeak declares pkg:cron which Check never reads`
}

// DynamicKey reads a package whose name is computed at runtime: the
// analyzer cannot resolve the key, so it warns instead of erroring.
type DynamicKey struct{ H *host.Linux }

func (d *DynamicKey) Check() core.CheckStatus {
	name := pick()
	return core.CheckBool(d.H.Installed(name)) // want `DynamicKey reads a "pkg" key the analyzer cannot resolve`
}

func pick() string { return "x" }

func (d *DynamicKey) CheckStateKeys() []host.StateKey { return []host.StateKey{host.PackageKey("x")} }

// DeferRead reads inside a deferred closure; the read still happens
// during Check and must be declared.
type DeferRead struct{ H *host.Linux }

func (d *DeferRead) Check() core.CheckStatus {
	ok := true
	defer func() {
		ok = ok && d.H.Installed("sudo") // want `DeferRead reads pkg:sudo but CheckStateKeys does not declare it`
	}()
	return core.CheckBool(ok)
}

func (d *DeferRead) CheckStateKeys() []host.StateKey { return nil }

// Inventory reads the whole package inventory: no per-key declaration
// can make push mode sound for it.
type Inventory struct{ H *host.Linux }

func (i *Inventory) Check() core.CheckStatus {
	return core.CheckBool(len(i.H.Packages()) > 0) // want `Inventory reads the whole "pkg" inventory`
}

func (i *Inventory) CheckStateKeys() []host.StateKey { return []host.StateKey{host.PackageKey("bash")} }

// Escapes hands its host to a function value the analyzer cannot
// follow.
type Escapes struct {
	H     *host.Linux
	Probe func(*host.Linux) bool
}

func (e *Escapes) Check() core.CheckStatus {
	return core.CheckBool(e.Probe(e.H)) // want `Escapes may read host state through a call the analyzer cannot follow`
}

func (e *Escapes) CheckStateKeys() []host.StateKey { return []host.StateKey{host.PackageKey("bash")} }

// Waived carries a recorded suppression: the undeclared read is
// acknowledged, so no finding surfaces.
type Waived struct{ H *host.Linux }

func (wv *Waived) Check() core.CheckStatus {
	//lint:ignore keyreads metrics-only probe, index soundness reviewed by hand in PR 10
	return core.CheckBool(wv.H.Installed("ntp"))
}

func (wv *Waived) CheckStateKeys() []host.StateKey { return nil }

// NoDecl reads host state but implements no KeyReader at all: push
// mode must conservatively re-run it on every event.
type NoDecl struct{ H *host.Linux }

func (n *NoDecl) Check() core.CheckStatus { // want `NoDecl reads host state \(pkg:openssl\) but implements no core\.KeyReader`
	return core.CheckBool(n.H.Installed("openssl"))
}

// AuditCheck exercises the AuditPol.Run special case: the /subcategory
// flag built with fmt.Sprintf resolves to the audit slot. Clean.
type AuditCheck struct {
	AP  host.AuditPol
	Sub string
}

func (a *AuditCheck) Check() core.CheckStatus {
	out, err := a.AP.Run("/get", fmt.Sprintf("/subcategory:%q", a.Sub))
	return core.CheckBool(err == nil && out != "")
}

func (a *AuditCheck) CheckStateKeys() []host.StateKey { return []host.StateKey{host.AuditKey(a.Sub)} }

// Clean delegates Check to CheckCtx; the merged summary matches the
// declaration exactly. Clean.
type Clean struct {
	H   *host.Linux
	Pkg string
}

func (c *Clean) Check() core.CheckStatus { return c.CheckCtx(context.Background()) }

func (c *Clean) CheckCtx(ctx context.Context) core.CheckStatus {
	return core.CheckBool(c.H.InstalledCtx(ctx, c.Pkg))
}

func (c *Clean) CheckStateKeys() []host.StateKey { return []host.StateKey{host.PackageKey(c.Pkg)} }

// NetDeclared declares the connectivity key next to its package read:
// NetKey takes no argument and resolves to net:transport, a slot no
// accessor reads.
type NetDeclared struct{ H *host.Linux }

func (n *NetDeclared) Check() core.CheckStatus {
	return core.CheckBool(n.H.Installed("ufw"))
}

func (n *NetDeclared) CheckStateKeys() []host.StateKey {
	return []host.StateKey{
		host.PackageKey("ufw"),
		host.NetKey(), // want `NetDeclared declares net:transport which Check never reads`
	}
}

// LiteralKey builds its key as a struct literal instead of calling a
// host key constructor: the analyzer resolves constructor calls only.
type LiteralKey struct{ H *host.Linux }

func (l *LiteralKey) Check() core.CheckStatus {
	return core.CheckBool(l.H.Installed("ufw")) // want `LiteralKey reads pkg:ufw which no resolvable declared key covers`
}

func (l *LiteralKey) CheckStateKeys() []host.StateKey {
	return []host.StateKey{{Kind: host.KeyPackage, Name: "ufw"}} // want `LiteralKey declares a state key the analyzer cannot resolve`
}

// NoReads performs no host access at all; implementing no KeyReader is
// fine. Clean.
type NoReads struct{ Threshold int }

func (n *NoReads) Check() core.CheckStatus { return core.CheckBool(n.Threshold > 0) }
