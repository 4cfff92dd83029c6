// Package host simulates the hosting environments that RQCODE requirements
// check and enforce: an Ubuntu-like Linux host (package database, services,
// configuration files) and a Windows 10-like host (audit policy store,
// registry). The real VeriDevOps prototype shells out to dpkg/auditpol on
// live machines; this package reproduces the observable state those tools
// read and write so the whole STIG catalogue is exercisable offline and in
// tests (see DESIGN.md, substitution table).
package host

import (
	"context"
	"sort"
	"sync"
)

// pkgState is a dpkg-style package record; the map key is its name.
type pkgState struct {
	version   string
	installed bool
}

// svcState is a systemd-style service record; the map key is its name.
type svcState struct {
	enabled, running bool
}

// ConfigSlot names one key of one configuration file. A struct key keeps
// ("/a:b", "c") and ("/a", "b:c") apart, which a joined string would not.
type ConfigSlot struct {
	File, Key string
}

// String renders the slot as "file:key", the form diffs print.
func (s ConfigSlot) String() string { return s.File + ":" + s.Key }

// Linux is a simulated Ubuntu host. The zero value is unusable; use
// NewLinux or NewUbuntu1804. All methods are safe for concurrent use.
type Linux struct {
	mu sync.Mutex
	// The state maps hold values, not pointers: a host's state costs its
	// map buckets, not one heap object per package, service or file.
	packages map[string]pkgState
	services map[string]svcState
	// config maps (file path, key) -> value, modelling the key-value style
	// configuration files STIG checks grep (sshd_config, login.defs, ...).
	config map[ConfigSlot]string
	log    *EventLog
	// readOnly makes every mutation a logged no-op, modelling hosts where
	// the enforcement agent lacks privileges — the failure-injection hook
	// for testing EnforcementStatus FAILURE paths.
	readOnly bool
	// unreachable makes every probe and mutation panic with ErrUnreachable,
	// modelling a host that dropped off the network mid-audit — the fault
	// hook that exercises the engine's panic isolation through real STIG
	// requirements (the check drivers of the VeriDevOps prototype fail this
	// way when ssh/WinRM transport dies).
	unreachable bool
	// rec, when attached, records every successful read's state key — the
	// dynamic declared-reads oracle (see record.go, fleet.VerifyReads).
	rec *ReadRecorder
}

// probeError is the type of the probe-failure sentinels below. Its
// ExpectedPanic marker tells the execution engine (internal/engine) that
// the panic is an anticipated transport failure rather than a bug, so the
// engine recovers it without capturing a goroutine stack. The sentinels
// are pointers, so callers compare them by identity (r == ErrUnreachable).
type probeError struct{ msg string }

func (e *probeError) Error() string { return e.msg }

// ExpectedPanic marks the value as an expected probe failure.
func (*probeError) ExpectedPanic() {}

// ErrUnreachable is the panic value every Linux operation raises while the
// host is marked unreachable. The fault-tolerant engine recovers it into a
// CheckError verdict — counted as a panic and retried like one, but
// without a captured stack, so a down host's audit costs about what an up
// host's does; code calling hosts directly will crash, which is the point
// of the hook.
var ErrUnreachable error = &probeError{"host: unreachable"}

// ErrCanceled is the panic value ctx-aware probes raise once the
// attempt's context is done: the execution engine has already abandoned
// the attempt (engine.Policy.AttemptTimeout), so unwinding here releases
// the probe goroutine early instead of letting it run to completion in
// the background. The engine's panic recovery absorbs the unwind without
// capturing a stack; the discarded attempt's verdict was never going to
// be read.
var ErrCanceled error = &probeError{"host: probe canceled"}

// SetUnreachable toggles the connectivity fault. While set, every probe
// and mutation panics with ErrUnreachable. Toggling back restores normal
// operation; host state is unaffected by the outage. Each transition is
// recorded in the event log (net.down / net.up) so post-mortem traces show
// when the transport was lost and regained — and so the fleet auditor's
// version-keyed cache re-audits the host after an outage.
func (l *Linux) SetUnreachable(down bool) {
	action, detail := "net.up", "transport restored"
	if down {
		action, detail = "net.down", "transport lost"
	}
	l.write(NetKey(), action, detail, func() { l.unreachable = down })
}

// ping panics when the host is unreachable; callers hold l.mu (every
// public method locks with a deferred unlock, so the panic unwinds
// cleanly and the host stays usable once reachable again).
func (l *Linux) ping() {
	if l.unreachable {
		panic(ErrUnreachable)
	}
}

// pingCtx is ping plus cooperative cancellation: an already-cancelled
// context means the engine abandoned this attempt, so the probe panics
// with ErrCanceled to unwind and release its goroutine. A nil context
// degrades to plain ping. Callers hold l.mu.
func (l *Linux) pingCtx(ctx context.Context) {
	if ctx != nil && ctx.Err() != nil {
		panic(ErrCanceled)
	}
	l.ping()
}

// SetReadOnly toggles mutation denial. While read-only, Install, Remove,
// service and config changes are logged as denied and have no effect.
func (l *Linux) SetReadOnly(ro bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.readOnly = ro
}

// write is the one path by which a Linux host's state changes: a
// mutator passes the key of the slot it changes, the event to log, and
// change, which mutates the slot. Under the host's lock write pings,
// then applies change and logs the event — or, on a read-only host,
// logs action+".denied" with the slot's name as detail, keeping the key
// so streaming consumers still re-verify the slot after a blocked
// enforcement. A connectivity flip (NetKey) is neither pinged nor
// denied, and logs nothing when the host already was in that state.
func (l *Linux) write(key StateKey, action, detail string, change func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if key.Kind == KeyNet {
		was := l.unreachable
		if change(); l.unreachable == was {
			return
		}
	} else if l.ping(); l.readOnly {
		action, detail = action+".denied", key.Name
	} else {
		change()
	}
	l.log.AppendKeyed(action, detail, key)
}

// NewLinux returns an empty Linux host.
func NewLinux() *Linux {
	return &Linux{
		packages: map[string]pkgState{},
		services: map[string]svcState{},
		config:   map[ConfigSlot]string{},
		log:      NewEventLog(),
	}
}

// NewUbuntu1804 returns a host resembling a default Ubuntu 18.04 server
// install: the compliance-relevant hardening packages are absent and no
// banned legacy service is installed, i.e. the host starts in the state the
// STIG audit typically finds in the field.
func NewUbuntu1804() *Linux {
	l := NewLinux()
	for _, p := range []string{"openssh-server", "sudo", "apt", "systemd"} {
		l.Install(p, "1.0")
	}
	l.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "SHA512")
	l.SetConfig("/etc/ssh/sshd_config", "PermitEmptyPasswords", "no")
	return l
}

// Log returns the host event log.
func (l *Linux) Log() *EventLog { return l.log }

// Install marks a package installed (apt-get install).
func (l *Linux) Install(name, version string) {
	l.write(PackageKey(name), "apt.install", name, func() {
		l.packages[name] = pkgState{version: version, installed: true}
	})
}

// Remove marks a package uninstalled (apt-get remove). Removing an unknown
// package is a no-op, matching apt semantics with --ignore-missing.
func (l *Linux) Remove(name string) {
	l.write(PackageKey(name), "apt.remove", name, func() {
		if p, ok := l.packages[name]; ok {
			p.installed = false
			l.packages[name] = p
		}
	})
}

// Version returns the installed version of the named package, empty when
// the package is absent.
func (l *Linux) Version(name string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ping()
	l.rec.observe(PackageKey(name))
	if p := l.packages[name]; p.installed {
		return p.version
	}
	return ""
}

// Installed reports whether the named package is installed (dpkg -l).
func (l *Linux) Installed(name string) bool {
	return l.InstalledCtx(nil, name)
}

// InstalledCtx is Installed with cooperative cancellation: the probe
// checks ctx at its boundary and panics with ErrCanceled when the
// owning attempt was already abandoned (see engine.AttemptCtx).
func (l *Linux) InstalledCtx(ctx context.Context, name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pingCtx(ctx)
	l.rec.observe(PackageKey(name))
	return l.packages[name].installed
}

// Packages returns the installed package names, sorted.
func (l *Linux) Packages() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ping()
	l.rec.observe(wildcard(KeyPackage))
	var out []string
	for name, p := range l.packages {
		if p.installed {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// EnableService enables and starts a service (systemctl enable --now).
func (l *Linux) EnableService(name string) {
	l.write(ServiceKey(name), "systemctl.enable", name, func() {
		l.services[name] = svcState{enabled: true, running: true}
	})
}

// DisableService disables and stops a service.
func (l *Linux) DisableService(name string) {
	l.write(ServiceKey(name), "systemctl.disable", name, func() {
		if _, ok := l.services[name]; ok {
			l.services[name] = svcState{}
		}
	})
}

// ServiceActive reports whether the service is enabled and running.
func (l *Linux) ServiceActive(name string) bool {
	return l.ServiceActiveCtx(nil, name)
}

// ServiceActiveCtx is ServiceActive with cooperative cancellation at the
// probe boundary (see InstalledCtx).
func (l *Linux) ServiceActiveCtx(ctx context.Context, name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pingCtx(ctx)
	l.rec.observe(ServiceKey(name))
	s := l.services[name]
	return s.enabled && s.running
}

// SetConfig sets key=value in the given configuration file.
func (l *Linux) SetConfig(file, key, value string) {
	k := ConfigKey(file, key)
	l.write(k, "config.set", k.Name+"="+value, func() {
		l.config[ConfigSlot{file, key}] = value
	})
}

// Config returns the value of key in file, with ok=false when unset.
func (l *Linux) Config(file, key string) (string, bool) {
	return l.ConfigCtx(nil, file, key)
}

// ConfigCtx is Config with cooperative cancellation at the probe
// boundary (see InstalledCtx).
func (l *Linux) ConfigCtx(ctx context.Context, file, key string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pingCtx(ctx)
	if l.rec != nil {
		l.rec.observe(ConfigKey(file, key))
	}
	v, ok := l.config[ConfigSlot{file, key}]
	return v, ok
}

// UnsetConfig removes a key from a configuration file.
func (l *Linux) UnsetConfig(file, key string) {
	k := ConfigKey(file, key)
	l.write(k, "config.unset", k.Name, func() {
		delete(l.config, ConfigSlot{file, key})
	})
}
