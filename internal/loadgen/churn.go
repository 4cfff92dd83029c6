package loadgen

import (
	"fmt"
	"math/rand"

	"veridevops/internal/host"
)

// The churn engine: a seeded stream of fleet-state mutations — package
// upgrades and downgrades, compliance-breaking installs/removals,
// service flapping, config edits, hosts joining and leaving, hosts
// losing and regaining connectivity — applied one event at a time so the
// load driver can admit them through the rate limiter at a target
// events/sec.

// EventKind classifies one churn event.
type EventKind int

const (
	// PackageUpgrade bumps an installed class package to another of its
	// versions; PackageDowngrade is the same draw framed as a rollback.
	// Both are compliance-neutral noise: they dirty the host's event-log
	// version (forcing a re-audit) without changing its verdicts — the
	// background churn a real fleet emits constantly.
	PackageUpgrade EventKind = iota
	PackageDowngrade
	// PackageInstall installs a STIG-banned package (real drift);
	// PackageRemove removes a STIG-required one (real drift).
	PackageInstall
	PackageRemove
	// ServiceFlap disables then re-enables one of the host's services.
	ServiceFlap
	// ConfigEdit rewrites a class config key; occasionally (1 in 8) it
	// weakens the password-encryption setting instead — real drift.
	ConfigEdit
	// HostJoin synthesizes a new member; HostLeave removes one.
	HostJoin
	HostLeave
	// HostDown marks a member unreachable (probes panic, audits degrade);
	// HostUp restores one.
	HostDown
	HostUp

	numEventKinds
)

var eventKindNames = [...]string{
	"package-upgrade", "package-downgrade", "package-install",
	"package-remove", "service-flap", "config-edit",
	"host-join", "host-leave", "host-down", "host-up",
}

func (k EventKind) String() string {
	if k < 0 || int(k) >= len(eventKindNames) {
		return fmt.Sprintf("event-%d", int(k))
	}
	return eventKindNames[k]
}

// ChurnMix weights the event kinds the churn engine draws from. Zero
// weights drop a kind entirely; the zero value is replaced by
// DefaultMix.
type ChurnMix struct {
	PackageUpgrade   int `json:"package_upgrade,omitempty"`
	PackageDowngrade int `json:"package_downgrade,omitempty"`
	PackageInstall   int `json:"package_install,omitempty"`
	PackageRemove    int `json:"package_remove,omitempty"`
	ServiceFlap      int `json:"service_flap,omitempty"`
	ConfigEdit       int `json:"config_edit,omitempty"`
	HostJoin         int `json:"host_join,omitempty"`
	HostLeave        int `json:"host_leave,omitempty"`
	HostDown         int `json:"host_down,omitempty"`
	HostUp           int `json:"host_up,omitempty"`
}

// DefaultMix models steady-state operations: mostly routine package and
// config churn, some real drift, rare membership and connectivity
// events.
func DefaultMix() ChurnMix {
	return ChurnMix{
		PackageUpgrade:   30,
		PackageDowngrade: 5,
		PackageInstall:   8,
		PackageRemove:    8,
		ServiceFlap:      10,
		ConfigEdit:       25,
		HostJoin:         2,
		HostLeave:        2,
		HostDown:         3,
		HostUp:           7,
	}
}

func (m ChurnMix) weights() []int {
	return []int{
		m.PackageUpgrade, m.PackageDowngrade, m.PackageInstall,
		m.PackageRemove, m.ServiceFlap, m.ConfigEdit,
		m.HostJoin, m.HostLeave, m.HostDown, m.HostUp,
	}
}

func (m ChurnMix) isZero() bool {
	for _, w := range m.weights() {
		if w != 0 {
			return false
		}
	}
	return true
}

func (m ChurnMix) validate() error {
	if m.isZero() {
		return nil // zero value means DefaultMix
	}
	total := 0
	for i, w := range m.weights() {
		if w < 0 {
			return fmt.Errorf("loadgen: churn mix weight %s is negative", EventKind(i))
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("loadgen: churn mix weights sum to %d, need > 0", total)
	}
	return nil
}

// Event is one applied churn mutation: which kind hit which host.
// Host is empty for events that found no eligible target and were
// skipped.
type Event struct {
	Kind EventKind
	// Host is the member whose audit-visible state changed. For
	// HostLeave it names the departed member (whose verdict will never
	// arrive); for skipped events it is empty.
	Host string
	// Drift marks events that push a host out of compliance (banned
	// install, required removal, weakened crypto config), as opposed to
	// compliance-neutral churn.
	Drift bool
}

// Churn draws seeded events from a mix and applies them to the fleet.
// Not goroutine-safe; the driver interleaves Step with sweeps.
type Churn struct {
	fleet   *Fleet
	weights []int
	rng     *rand.Rand

	// Applied counts applied events per kind; Skipped counts draws that
	// found no eligible target (e.g. HostUp with nothing down).
	Applied [numEventKinds]int
	Skipped [numEventKinds]int
}

// NewChurn builds a churn engine over the fleet, deterministic in seed.
// A zero mix falls back to DefaultMix.
func NewChurn(f *Fleet, mix ChurnMix, seed int64) *Churn {
	if mix.isZero() {
		mix = DefaultMix()
	}
	return &Churn{
		fleet:   f,
		weights: mix.weights(),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Step draws one event kind from the mix, applies it, and returns what
// happened. ok is false when the drawn kind had no eligible target (the
// event is counted as skipped, nothing mutated).
func (c *Churn) Step() (ev Event, ok bool) {
	kind := EventKind(weightedPick(c.rng, c.weights))
	ev = c.apply(kind)
	if ev.Host == "" {
		c.Skipped[kind]++
		return ev, false
	}
	c.Applied[kind]++
	return ev, true
}

// Total returns applied and skipped event counts across all kinds.
func (c *Churn) Total() (applied, skipped int) {
	for k := 0; k < int(numEventKinds); k++ {
		applied += c.Applied[k]
		skipped += c.Skipped[k]
	}
	return applied, skipped
}

func (c *Churn) apply(kind EventKind) Event {
	ev := Event{Kind: kind}
	switch kind {
	case PackageUpgrade, PackageDowngrade:
		h := c.fleet.pickReachable(c.rng)
		if h == nil {
			return ev
		}
		class := c.fleet.class(h)
		if len(class.Packages) == 0 {
			return ev
		}
		p := class.Packages[weightedPick(c.rng, c.fleet.weights.packages[h.classIndex])]
		h.Linux.Install(p.Name, packageVersion(c.rng, p))
		ev.Host = h.Name
	case PackageInstall:
		h := c.fleet.pickReachable(c.rng)
		if h == nil {
			return ev
		}
		banned := host.BannedPackages[c.rng.Intn(len(host.BannedPackages))]
		h.Linux.Install(banned, "0.legacy")
		ev.Host, ev.Drift = h.Name, true
	case PackageRemove:
		h := c.fleet.pickReachable(c.rng)
		if h == nil {
			return ev
		}
		req := host.RequiredPackages[c.rng.Intn(len(host.RequiredPackages))]
		h.Linux.Remove(req)
		ev.Host, ev.Drift = h.Name, true
	case ServiceFlap:
		h := c.fleet.pickReachable(c.rng)
		if h == nil {
			return ev
		}
		class := c.fleet.class(h)
		if len(class.Services) == 0 {
			return ev
		}
		svc := class.Services[c.rng.Intn(len(class.Services))].Name
		h.Linux.DisableService(svc)
		h.Linux.EnableService(svc)
		ev.Host = h.Name
	case ConfigEdit:
		h := c.fleet.pickReachable(c.rng)
		if h == nil {
			return ev
		}
		if c.rng.Intn(8) == 0 {
			// Occasionally the edit is the classic compliance break.
			h.Linux.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "MD5")
			ev.Host, ev.Drift = h.Name, true
			return ev
		}
		class := c.fleet.class(h)
		if len(class.ConfigFiles) == 0 {
			return ev
		}
		cf := class.ConfigFiles[c.rng.Intn(len(class.ConfigFiles))]
		keys := cf.Keys
		if keys < 1 {
			keys = 1
		}
		h.Linux.SetConfig(cf.Path, fmt.Sprintf("key-%02d", c.rng.Intn(keys)),
			fmt.Sprintf("v%d", c.rng.Intn(100)))
		ev.Host = h.Name
	case HostJoin:
		ev.Host = c.fleet.Join().Name
	case HostLeave:
		if c.fleet.Size() <= 1 {
			return ev // never shrink to empty
		}
		h := c.fleet.pick(c.rng) // a down host may leave too
		c.fleet.Leave(h.Name)
		ev.Host = h.Name
	case HostDown:
		h := c.fleet.pickReachable(c.rng)
		if h == nil || !c.fleet.SetDown(h.Name, true) {
			return ev
		}
		ev.Host = h.Name
	case HostUp:
		h := c.fleet.pickDown(c.rng)
		if h == nil || !c.fleet.SetDown(h.Name, false) {
			return ev
		}
		ev.Host = h.Name
	}
	return ev
}
