package loadgen

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"veridevops/internal/core"
	"veridevops/internal/fleet"
	"veridevops/internal/host"
	"veridevops/internal/stig"
)

// Fleet synthesis. Per-mutation host construction logs tens of event-log
// entries per host, which at mega-fleet scale dominates both synthesis
// time and memory; instead each class hardens ONE reference host through
// the real STIG catalogue, snapshots it, and every synthesized host is
// bulk-provisioned (host.NewLinuxFromSnapshot, a single event) from that
// baseline merged with its seeded per-host picks.

// Host is one synthesized fleet member: the simulated machine, its
// class, and its audit catalogue.
type Host struct {
	Name  string
	Class string
	Linux *host.Linux

	classIndex int // position of Class in the fleet's Topology.Classes
	cat        *core.Catalog
	down       bool
}

// Target wires the host into the fleet coordinator: its own catalogue,
// cache-keyed by the version of the host's event log, which is handed
// over itself, so building a fleet's targets allocates no closure per
// host.
func (h *Host) Target() fleet.Target {
	return fleet.Target{Name: h.Name, Catalog: h.cat, Version: h.Linux.Log()}
}

// Down reports whether the host is currently marked unreachable.
func (h *Host) Down() bool { return h.down }

// Catalog returns the host's audit catalogue.
func (h *Host) Catalog() *core.Catalog { return h.cat }

// SetCatalog replaces the host's audit catalogue — the scenario
// executor's hook for wrapping requirements with fault injectors and
// restoring them afterwards. Swapping the catalogue does not advance the
// host's event-log version, so a cache entry keyed on it would replay
// the old catalogue's verdicts: callers re-watch the host
// (fleet.Streamer.Watch drops its entry, so the next flush runs the new
// catalogue in full) or invalidate the entry themselves.
func (h *Host) SetCatalog(c *core.Catalog) { h.cat = c }

// Fleet is a synthesized host population under churn: hosts join, leave
// and lose connectivity, so membership is mutable. Removal is
// swap-remove; name lookup stays O(1). Fleet is not goroutine-safe —
// the load driver alternates churn and sweeps, never overlapping them.
type Fleet struct {
	// Topology is the spec the fleet was synthesized from. Read it, do
	// not change it: its pick weights are tabulated once, at Synthesize.
	Topology Topology

	hosts   []*Host
	index   map[string]int // name -> position in hosts
	created []int          // per-class counter, names stay unique across leave/join
	downs   int
	rng     *rand.Rand // synthesis picks (class, packages, versions…)
	weights weightTables
	// targets is the buffer Targets refills.
	targets []fleet.Target
}

// weightTables are a topology's pick weights, tabulated once per Fleet
// instead of on every join and churn event: the class weights a join
// draws from and, per class index, the package, service and config-file
// weights of its per-host picks. The draws are the same ones a freshly
// built slice gives.
type weightTables struct {
	classes                     []int
	packages, services, configs [][]int
}

func newWeightTables(top Topology) weightTables {
	n := len(top.Classes)
	w := weightTables{
		classes:  weightsOf(top.Classes, func(c HostClass) int { return c.Weight }),
		packages: make([][]int, n),
		services: make([][]int, n),
		configs:  make([][]int, n),
	}
	for ci, c := range top.Classes {
		w.packages[ci] = weightsOf(c.Packages, func(p PackageDist) int { return p.Weight })
		w.services[ci] = weightsOf(c.Services, func(s ServiceDist) int { return s.Weight })
		w.configs[ci] = weightsOf(c.ConfigFiles, func(cf ConfigDist) int { return cf.Weight })
	}
	return w
}

// weightsOf lists the weight of each entry of a distribution, in order.
func weightsOf[T any](dist []T, weight func(T) int) []int {
	out := make([]int, len(dist))
	for i, d := range dist {
		out[i] = weight(d)
	}
	return out
}

// Synthesize builds n hosts from the topology spec, deterministically in
// seed. Classes are drawn by weight; DriftedFraction hosts per class are
// born non-compliant via seeded drift mutations.
func Synthesize(top Topology, n int, seed int64) (*Fleet, error) {
	if err := top.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("loadgen: fleet size %d, need > 0", n)
	}
	f := &Fleet{
		Topology: top,
		hosts:    make([]*Host, 0, n),
		index:    make(map[string]int, n),
		created:  make([]int, len(top.Classes)),
		rng:      rand.New(rand.NewSource(seed)),
		weights:  newWeightTables(top),
	}
	for i := 0; i < n; i++ {
		f.Join()
	}
	return f, nil
}

// baseline returns the hardened reference snapshot every synthesized
// host starts from, computed once per process: a stock Ubuntu host run
// through the STIG catalogue in enforce mode. Hardening one reference
// and cloning its snapshot is what makes 1M-host synthesis affordable —
// the catalogue runs once, not once per host.
var (
	baselineOnce sync.Once
	baselineSnap host.Snapshot
)

func baseline() host.Snapshot {
	baselineOnce.Do(func() {
		h := host.NewUbuntu1804()
		stig.UbuntuCatalog(h).Run(core.CheckAndEnforce)
		baselineSnap = h.Snapshot()
	})
	return baselineSnap
}

// Join synthesizes one new host (class drawn by weight) and adds it to
// the fleet. Also the churn engine's host-join event.
func (f *Fleet) Join() *Host {
	return f.joinClass(weightedPick(f.rng, f.weights.classes))
}

// JoinClass synthesizes one new host of the named class — the scenario
// executor's forced-class join, bypassing the weighted draw. Returns nil
// when the topology has no such class.
func (f *Fleet) JoinClass(name string) *Host {
	for ci, c := range f.Topology.Classes {
		if c.Name == name {
			return f.joinClass(ci)
		}
	}
	return nil
}

// joinClass provisions one host of class index ci from the hardened
// baseline plus the class's seeded per-host picks.
func (f *Fleet) joinClass(ci int) *Host {
	class := f.Topology.Classes[ci]

	base := baseline()
	snap := host.Snapshot{
		Packages: make(map[string]string, len(base.Packages)+class.PackagesPerHost),
		Services: make(map[string]bool, len(base.Services)+class.ServicesPerHost),
		Config:   make(map[host.ConfigSlot]string, len(base.Config)+class.ConfigKeysPerHost),
	}
	for k, v := range base.Packages {
		snap.Packages[k] = v
	}
	for k, v := range base.Services {
		snap.Services[k] = v
	}
	for k, v := range base.Config {
		snap.Config[k] = v
	}

	for i := 0; i < class.PackagesPerHost; i++ {
		p := class.Packages[weightedPick(f.rng, f.weights.packages[ci])]
		snap.Packages[p.Name] = packageVersion(f.rng, p)
	}
	for i := 0; i < class.ServicesPerHost; i++ {
		snap.Services[class.Services[weightedPick(f.rng, f.weights.services[ci])].Name] = true
	}
	for i := 0; i < class.ConfigKeysPerHost; i++ {
		cf := class.ConfigFiles[weightedPick(f.rng, f.weights.configs[ci])]
		keys := cf.Keys
		if keys < 1 {
			keys = 1
		}
		slot := host.ConfigSlot{File: cf.Path, Key: fmt.Sprintf("key-%02d", f.rng.Intn(keys))}
		snap.Config[slot] = fmt.Sprintf("v%d", f.rng.Intn(100))
	}

	l := host.NewLinuxFromSnapshot(snap)
	if f.rng.Float64() < class.DriftedFraction {
		host.DriftLinux(l, 1+f.rng.Intn(3), f.rng)
	}

	h := &Host{
		Name:       fmt.Sprintf("lg-%s-%06d", class.Name, f.created[ci]),
		Class:      class.Name,
		Linux:      l,
		classIndex: ci,
		cat:        stig.UbuntuCatalog(l),
	}
	f.created[ci]++
	f.index[h.Name] = len(f.hosts)
	f.hosts = append(f.hosts, h)
	return h
}

// Leave removes a host from the fleet (swap-remove) and reports whether
// it existed. A down host can leave; its pending events become orphans.
func (f *Fleet) Leave(name string) bool {
	i, ok := f.index[name]
	if !ok {
		return false
	}
	if f.hosts[i].down {
		f.downs--
	}
	last := len(f.hosts) - 1
	f.hosts[i] = f.hosts[last]
	f.index[f.hosts[i].Name] = i
	f.hosts = f.hosts[:last]
	delete(f.index, name)
	return true
}

// SetDown toggles a member's connectivity and reports whether anything
// changed.
func (f *Fleet) SetDown(name string, down bool) bool {
	i, ok := f.index[name]
	if !ok || f.hosts[i].down == down {
		return false
	}
	f.hosts[i].down = down
	f.hosts[i].Linux.SetUnreachable(down)
	if down {
		f.downs++
	} else {
		f.downs--
	}
	return true
}

// Size is the current member count; DownCount how many are unreachable.
func (f *Fleet) Size() int      { return len(f.hosts) }
func (f *Fleet) DownCount() int { return f.downs }

// Hosts exposes the live member slice; callers must not mutate it.
func (f *Fleet) Hosts() []*Host { return f.hosts }

// class returns the class spec a member was synthesized from.
func (f *Fleet) class(h *Host) *HostClass { return &f.Topology.Classes[h.classIndex] }

// Get resolves a member by name — the push driver's hook for wiring a
// freshly joined host into the streaming evaluator.
func (f *Fleet) Get(name string) (*Host, bool) {
	i, ok := f.index[name]
	if !ok {
		return nil, false
	}
	return f.hosts[i], true
}

// Targets returns the coordinator target list for the current
// membership. The slice is the Fleet's own buffer, refilled by every
// call, so a sweep allocates nothing here unless the fleet outgrew the
// buffer: it is valid until the next call, and callers hand it to one
// Sweep, not keep it. A call after hosts departed zeroes the
// tail they leave, so a departed host's catalogue and event log stay
// unreachable.
func (f *Fleet) Targets() []fleet.Target {
	n := len(f.hosts)
	if len(f.targets) > n {
		clear(f.targets[n:])
	}
	f.targets = slices.Grow(f.targets[:0], n)[:n]
	for i, h := range f.hosts {
		f.targets[i] = h.Target()
	}
	return f.targets
}

// pick returns a uniformly random member, or nil if the fleet is empty.
func (f *Fleet) pick(rng *rand.Rand) *Host {
	if len(f.hosts) == 0 {
		return nil
	}
	return f.hosts[rng.Intn(len(f.hosts))]
}

// pickReachable returns a random reachable member, or nil when none can
// be found (mutating an unreachable host would panic, so churn must not
// target one). Bounded rejection sampling keeps the draw deterministic.
func (f *Fleet) pickReachable(rng *rand.Rand) *Host {
	if len(f.hosts) == 0 || f.downs == len(f.hosts) {
		return nil
	}
	for tries := 0; tries < 64; tries++ {
		if h := f.pick(rng); !h.down {
			return h
		}
	}
	for _, h := range f.hosts {
		if !h.down {
			return h
		}
	}
	return nil
}

// pickDown returns a random unreachable member, or nil when none exist.
func (f *Fleet) pickDown(rng *rand.Rand) *Host {
	if f.downs == 0 {
		return nil
	}
	for tries := 0; tries < 64; tries++ {
		if h := f.pick(rng); h.down {
			return h
		}
	}
	for _, h := range f.hosts {
		if h.down {
			return h
		}
	}
	return nil
}

// packageVersion draws one of the package's version strings, "1.0" when
// the cardinality knob is unset.
func packageVersion(rng *rand.Rand, p PackageDist) string {
	if p.Versions <= 1 {
		return "1.0"
	}
	return fmt.Sprintf("1.%d", rng.Intn(p.Versions))
}
