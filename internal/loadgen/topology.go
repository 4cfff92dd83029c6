// Package loadgen is the mega-fleet load harness: it synthesizes
// 10k–1M simulated hosts from a declarative topology spec, replays a
// seeded churn stream against them through a token-bucket rate limiter,
// and drives continuous incremental sweeps on the fleet coordinator
// while measuring change→verdict detection latency per event — the
// scale harness behind cmd/vdo-load.
//
// A topology spec describes the fleet as weighted host classes. Each
// class carries weighted package/service/config-file distributions plus
// cardinality knobs (how many of each a host of that class gets, how
// many distinct versions a package cycles through), so a small spec
// fans out into an arbitrarily large but statistically shaped fleet.
// Synthesis, churn and replay are all deterministic in one seed: the
// same spec, size and seed produce byte-identical event streams and
// detection-latency percentiles on the virtual clock, which is what
// lets testdata/replay.golden (TestReplayGolden) act as a regression
// record.
package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
)

// PackageDist is one weighted package in a host class. Versions is the
// cardinality knob: how many distinct versions ("1.0" .. "1.<n-1>") the
// package cycles through under upgrade/downgrade churn.
type PackageDist struct {
	Name     string `json:"name"`
	Weight   int    `json:"weight"`
	Versions int    `json:"versions,omitempty"`
}

// ServiceDist is one weighted service in a host class.
type ServiceDist struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
}

// ConfigDist is one weighted configuration file in a host class. Keys is
// the cardinality knob: how many distinct "key-00".."key-NN" entries the
// file holds and churn edits.
type ConfigDist struct {
	Path   string `json:"path"`
	Weight int    `json:"weight"`
	Keys   int    `json:"keys,omitempty"`
}

// HostClass is one weighted host shape: web tier, database tier, edge
// box. A synthesized host of this class starts from the hardened STIG
// baseline and layers PackagesPerHost/ServicesPerHost/ConfigKeysPerHost
// weighted picks from the class distributions on top.
type HostClass struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`

	Packages        []PackageDist `json:"packages,omitempty"`
	PackagesPerHost int           `json:"packages_per_host,omitempty"`

	Services        []ServiceDist `json:"services,omitempty"`
	ServicesPerHost int           `json:"services_per_host,omitempty"`

	ConfigFiles       []ConfigDist `json:"config_files,omitempty"`
	ConfigKeysPerHost int          `json:"config_keys_per_host,omitempty"`

	// DriftedFraction of this class's hosts are born non-compliant
	// (seeded compliance-breaking mutations applied after provisioning),
	// so the first full sweep already has findings to report.
	DriftedFraction float64 `json:"drifted_fraction,omitempty"`
}

// Topology is the whole fleet spec: weighted host classes plus the
// churn mix the replay draws event kinds from (zero value: DefaultMix).
type Topology struct {
	Classes []HostClass `json:"classes"`
	Mix     ChurnMix    `json:"mix,omitempty"`
}

// Validate reports the first structural problem with the spec.
func (t Topology) Validate() error {
	if len(t.Classes) == 0 {
		return fmt.Errorf("loadgen: topology has no host classes")
	}
	total := 0
	seen := map[string]bool{}
	for i, c := range t.Classes {
		if c.Name == "" {
			return fmt.Errorf("loadgen: class %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("loadgen: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if c.Weight < 0 {
			return fmt.Errorf("loadgen: class %q has negative weight", c.Name)
		}
		total += c.Weight
		if c.DriftedFraction < 0 || c.DriftedFraction > 1 {
			return fmt.Errorf("loadgen: class %q drifted_fraction %v outside [0,1]", c.Name, c.DriftedFraction)
		}
		if c.PackagesPerHost > 0 && len(c.Packages) == 0 {
			return fmt.Errorf("loadgen: class %q wants %d packages per host but has no package distribution", c.Name, c.PackagesPerHost)
		}
		if c.ServicesPerHost > 0 && len(c.Services) == 0 {
			return fmt.Errorf("loadgen: class %q wants %d services per host but has no service distribution", c.Name, c.ServicesPerHost)
		}
		if c.ConfigKeysPerHost > 0 && len(c.ConfigFiles) == 0 {
			return fmt.Errorf("loadgen: class %q wants %d config keys per host but has no config-file distribution", c.Name, c.ConfigKeysPerHost)
		}
	}
	if total <= 0 {
		return fmt.Errorf("loadgen: topology class weights sum to %d, need > 0", total)
	}
	if err := t.Mix.validate(); err != nil {
		return err
	}
	return nil
}

// ParseTopology decodes a JSON topology spec and validates it. Unknown
// fields are rejected so a typoed knob fails loudly instead of silently
// shaping the fleet differently.
func ParseTopology(r io.Reader) (Topology, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var t Topology
	if err := dec.Decode(&t); err != nil {
		return Topology{}, fmt.Errorf("loadgen: parse topology: %w", err)
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// DefaultTopology is the built-in three-tier spec cmd/vdo-load uses when
// no -topology file is given: a package-heavy web tier, a config-heavy
// database tier and a lean edge tier, with 2% of web and db hosts born
// drifted.
func DefaultTopology() Topology {
	pkgs := func(prefix string, n, versions int) []PackageDist {
		out := make([]PackageDist, n)
		for i := range out {
			out[i] = PackageDist{
				Name:     fmt.Sprintf("%s-pkg-%02d", prefix, i),
				Weight:   1 + (n-i)/2, // mildly head-heavy
				Versions: versions,
			}
		}
		return out
	}
	svcs := func(prefix string, n int) []ServiceDist {
		out := make([]ServiceDist, n)
		for i := range out {
			out[i] = ServiceDist{Name: fmt.Sprintf("%s-svc-%02d", prefix, i), Weight: 1 + n - i}
		}
		return out
	}
	cfgs := func(prefix string, n, keys int) []ConfigDist {
		out := make([]ConfigDist, n)
		for i := range out {
			out[i] = ConfigDist{Path: fmt.Sprintf("/etc/%s/conf-%02d", prefix, i), Weight: 1, Keys: keys}
		}
		return out
	}
	return Topology{
		Classes: []HostClass{
			{
				Name: "web", Weight: 6,
				Packages: pkgs("web", 24, 4), PackagesPerHost: 12,
				Services: svcs("web", 8), ServicesPerHost: 4,
				ConfigFiles: cfgs("web", 4, 8), ConfigKeysPerHost: 6,
				DriftedFraction: 0.02,
			},
			{
				Name: "db", Weight: 3,
				Packages: pkgs("db", 12, 6), PackagesPerHost: 8,
				Services: svcs("db", 4), ServicesPerHost: 2,
				ConfigFiles: cfgs("db", 8, 16), ConfigKeysPerHost: 12,
				DriftedFraction: 0.02,
			},
			{
				Name: "edge", Weight: 1,
				Packages: pkgs("edge", 6, 2), PackagesPerHost: 3,
				Services: svcs("edge", 2), ServicesPerHost: 1,
				ConfigFiles: cfgs("edge", 2, 4), ConfigKeysPerHost: 2,
			},
		},
		Mix: DefaultMix(),
	}
}

// weightedPick returns an index into weights proportional to weight.
// Zero or negative total weight picks uniformly. Callers guarantee
// len(weights) > 0.
func weightedPick(rng *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return rng.Intn(len(weights))
	}
	n := rng.Intn(total)
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if n < w {
			return i
		}
		n -= w
	}
	return len(weights) - 1
}
