package scenario

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"veridevops/internal/host"
	"veridevops/internal/loadgen"
)

// Scenario fuzzing: random-walk the mutation grammar on the virtual
// clock, execute each generated spec once, and oracle on the run's own
// truth check — the push-evaluated final view must agree with a fresh
// full sweep of the final fleet on the verdict of every (host, finding)
// pair and on compliance — and on the run neither failing an assertion
// nor crashing. A divergence means the dependency index missed a key, a
// cached base replayed stale state, or the executor's fold logic lost a
// report. Failing step sequences are shrunk (delta-debugging over the
// step list) to a minimal reproducer.
//
// The grammar deliberately excludes fault injection: FailFirst plans are
// call-counted, and the reference sweep consumes injector calls too (it
// re-audits the full catalogue where a delta re-ran a subset), so
// injected-fault verdicts may diverge by design. Leave steps stay out of
// the direct grammar too (churn still exercises membership) so selector
// indices in a shrunk reproducer stay stable.

// fuzzTopology is the small two-class, zero-drift fleet fuzz specs run
// against: compliant at birth, every finding movement is step-driven.
func fuzzTopology() *loadgen.Topology {
	return &loadgen.Topology{
		Classes: []loadgen.HostClass{
			{
				Name: "web", Weight: 3,
				Packages: []loadgen.PackageDist{
					{Name: "web-pkg-00", Weight: 2, Versions: 3},
					{Name: "web-pkg-01", Weight: 1, Versions: 2},
				},
				PackagesPerHost: 2,
				Services: []loadgen.ServiceDist{
					{Name: "web-svc-00", Weight: 1},
				},
				ServicesPerHost: 1,
				ConfigFiles: []loadgen.ConfigDist{
					{Path: "/etc/web/conf-00", Weight: 1, Keys: 4},
				},
				ConfigKeysPerHost: 2,
			},
			{
				Name: "db", Weight: 1,
				Packages: []loadgen.PackageDist{
					{Name: "db-pkg-00", Weight: 1, Versions: 2},
				},
				PackagesPerHost: 1,
				ConfigFiles: []loadgen.ConfigDist{
					{Path: "/etc/db/conf-00", Weight: 1, Keys: 8},
				},
				ConfigKeysPerHost: 3,
			},
		},
		Mix: loadgen.ChurnMix{
			PackageUpgrade: 30, PackageInstall: 8, PackageRemove: 8,
			ServiceFlap: 10, ConfigEdit: 25, HostJoin: 4, HostLeave: 4,
			HostDown: 3, HostUp: 7,
		},
	}
}

// Generate draws one random spec from the mutation grammar,
// deterministic in seed.
func Generate(seed int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	sp := Spec{
		Name:     fmt.Sprintf("fuzz-%d", seed),
		Hosts:    4 + rng.Intn(6),
		Seed:     seed,
		Topology: fuzzTopology(),
		Window:   Duration(250 * time.Millisecond),
	}
	n := 5 + rng.Intn(12)
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += time.Duration(50+rng.Intn(400)) * time.Millisecond
		sp.Steps = append(sp.Steps, randomStep(rng, at, sp.Hosts))
	}
	return sp
}

// randomStep draws one mutation from the grammar.
func randomStep(rng *rand.Rand, at time.Duration, hosts int) Step {
	sel := func() string {
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf("#%d", rng.Intn(hosts))
		case 1:
			return fmt.Sprintf("web#%d", rng.Intn(hosts))
		default:
			return fmt.Sprintf("#%d..%d", 0, rng.Intn(hosts))
		}
	}
	st := Step{At: Duration(at)}
	switch rng.Intn(10) {
	case 0:
		st.Do, st.On = "install", sel()
		st.Package = host.BannedPackages[rng.Intn(len(host.BannedPackages))]
	case 1:
		st.Do, st.On = "remove", sel()
		st.Package = host.RequiredPackages[rng.Intn(len(host.RequiredPackages))]
	case 2:
		st.Do, st.On, st.Package = "install", sel(), "web-pkg-00"
		st.Version = fmt.Sprintf("1.%d", rng.Intn(3))
	case 3:
		st.Do, st.On, st.Service = "flap", sel(), "web-svc-00"
	case 4:
		st.Do, st.On = "config", sel()
		if rng.Intn(2) == 0 {
			st.File, st.Key = "/etc/login.defs", "ENCRYPT_METHOD"
			st.Value = []string{"MD5", "SHA512"}[rng.Intn(2)]
		} else {
			st.File, st.Key = "/etc/web/conf-00", fmt.Sprintf("key-%02d", rng.Intn(4))
			st.Value = fmt.Sprintf("v%d", rng.Intn(100))
		}
	case 5:
		st.Do, st.On = "unset-config", sel()
		st.File, st.Key = "/etc/web/conf-00", fmt.Sprintf("key-%02d", rng.Intn(4))
	case 6:
		st.Do = "join"
		st.Class = []string{"web", "db", ""}[rng.Intn(3)]
	case 7:
		st.Do, st.On = "down", sel()
	case 8:
		st.Do, st.On = "up", sel()
	default:
		st.Do, st.Events = "churn", 1+rng.Intn(8)
	}
	return st
}

// Oracle runs one spec and returns its first failure ("" = clean): an
// error, a divergence from the reference sweep, a failed step or an
// undeclared read. This is the fuzz predicate, and also usable directly
// on corpus specs.
func Oracle(sp Spec, opts Options) string {
	res, err := Run(sp, opts)
	if err != nil {
		return fmt.Sprintf("error: %v", err)
	}
	return res.Failure()
}

// Shrink minimizes a failing spec under pred (pred returns a non-empty
// failure description for specs that still fail): delta debugging over
// the step list — drop halves, then quarters, down to single steps —
// until no single-step removal preserves the failure. Steps keep their
// original At instants, so the reproducer replays the same timeline.
func Shrink(sp Spec, pred func(Spec) string) Spec {
	steps := sp.Steps
	try := func(candidate []Step) bool {
		c := sp
		c.Steps = candidate
		return len(candidate) > 0 && pred(c) != ""
	}
	chunk := (len(steps) + 1) / 2
	for chunk > 0 {
		removed := true
		for removed {
			removed = false
			for lo := 0; lo < len(steps); lo += chunk {
				hi := lo + chunk
				if hi > len(steps) {
					hi = len(steps)
				}
				candidate := append(append([]Step{}, steps[:lo]...), steps[hi:]...)
				if try(candidate) {
					steps = candidate
					removed = true
					break
				}
			}
		}
		chunk /= 2
	}
	sp.Steps = steps
	return sp
}

// FuzzResult summarizes one fuzzing campaign.
type FuzzResult struct {
	Iterations int
	// Seed of the first failing spec; Failure its oracle description.
	FailedSeed int64
	Failure    string
	// Minimal is the shrunk reproducer (valid only when Failure != "").
	Minimal Spec
}

// Failed reports whether the campaign found a failure.
func (fr FuzzResult) Failed() bool { return fr.Failure != "" }

// String renders the campaign outcome.
func (fr FuzzResult) String() string {
	if !fr.Failed() {
		return fmt.Sprintf("fuzz: %d iteration(s), no divergence", fr.Iterations)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz: seed %d fails after %d iteration(s): %s\n", fr.FailedSeed, fr.Iterations, fr.Failure)
	fmt.Fprintf(&b, "minimal reproducer (%d step(s)):\n", len(fr.Minimal.Steps))
	for i, st := range fr.Minimal.Steps {
		fmt.Fprintf(&b, "  #%d t=%v %s on=%q pkg=%q svc=%q file=%q key=%q value=%q events=%d\n",
			i, st.At.D(), st.Kind(), st.On, st.Package, st.Service, st.File, st.Key, st.Value, st.Events)
	}
	return b.String()
}

// Fuzz runs n generated specs through the oracle, stopping at the first
// failure and shrinking it to a minimal reproducer.
func Fuzz(n int, seed int64, opts Options) FuzzResult {
	fr := FuzzResult{}
	for i := 0; i < n; i++ {
		fr.Iterations++
		sp := Generate(seed + int64(i))
		if msg := Oracle(sp, opts); msg != "" {
			fr.FailedSeed = seed + int64(i)
			fr.Failure = msg
			fr.Minimal = Shrink(sp, func(c Spec) string { return Oracle(c, opts) })
			return fr
		}
	}
	return fr
}
