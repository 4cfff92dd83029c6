package fleet

import (
	"testing"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

// Seeded regression for the declared-reads contract: an intentionally
// under-declared check makes sweep and push evaluation diverge (the
// dependency index never re-triggers the check when the hidden slot
// changes), the dynamic oracle (VerifyReads) catches exactly that hole,
// and once the read is declared the two modes agree again — the same
// property every scenario run's truth check (push-evaluated final view
// against a fresh sweep) enforces over the shipped catalogues. An
// incremental sweep on the Streamer's own coordinator does not close the
// hole: it replays what the flushes cached, which is why push evaluation
// runs no such sweep.

// leakyCheck reads two package slots unconditionally but declares the
// second only when declareHidden is set.
type leakyCheck struct {
	core.Finding
	H             *host.Linux
	Declared      string
	Hidden        string
	declareHidden bool
}

func (c *leakyCheck) Check() core.CheckStatus {
	//lint:ignore directcheck test fixture probes its host directly to model a leaky pattern
	a := c.H.Installed(c.Declared)
	b := c.H.Installed(c.Hidden) // read before combining: no short-circuit
	return core.CheckBool(a && b)
}

func (c *leakyCheck) Enforce() core.EnforcementStatus { return core.EnforceSuccess }

func (c *leakyCheck) CheckStateKeys() []host.StateKey {
	keys := []host.StateKey{host.PackageKey(c.Declared)}
	if c.declareHidden {
		keys = append(keys, host.PackageKey(c.Hidden))
	}
	return keys
}

func leakyFixture(declareHidden bool) (*Streamer, *Coordinator, Target, *host.Linux, *core.Catalog) {
	h := host.NewLinux()
	h.Install("base", "1")
	h.Install("hidden", "1")
	cat := core.NewCatalog()
	cat.MustRegister(&leakyCheck{
		Finding:       core.Finding{ID: "LEAK-1", Sev: "high", Desc: "reads base and hidden packages"},
		H:             h,
		Declared:      "base",
		Hidden:        "hidden",
		declareHidden: declareHidden,
	})
	tg := Target{Name: "h0", Catalog: cat, Version: h.Log()}
	coord := NewCoordinator()
	s := NewStreamer(coord, StreamOptions{Shards: 1, Workers: 1})
	s.Watch(tg, h.Log())
	return s, coord, tg, h, cat
}

func TestUnderDeclaredReadDivergesSweepVsPush(t *testing.T) {
	s, coord, tg, h, cat := leakyFixture(false)

	s.Flush(0) // prime
	if pass, fail, _ := s.Counts(); pass != 1 || fail != 0 {
		t.Fatalf("primed counts = %d/%d, want 1 pass", pass, fail)
	}

	// The hidden (undeclared) slot drifts: the dependency index maps the
	// pkg:hidden event to no check, so push keeps the stale PASS.
	h.Remove("hidden")
	s.Flush(time.Second)
	if pass, fail, _ := s.Counts(); pass != 1 || fail != 0 {
		t.Fatalf("push counts after hidden drift = %d/%d; under-declared check unexpectedly re-ran", pass, fail)
	}

	// An incremental sweep on the Streamer's coordinator is no safety
	// net: the flush re-stamped the cache entry at the host's current
	// version, so the sweep replays the stale PASS.
	rep, st := coord.Sweep([]Target{tg}, Options{Shards: 1, Workers: 1, Incremental: true})
	if st.CachedHosts != 1 {
		t.Fatalf("incremental sweep CachedHosts = %d, want the flush's entry replayed", st.CachedHosts)
	}
	if pass, fail, _ := rep.Counts(); pass != 1 || fail != 0 {
		t.Fatalf("incremental sweep counts = %d/%d, want the stale pass", pass, fail)
	}

	// A fresh sweep sees the truth: FAIL. This is the divergence.
	rep, _ = NewCoordinator().Sweep([]Target{tg}, Options{Shards: 1, Workers: 1})
	if pass, fail, _ := rep.Counts(); pass != 0 || fail != 1 {
		t.Fatalf("sweep counts = %d/%d, want 1 fail", pass, fail)
	}

	// The dynamic oracle pinpoints the hole: an undeclared pkg:hidden read.
	vs := FatalViolations(VerifyReads(cat, h))
	if len(vs) != 1 || vs[0].Finding != "LEAK-1" || vs[0].Kind != ViolationUndeclared {
		t.Fatalf("VerifyReads fatal violations = %v, want one undeclared on LEAK-1", vs)
	}
	if len(vs[0].Keys) != 1 || vs[0].Keys[0] != host.PackageKey("hidden") {
		t.Fatalf("violation keys = %v, want [pkg:hidden]", vs[0].Keys)
	}
}

func TestDeclaredReadKeepsSweepAndPushEquivalent(t *testing.T) {
	s, _, tg, h, cat := leakyFixture(true)

	s.Flush(0)
	h.Remove("hidden")
	s.Flush(time.Second)
	// Declared: the event re-triggers the check; push sees the FAIL.
	if pass, fail, _ := s.Counts(); pass != 0 || fail != 1 {
		t.Fatalf("push counts after hidden drift = %d/%d, want 1 fail", pass, fail)
	}
	rep, _ := NewCoordinator().Sweep([]Target{tg}, Options{Shards: 1, Workers: 1})
	if pass, fail, _ := rep.Counts(); pass != 0 || fail != 1 {
		t.Fatalf("sweep counts = %d/%d, want 1 fail — modes must agree", pass, fail)
	}
	// And the oracle is clean: both reads declared, both keys read.
	if vs := VerifyReads(cat, h); len(vs) != 0 {
		t.Fatalf("VerifyReads = %v, want no violations", vs)
	}
}
