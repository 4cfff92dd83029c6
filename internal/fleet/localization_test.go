package fleet

import (
	"strings"
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/host"
	"veridevops/internal/stig"
)

// mixedCatalog holds 8 indexed stig checks plus one unindexed plainReq.
func mixedCatalog(h *host.Linux) *core.Catalog {
	cat := stig.UbuntuCatalog(h)
	cat.MustRegister(&plainReq{
		Finding:     core.Finding{ID: "V-000009", Sev: "low", Desc: "undeclared probe"},
		CheckFunc:   func() core.CheckStatus { return core.CheckPass },
		EnforceFunc: func() core.EnforcementStatus { return core.EnforceSuccess },
	})
	return cat
}

func TestSweepReadLocalizationCounts(t *testing.T) {
	h1, h2 := host.NewUbuntu1804(), host.NewUbuntu1804()
	shared := mixedCatalog(h1)
	targets := []Target{
		// Two targets share one catalogue: counted once per host.
		{Name: "a", Catalog: shared},
		{Name: "b", Catalog: shared},
		{Name: "c", Catalog: stig.UbuntuCatalog(h2)},
		{Name: "nil-cat"},
	}
	_, st := Sweep(targets, Options{Shards: 2, Workers: 1})
	if st.IndexedChecks != 2*8+8 || st.UnindexedChecks != 2 {
		t.Fatalf("indexed/unindexed = %d/%d, want 24/2", st.IndexedChecks, st.UnindexedChecks)
	}
	want := float64(24) / 26
	if got := st.ReadLocalization(); got != want {
		t.Fatalf("ReadLocalization = %v, want %v", got, want)
	}
	if !strings.Contains(st.Summary(), "read localization") {
		t.Fatalf("Summary misses localization: %s", st.Summary())
	}
	// Deterministic: Canonical keeps the localization counters.
	c := st.Canonical()
	if c.IndexedChecks != st.IndexedChecks || c.UnindexedChecks != st.UnindexedChecks {
		t.Fatalf("Canonical dropped localization counters: %+v", c)
	}
}

func TestStreamerStatsReadLocalizationGauges(t *testing.T) {
	h := host.NewUbuntu1804()
	s := NewStreamer(NewCoordinator(), StreamOptions{Shards: 1, Workers: 1})
	s.Watch(Target{Name: "h0", Catalog: mixedCatalog(h), Version: h.Log()}, h.Log())
	st := s.Stats()
	if st.IndexedChecks != 8 || st.UnindexedChecks != 1 {
		t.Fatalf("indexed/unindexed = %d/%d, want 8/1", st.IndexedChecks, st.UnindexedChecks)
	}
	if got, want := st.ReadLocalization(), float64(8)/9; got != want {
		t.Fatalf("ReadLocalization = %v, want %v", got, want)
	}
	// Gauge semantics: unwatching removes the host's checks from the view.
	s.Unwatch("h0")
	if st := s.Stats(); st.IndexedChecks != 0 || st.UnindexedChecks != 0 {
		t.Fatalf("after Unwatch indexed/unindexed = %d/%d, want 0/0", st.IndexedChecks, st.UnindexedChecks)
	}
	if (StreamStats{}).ReadLocalization() != 0 {
		t.Fatal("empty ReadLocalization should be 0")
	}
}
