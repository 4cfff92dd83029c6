package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"veridevops/internal/host"
)

// keyedReq is a test requirement declaring the state keys its Check
// reads, with an execution counter for subset-run assertions.
type keyedReq struct {
	Finding
	keys    []host.StateKey
	verdict CheckStatus
	calls   *atomic.Int64
}

func (k *keyedReq) Check() CheckStatus {
	if k.calls != nil {
		k.calls.Add(1)
	}
	return k.verdict
}

func (k *keyedReq) Enforce() EnforcementStatus { return EnforceSuccess }

func (k *keyedReq) CheckStateKeys() []host.StateKey { return k.keys }

func TestCheckKeys(t *testing.T) {
	r := &keyedReq{Finding: Finding{ID: "V-1"}, keys: []host.StateKey{host.PackageKey("telnetd")}}
	keys, ok := CheckKeys(r)
	if !ok || !reflect.DeepEqual(keys, []host.StateKey{host.PackageKey("telnetd")}) {
		t.Errorf("CheckKeys = (%v, %v), want ([pkg:telnetd], true)", keys, ok)
	}
	// An empty declaration is the same as no declaration.
	r.keys = nil
	if _, ok := CheckKeys(r); ok {
		t.Error("empty key set must report ok=false")
	}
	// Plain requirements don't declare keys.
	type plain struct {
		Finding
		CheckFunc
		EnforceFunc
	}
	if _, ok := CheckKeys(&plain{Finding: Finding{ID: "V-2"}}); ok {
		t.Error("non-KeyReader must not declare keys")
	}
}

// panicKeyReader's declaration itself panics; the indexer must degrade
// to full re-audits, not crash.
type panicKeyReader struct {
	Finding
	CheckFunc
	EnforceFunc
}

func (panicKeyReader) CheckStateKeys() []host.StateKey { panic("broken declaration") }

func TestCheckKeysAbsorbsPanic(t *testing.T) {
	if _, ok := CheckKeys(&panicKeyReader{Finding: Finding{ID: "V-3"}}); ok {
		t.Error("a panicking key declaration must disable indexing, not crash")
	}
}

func TestRunEngineOnlySubset(t *testing.T) {
	c := NewCatalog()
	var a, b, d atomic.Int64
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-2"}, verdict: CheckPass, calls: &b})
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-1"}, verdict: CheckFail, calls: &a})
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-3"}, verdict: CheckPass, calls: &d})

	rep, stats := c.RunEngine(RunOptions{Only: []string{"V-3", "V-1", "V-404"}})
	if a.Load() != 1 || b.Load() != 0 || d.Load() != 1 {
		t.Errorf("calls = V-1:%d V-2:%d V-3:%d, want 1/0/1", a.Load(), b.Load(), d.Load())
	}
	if stats.Requirements != 2 || len(rep.Results) != 2 {
		t.Fatalf("subset run covered %d requirements, want 2", stats.Requirements)
	}
	// The subset report keeps finding-ID order regardless of Only's order.
	if rep.Results[0].FindingID != "V-1" || rep.Results[1].FindingID != "V-3" {
		t.Errorf("subset order = %s, %s; want V-1, V-3", rep.Results[0].FindingID, rep.Results[1].FindingID)
	}

	// An empty non-nil Only runs nothing; nil runs everything.
	rep, _ = c.RunEngine(RunOptions{Only: []string{}})
	if len(rep.Results) != 0 {
		t.Errorf("empty Only ran %d requirements, want 0", len(rep.Results))
	}
	rep, _ = c.RunEngine(RunOptions{})
	if len(rep.Results) != 3 {
		t.Errorf("nil Only ran %d requirements, want 3", len(rep.Results))
	}
}

// TestRunEngineOnlyRunsEachIDOnce names one entry three times, sorted
// and unsorted: it runs and reports once either way.
func TestRunEngineOnlyRunsEachIDOnce(t *testing.T) {
	c := NewCatalog()
	var a, b atomic.Int64
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-1"}, verdict: CheckPass, calls: &a})
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-2"}, verdict: CheckPass, calls: &b})
	for _, only := range [][]string{{"V-1", "V-1", "V-1", "V-2"}, {"V-1", "V-2", "V-1", "V-1"}} {
		a.Store(0)
		b.Store(0)
		rep, _ := c.RunEngine(RunOptions{Only: only})
		if a.Load() != 1 || b.Load() != 1 || len(rep.Results) != 2 ||
			rep.Results[0].FindingID != "V-1" || rep.Results[1].FindingID != "V-2" {
			t.Errorf("Only %v: calls V-1:%d V-2:%d, results %v; want each once, in ID order", only, a.Load(), b.Load(), rep.Results)
		}
	}
}

// TestRunEngineOnlyResultsInFindingIDOrder pins the order fleet's
// report merge relies on: whatever order a catalogue was registered in,
// whatever order Only names its subset in and however many workers run
// it, a subset run returns exactly the named entries, sorted by finding
// ID.
func TestRunEngineOnlyResultsInFindingIDOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		c := NewCatalog()
		for _, i := range rng.Perm(40) {
			c.MustRegister(&keyedReq{Finding: Finding{ID: fmt.Sprintf("V-%03d", i)}, verdict: CheckPass})
		}
		var only []string
		for _, i := range rng.Perm(40)[:1+rng.Intn(40)] {
			only = append(only, fmt.Sprintf("V-%03d", i))
		}
		rep, _ := c.RunEngine(RunOptions{Only: only, Workers: 1 + rng.Intn(4)})
		got := make([]string, len(rep.Results))
		for i, r := range rep.Results {
			got[i] = r.FindingID
		}
		want := slices.Clone(only)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: Only %v ran %v, want %v", trial, only, got, want)
		}
	}
}

// countingKeyReader declares one key, counts its declaration calls, and
// reads the catalogue it is registered in from inside the declaration.
type countingKeyReader struct {
	Finding
	CheckFunc
	EnforceFunc
	cat   *Catalog
	calls *atomic.Int64
}

func (r *countingKeyReader) CheckStateKeys() []host.StateKey {
	r.calls.Add(1)
	r.cat.Len() // must not deadlock: declarations run outside the lock
	return []host.StateKey{host.PackageKey(r.ID)}
}

func TestCatalogKeyDeclarationsRecomputedAfterRegister(t *testing.T) {
	c := NewCatalog()
	want := func(declared, undeclared int) {
		t.Helper()
		if d, u := c.KeyDeclarations(); d != declared || u != undeclared {
			t.Fatalf("KeyDeclarations = %d/%d, want %d/%d", d, u, declared, undeclared)
		}
	}
	want(0, 0)
	var calls atomic.Int64
	c.MustRegister(&countingKeyReader{Finding: Finding{ID: "V-1"}, cat: c, calls: &calls})
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-2"}}) // empty declaration
	want(1, 1)
	want(1, 1)
	if n := calls.Load(); n != 1 {
		t.Fatalf("declaration read %d times over two calls, want once per catalogue state", n)
	}
	c.MustRegister(&panicKeyReader{Finding: Finding{ID: "V-3"}})
	want(1, 2)
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-4"}, keys: []host.StateKey{host.ConfigKey("/etc/x", "k")}})
	want(2, 2)
	if n := calls.Load(); n != 3 {
		t.Fatalf("declaration read %d times over three catalogue states, want 3", n)
	}
}
