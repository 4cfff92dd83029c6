package core

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// keyedReq is a test requirement declaring the state keys its Check
// reads, with an execution counter for subset-run assertions.
type keyedReq struct {
	Finding
	keys    []string
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

func (k *keyedReq) CheckStateKeys() []string { return k.keys }

func TestCheckKeys(t *testing.T) {
	r := &keyedReq{Finding: Finding{ID: "V-1"}, keys: []string{"pkg:telnetd"}}
	keys, ok := CheckKeys(r)
	if !ok || !reflect.DeepEqual(keys, []string{"pkg:telnetd"}) {
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

func (panicKeyReader) CheckStateKeys() []string { panic("broken declaration") }

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

// countingKeyReader declares one key, counts its declaration calls, and
// reads the catalogue it is registered in from inside the declaration.
type countingKeyReader struct {
	Finding
	CheckFunc
	EnforceFunc
	cat   *Catalog
	calls *atomic.Int64
}

func (r *countingKeyReader) CheckStateKeys() []string {
	r.calls.Add(1)
	r.cat.Len() // must not deadlock: declarations run outside the lock
	return []string{"pkg:" + r.ID}
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
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-4"}, keys: []string{"cfg:x"}})
	want(2, 2)
	if n := calls.Load(); n != 3 {
		t.Fatalf("declaration read %d times over three catalogue states, want 3", n)
	}
}
