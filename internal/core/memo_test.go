package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"veridevops/internal/engine"
)

// digestReq is a test requirement with a controllable state digest and an
// execution counter, for exercising the cross-host check memo.
type digestReq struct {
	Finding
	digest  string
	ok      bool
	verdict CheckStatus
	calls   *atomic.Int64
	delay   time.Duration
}

func (d *digestReq) Check() CheckStatus {
	if d.calls != nil {
		d.calls.Add(1)
	}
	if d.delay > 0 {
		//lint:ignore clockuse the fake check must really block so concurrent memo callers overlap in wall time
		time.Sleep(d.delay)
	}
	return d.verdict
}

func (d *digestReq) Enforce() EnforcementStatus { return EnforceSuccess }

func (d *digestReq) CheckStateDigest() (string, bool) { return d.digest, d.ok }

func TestCheckFingerprint(t *testing.T) {
	r := &digestReq{Finding: Finding{ID: "V-1"}, digest: "state-a", ok: true}
	fp, ok := CheckFingerprint(r)
	if !ok {
		t.Fatal("digestable requirement must fingerprint")
	}
	if fp != (Fingerprint{FindingID: "V-1", Digest: "state-a"}) {
		t.Errorf("fingerprint = %q", fp)
	}
	// Same finding, different state: distinct fingerprints.
	r2 := &digestReq{Finding: Finding{ID: "V-1"}, digest: "state-b", ok: true}
	if fp2, _ := CheckFingerprint(r2); fp2 == fp {
		t.Error("distinct states must not collide")
	}
	// Undigestable requirements don't fingerprint.
	r.ok = false
	if _, ok := CheckFingerprint(r); ok {
		t.Error("ok=false digest must disable fingerprinting")
	}
	// Plain requirements don't fingerprint.
	type plain struct {
		Finding
		CheckFunc
		EnforceFunc
	}
	if _, ok := CheckFingerprint(&plain{Finding: Finding{ID: "V-2"}}); ok {
		t.Error("non-digester must not fingerprint")
	}
}

// panicDigester's digest probe itself panics (an unreachable host).
type panicDigester struct {
	Finding
	CheckFunc
	EnforceFunc
}

func (panicDigester) CheckStateDigest() (string, bool) { panic("unreachable") }

func TestCheckFingerprintAbsorbsDigestPanic(t *testing.T) {
	if _, ok := CheckFingerprint(&panicDigester{Finding: Finding{ID: "V-3"}}); ok {
		t.Error("a panicking digest probe must disable dedup, not crash")
	}
}

func TestCheckMemoSingleFlight(t *testing.T) {
	m := NewCheckMemo()
	key := Fingerprint{FindingID: "V-1", Digest: "k"}
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, hit := m.acquire(key)
			if !hit {
				calls.Add(1)
				//lint:ignore clockuse widening a real race window; virtual time cannot interleave goroutines
				time.Sleep(5 * time.Millisecond)
				m.fulfill(key, Result{FindingID: "V-1", After: CheckPass})
				return
			}
			if res.FindingID != "V-1" || res.After != CheckPass {
				t.Errorf("replayed result = %+v", res)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("executors = %d, want exactly 1", calls.Load())
	}
	if m.Unique() != 1 {
		t.Errorf("Unique = %d, want 1", m.Unique())
	}
}

func TestRunEngineDedupsSharedFingerprints(t *testing.T) {
	// 8 "hosts" of one identically-configured fleet: the same finding with
	// the same state digest registered across 8 catalogues sharing a memo.
	memo := NewCheckMemo()
	var calls atomic.Int64
	var hits, misses int
	for i := 0; i < 8; i++ {
		cat := NewCatalog()
		cat.MustRegister(&digestReq{
			Finding: Finding{ID: "V-9", Sev: "medium"},
			digest:  "fleet-state", ok: true,
			verdict: CheckFail, calls: &calls,
		})
		rep, st := cat.RunEngine(RunOptions{Mode: CheckOnly, Workers: 1, Memo: memo})
		if rep.Results[0].After != CheckFail {
			t.Fatalf("host %d verdict = %s", i, rep.Results[0].After)
		}
		hits += st.DedupHits
		misses += st.DedupMisses
	}
	if calls.Load() != 1 {
		t.Errorf("shared check executed %d times, want 1", calls.Load())
	}
	if misses != 1 || hits != 7 {
		t.Errorf("dedup hits/misses = %d/%d, want 7/1", hits, misses)
	}
}

func TestRunEngineDedupOffWithoutMemoOrInEnforceMode(t *testing.T) {
	var calls atomic.Int64
	mk := func() *Catalog {
		cat := NewCatalog()
		cat.MustRegister(&digestReq{
			Finding: Finding{ID: "V-9"}, digest: "s", ok: true,
			verdict: CheckPass, calls: &calls,
		})
		return cat
	}
	// No memo: every run executes.
	mk().RunEngine(RunOptions{Mode: CheckOnly})
	mk().RunEngine(RunOptions{Mode: CheckOnly})
	if calls.Load() != 2 {
		t.Fatalf("memo-less runs executed %d checks, want 2", calls.Load())
	}
	// Enforce mode never consults the memo, even when one is wired.
	calls.Store(0)
	memo := NewCheckMemo()
	mk().RunEngine(RunOptions{Mode: CheckAndEnforce, Memo: memo})
	mk().RunEngine(RunOptions{Mode: CheckAndEnforce, Memo: memo})
	if calls.Load() != 2 {
		t.Errorf("enforce-mode runs executed %d checks, want 2 (dedup must stay off)", calls.Load())
	}
	if memo.Unique() != 0 {
		t.Errorf("enforce mode populated the memo: Unique = %d", memo.Unique())
	}
}

func TestRunEngineDedupConcurrentHosts(t *testing.T) {
	// Concurrent catalogue runs over one memo: single-flight across
	// goroutines, identical verdicts everywhere.
	memo := NewCheckMemo()
	var calls atomic.Int64
	var wg sync.WaitGroup
	reports := make([]Report, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cat := NewCatalog()
			for j := 0; j < 4; j++ {
				cat.MustRegister(&digestReq{
					Finding: Finding{ID: fmt.Sprintf("V-%d", j)},
					digest:  "shared", ok: true,
					verdict: CheckFail, calls: &calls, delay: time.Millisecond,
				})
			}
			reports[i], _ = cat.RunEngine(RunOptions{Mode: CheckOnly, Workers: 2, Memo: memo})
		}(i)
	}
	wg.Wait()
	if calls.Load() != 4 {
		t.Errorf("executed %d checks, want 4 (one per distinct fingerprint)", calls.Load())
	}
	for i, rep := range reports {
		for _, res := range rep.Results {
			if res.After != CheckFail {
				t.Fatalf("host %d %s verdict = %s, want FAIL", i, res.FindingID, res.After)
			}
		}
	}
}

func TestFaultyRequirementDigestGating(t *testing.T) {
	inner := &digestReq{Finding: Finding{ID: "V-1"}, digest: "s", ok: true, verdict: CheckPass}
	// Latency-only plan: digest passes through.
	slow := InjectFaults(inner, engine.NewFaultInjector(1, engine.FaultPlan{SlowProb: 1}))
	if _, ok := CheckFingerprint(slow); !ok {
		t.Error("latency-only faults must keep the requirement dedupable")
	}
	// Verdict-changing plans: no fingerprint.
	for name, plan := range map[string]engine.FaultPlan{
		"panic":     {PanicProb: 0.5},
		"transient": {TransientProb: 0.5},
		"failfirst": {FailFirst: 2},
	} {
		fr := InjectFaults(inner, engine.NewFaultInjector(1, plan))
		if _, ok := CheckFingerprint(fr); ok {
			t.Errorf("%s plan must disable dedup", name)
		}
	}
}
