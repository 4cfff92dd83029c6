package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// noSleep makes backoffs free so retry tests run instantly.
func noSleep(p Policy) Policy {
	p.Sleep = func(time.Duration) {}
	return p
}

func TestAttemptSingleCleanCall(t *testing.T) {
	calls := 0
	v, st := Attempt(func() int { calls++; return 42 }, nil, nil, Policy{})
	if v != 42 || calls != 1 {
		t.Fatalf("v=%d calls=%d", v, calls)
	}
	if st.Attempts != 1 || st.Retries != 0 || st.Panics != 0 || st.Err != nil {
		t.Errorf("stats = %+v", st)
	}
}

func TestAttemptRetriesTransientValue(t *testing.T) {
	calls := 0
	op := func() int {
		calls++
		if calls < 3 {
			return -1 // transient
		}
		return 7
	}
	v, st := Attempt(op, func(v int) bool { return v < 0 }, nil, noSleep(Policy{MaxAttempts: 5}))
	if v != 7 {
		t.Fatalf("v = %d, want 7", v)
	}
	if st.Attempts != 3 || st.Retries != 2 {
		t.Errorf("stats = %+v, want 3 attempts / 2 retries", st)
	}
}

func TestAttemptExhaustedTransientReturnsVerdict(t *testing.T) {
	// A transient verdict on the last attempt is a legitimate outcome, not
	// an error: the caller gets the verdict, never the fallback.
	v, st := Attempt(func() int { return -1 },
		func(v int) bool { return v < 0 },
		func(error) int { return -999 },
		noSleep(Policy{MaxAttempts: 3}))
	if v != -1 {
		t.Fatalf("v = %d, want the transient verdict -1", v)
	}
	if st.Attempts != 3 || st.Err != nil {
		t.Errorf("stats = %+v", st)
	}
}

func TestAttemptPanicRecovery(t *testing.T) {
	v, st := Attempt(func() int { panic("boom") }, nil,
		func(err error) int {
			if _, ok := err.(*PanicError); !ok {
				t.Errorf("fallback err = %T %v, want *PanicError", err, err)
			}
			return -1
		},
		noSleep(Policy{MaxAttempts: 2}))
	if v != -1 {
		t.Fatalf("v = %d, want fallback -1", v)
	}
	if st.Attempts != 2 || st.Panics != 2 || st.Err == nil {
		t.Errorf("stats = %+v", st)
	}
}

func TestAttemptPanicThenSuccess(t *testing.T) {
	calls := 0
	op := func() int {
		calls++
		if calls == 1 {
			panic("flaky")
		}
		return 9
	}
	v, st := Attempt(op, nil, nil, noSleep(Policy{MaxAttempts: 3}))
	if v != 9 || st.Attempts != 2 || st.Panics != 1 || st.Err != nil {
		t.Errorf("v=%d stats=%+v", v, st)
	}
}

func TestAttemptNilFallbackZeroValue(t *testing.T) {
	v, st := Attempt(func() string { panic("x") }, nil, nil, Policy{})
	if v != "" || st.Panics != 1 {
		t.Errorf("v=%q stats=%+v", v, st)
	}
}

func TestAttemptTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	v, st := Attempt(func() int { <-block; return 1 }, nil,
		func(err error) int {
			if _, ok := err.(*TimeoutError); !ok {
				t.Errorf("err = %T, want *TimeoutError", err)
			}
			return -1
		},
		Policy{MaxAttempts: 1, AttemptTimeout: 5 * time.Millisecond})
	if v != -1 || st.Timeouts != 1 {
		t.Errorf("v=%d stats=%+v", v, st)
	}
}

// TestBackoffExponentialAndCapped pins the fixed retry schedule: 1ms,
// doubling after each retry, capped at 100ms.
func TestBackoffExponentialAndCapped(t *testing.T) {
	var slept []time.Duration
	p := Policy{
		MaxAttempts: 10,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	Attempt(func() int { return -1 }, func(int) bool { return true }, nil, p)
	want := []time.Duration{1, 2, 4, 8, 16, 32, 64, 100, 100}
	if len(slept) != len(want) {
		t.Fatalf("slept = %v", slept)
	}
	for i := range want {
		if slept[i] != want[i]*time.Millisecond {
			t.Errorf("backoff %d = %v, want %v", i, slept[i], want[i]*time.Millisecond)
		}
	}
}

// The pool tests below drive ForEach as the order-preserving parallel map
// the catalogue runner builds on it: item i writes row i of a slice the
// caller owns.

// squares fills out[i] = i*i through ForEach.
func squares(n, workers int) ([]int, PoolStats) {
	out := make([]int, n)
	st := ForEach(n, workers, func(i int) { out[i] = i * i })
	return out, st
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 200} {
		out, st := squares(100, workers)
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d out[%d] = %d", workers, i, v)
			}
		}
		if st.Workers < 1 || st.Workers > 100 {
			t.Errorf("workers = %d", st.Workers)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	calls := 0
	st := ForEach(0, 8, func(int) { calls++ })
	if calls != 0 || st.Workers != 0 {
		t.Errorf("calls=%d stats=%+v", calls, st)
	}
}

func TestMapPanicIsolation(t *testing.T) {
	out := make([]int, 4)
	st := ForEach(len(out), 2, func(i int) {
		if i == 2 {
			panic("poison")
		}
		out[i] = i + 10
	})
	if st.Panics != 1 {
		t.Errorf("panics = %d", st.Panics)
	}
	if out[0] != 10 || out[1] != 11 || out[2] != 0 || out[3] != 13 {
		t.Errorf("out = %v", out)
	}
}

func TestMapWorkersExceedItems(t *testing.T) {
	out, st := squares(3, 64)
	if st.Workers != 3 {
		t.Errorf("workers = %d, want clamp to 3 items", st.Workers)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestMapNonPositiveWorkers(t *testing.T) {
	for _, workers := range []int{0, -1, -100} {
		out, st := squares(2, workers)
		if st.Workers != 1 {
			t.Errorf("workers=%d: Workers = %d, want 1", workers, st.Workers)
		}
		if out[0] != 0 || out[1] != 1 {
			t.Errorf("workers=%d: out = %v", workers, out)
		}
	}
}

func TestMapAllItemsPanic(t *testing.T) {
	// A shard whose every item panics must still complete, with every
	// panic counted.
	st := ForEach(16, 4, func(int) { panic("total loss") })
	if st.Panics != 16 || st.Workers != 4 {
		t.Errorf("stats = %+v, want 16 panics on 4 workers", st)
	}
}

func TestMapBusyAndUtilization(t *testing.T) {
	var ran atomic.Int32
	st := ForEach(8, 4, func(int) {
		ran.Add(1)
		//lint:ignore clockuse pool busy-time is measured on the wall clock, so the worker must really block
		time.Sleep(time.Millisecond)
	})
	if ran.Load() != 8 {
		t.Fatalf("ran = %d", ran.Load())
	}
	if st.Busy < 8*time.Millisecond {
		t.Errorf("busy = %v, want >= 8ms", st.Busy)
	}
	if u := st.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
}

func TestFaultInjectorDeterministic(t *testing.T) {
	plan := FaultPlan{PanicProb: 0.2, TransientProb: 0.3, SlowProb: 0.2}
	a, b := NewFaultInjector(42, plan), NewFaultInjector(42, plan)
	seen := map[Fault]bool{}
	for i := 0; i < 200; i++ {
		fa, fb := a.Next(), b.Next()
		if fa != fb {
			t.Fatalf("call %d: %v vs %v — same seed must give same sequence", i, fa, fb)
		}
		seen[fa] = true
	}
	for _, f := range []Fault{FaultNone, FaultPanic, FaultTransient, FaultSlow} {
		if !seen[f] {
			t.Errorf("200 draws never produced %v", f)
		}
	}
	if a.Calls() != 200 {
		t.Errorf("calls = %d", a.Calls())
	}
	total := 0
	for _, f := range []Fault{FaultNone, FaultPanic, FaultTransient, FaultSlow} {
		total += a.Injected(f)
	}
	if total != 200 {
		t.Errorf("injected counts sum to %d", total)
	}
}

func TestFaultInjectorFailFirst(t *testing.T) {
	fi := NewFaultInjector(1, FaultPlan{FailFirst: 3})
	for i := 0; i < 3; i++ {
		if f := fi.Next(); f != FaultTransient {
			t.Fatalf("call %d = %v, want transient", i, f)
		}
	}
	for i := 0; i < 10; i++ {
		if f := fi.Next(); f != FaultNone {
			t.Fatalf("post-FailFirst call = %v, want none", f)
		}
	}
}

func TestFaultNames(t *testing.T) {
	if FaultNone.String() != "none" || FaultPanic.String() != "panic" ||
		FaultTransient.String() != "transient" || FaultSlow.String() != "slow" {
		t.Error("fault names wrong")
	}
}

func TestAttemptCtxCancelsAbandonedAttempt(t *testing.T) {
	// A cooperative op blocks until its context is cancelled at the
	// attempt deadline, then signals that it released its goroutine.
	released := make(chan struct{})
	op := func(ctx context.Context) int {
		<-ctx.Done()
		close(released)
		return -1
	}
	v, st := AttemptCtx(op, nil, func(error) int { return 99 },
		noSleep(Policy{AttemptTimeout: 5 * time.Millisecond}))
	if v != 99 {
		t.Fatalf("v = %d, want fallback 99", v)
	}
	if st.Timeouts != 1 {
		t.Errorf("stats = %+v, want 1 timeout", st)
	}
	select {
	case <-released:
	//lint:ignore clockuse deadlock watchdog on a real goroutine; virtual time cannot advance it
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned attempt never observed its cancelled context")
	}
}

func TestAttemptCtxNoTimeoutContextNeverCancelled(t *testing.T) {
	v, st := AttemptCtx(func(ctx context.Context) int {
		if ctx.Err() != nil {
			t.Error("context cancelled without an AttemptTimeout")
		}
		return 5
	}, nil, nil, Policy{})
	if v != 5 || st.Attempts != 1 {
		t.Fatalf("v=%d stats=%+v", v, st)
	}
}

func TestPullDrainsSharedQueue(t *testing.T) {
	var next atomic.Int64
	const n = 100
	var done atomic.Int64
	walls, ps := Pull(4, func(int) (func(), bool) {
		i := next.Add(1) - 1
		if i >= n {
			return nil, false
		}
		return func() { done.Add(1) }, true
	})
	if done.Load() != n {
		t.Fatalf("ran %d tasks, want %d", done.Load(), n)
	}
	if len(walls) != 4 || ps.Workers != 4 {
		t.Errorf("walls=%d workers=%d, want 4", len(walls), ps.Workers)
	}
	for w, d := range walls {
		if d <= 0 {
			t.Errorf("worker %d wall = %v, want > 0", w, d)
		}
	}
}

func TestPullPanicDoesNotKillWorker(t *testing.T) {
	var next atomic.Int64
	var clean atomic.Int64
	_, ps := Pull(2, func(int) (func(), bool) {
		i := next.Add(1) - 1
		if i >= 10 {
			return nil, false
		}
		if i%2 == 0 {
			return func() { panic("boom") }, true
		}
		return func() { clean.Add(1) }, true
	})
	if ps.Panics != 5 {
		t.Errorf("panics = %d, want 5", ps.Panics)
	}
	if clean.Load() != 5 {
		t.Errorf("clean tasks = %d, want 5: a panic must not retire the worker", clean.Load())
	}
}

func TestPullSingleWorkerInline(t *testing.T) {
	order := []int{}
	i := 0
	Pull(1, func(w int) (func(), bool) {
		if w != 0 {
			t.Fatalf("worker = %d, want 0", w)
		}
		if i >= 3 {
			return nil, false
		}
		j := i
		i++
		return func() { order = append(order, j) }, true
	})
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Errorf("order = %v", order)
	}
}
