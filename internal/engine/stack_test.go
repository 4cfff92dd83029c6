package engine_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"veridevops/internal/engine"
	"veridevops/internal/host"
	"veridevops/internal/telemetry"
)

// TestPanicStackContract pins which recovered panics carry a stack. Bugs
// do: a runtime error, a non-error panic value and an injected fault.
// Expected probe failures do not: a down host's ErrUnreachable, and the
// ErrCanceled a probe raises on an abandoned attempt's context. Every
// kind is otherwise recovered alike: each attempt counts in Panics, is
// retried, and its span is tagged outcome=panic. It is an external test
// package so it can drive the host sentinels, which host raises without
// importing engine.
func TestPanicStackContract(t *testing.T) {
	down := host.NewUbuntu1804()
	down.SetUnreachable(true)
	stale, cancel := context.WithCancel(context.Background())
	cancel()
	live := host.NewUbuntu1804()

	for _, tc := range []struct {
		name      string
		op        func(context.Context) int
		timeout   time.Duration
		wantStack bool
	}{
		{name: "nil-map write", wantStack: true, op: func(context.Context) int {
			var m map[string]int
			m["x"] = 1
			return 0
		}},
		{name: "panic(x)", wantStack: true, op: func(context.Context) int { panic("x") }},
		{name: "ErrInjectedPanic", wantStack: true, op: func(context.Context) int { panic(engine.ErrInjectedPanic) }},
		{name: "ErrUnreachable", op: func(ctx context.Context) int {
			down.InstalledCtx(ctx, "sudo")
			return 0
		}},
		// The probe sees an already-abandoned attempt's context while the
		// live attempt's deadline is far off, so the attempt reports the
		// recovered ErrCanceled rather than a timeout.
		{name: "ErrCanceled", timeout: time.Minute, op: func(context.Context) int {
			live.InstalledCtx(stale, "sudo")
			return 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			tr := telemetry.New(&buf)
			root := tr.Root("check")
			_, st := engine.AttemptCtx(tc.op, nil, nil, engine.Policy{
				MaxAttempts: 3, AttemptTimeout: tc.timeout, Sleep: func(time.Duration) {}, Span: root,
			})
			root.End()
			if err := tr.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			if st.Attempts != 3 || st.Retries != 2 || st.Panics != 3 {
				t.Errorf("stats = %+v, want 3 attempts / 2 retries / 3 panics", st)
			}
			recs, err := telemetry.ReadJSONL(&buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			roots := telemetry.BuildTree(recs)
			if len(roots) != 1 || len(roots[0].Children) != 3 {
				t.Fatalf("span tree = %+v, want one root with 3 attempts", roots)
			}
			for i, n := range roots[0].Children {
				if n.Name != "attempt" || n.Tags["outcome"] != "panic" {
					t.Errorf("span %d = %s outcome=%q, want attempt outcome=panic", i+1, n.Name, n.Tags["outcome"])
				}
			}
			pe, ok := st.Err.(*engine.PanicError)
			if !ok {
				t.Fatalf("err = %T %v, want *engine.PanicError", st.Err, st.Err)
			}
			if got := len(pe.Stack) > 0; got != tc.wantStack {
				t.Errorf("%v recovered with stack = %t, want %t", pe.Value, got, tc.wantStack)
			}
		})
	}
}
