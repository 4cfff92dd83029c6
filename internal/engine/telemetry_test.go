package engine

import (
	"bytes"
	"context"
	"testing"
	"time"

	"veridevops/internal/telemetry"
)

// TestAttemptSpansCarryOutcomes drives one Attempt through a panic, a
// transient verdict and a final success, and checks the emitted
// per-attempt spans carry the matching outcome tags in order.
func TestAttemptSpansCarryOutcomes(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.New(&buf)
	root := tr.Root("check")

	calls := 0
	op := func() string {
		calls++
		switch calls {
		case 1:
			panic("injected")
		case 2:
			return "transient"
		default:
			return "ok"
		}
	}
	v, st := Attempt(op,
		func(s string) bool { return s == "transient" },
		nil,
		Policy{MaxAttempts: 3, Sleep: func(time.Duration) {}, Span: root})
	root.End()
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if v != "ok" || st.Attempts != 3 || st.Panics != 1 {
		t.Fatalf("attempt result = %q stats %+v", v, st)
	}

	recs, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	roots := telemetry.BuildTree(recs)
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	var outcomes []string
	for _, n := range roots[0].Children {
		if n.Name != "attempt" {
			t.Fatalf("child %q, want attempt", n.Name)
		}
		outcomes = append(outcomes, n.Tags["outcome"])
	}
	want := []string{"panic", "transient", "ok"}
	if len(outcomes) != len(want) {
		t.Fatalf("attempt spans = %v, want %v", outcomes, want)
	}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Errorf("attempt %d outcome = %q, want %q", i+1, outcomes[i], want[i])
		}
	}
}

// TestAttemptSpanTimeout checks an abandoned attempt's span is tagged
// timeout.
func TestAttemptSpanTimeout(t *testing.T) {
	tr := telemetry.New(nil)
	root := tr.Root("check")
	_, st := AttemptCtx(func(ctx context.Context) int {
		// Block until the attempt timeout cancels the context, then unwind:
		// the attempt is abandoned without any wall-clock sleep.
		<-ctx.Done()
		return 1
	}, nil, nil, Policy{MaxAttempts: 1, AttemptTimeout: time.Millisecond, Span: root})
	root.End()
	if st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
	rows := tr.Breakdown()
	found := false
	for _, r := range rows {
		if r.Name == "attempt" && r.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("no attempt row in breakdown: %+v", rows)
	}
}
