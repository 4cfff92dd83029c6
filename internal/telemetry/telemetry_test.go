package telemetry

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestVirtualClockDeterministicDurations drives a small span tree on a
// virtual clock and checks the exported records have the exact durations
// the clock arithmetic implies: every span reads the clock once at start
// and once at end.
func TestVirtualClockDeterministicDurations(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, WithClock(NewVirtualClock(time.Millisecond)))
	root := tr.Root("sweep") // reads 0ms
	child := root.Child("host")
	child.Tag("host", "h0") // reads 1ms
	child.End()             // reads 2ms -> dur 1ms
	root.End()              // reads 3ms -> dur 3ms
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	recs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	// Record order depends on collector drain order, not End order; look
	// spans up by name.
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	hostRec, sweepRec := byName["host"], byName["sweep"]
	if hostRec.DurUS != 1000 {
		t.Errorf("child record = %+v, want dur 1000us", hostRec)
	}
	if sweepRec.DurUS != 3000 {
		t.Errorf("root record = %+v, want dur 3000us", sweepRec)
	}
	if hostRec.Parent != sweepRec.ID {
		t.Errorf("child parent = %d, want root id %d", hostRec.Parent, sweepRec.ID)
	}
	if hostRec.Trace != sweepRec.ID || sweepRec.Trace != sweepRec.ID {
		t.Errorf("trace ids = %d/%d, want both %d", hostRec.Trace, sweepRec.Trace, sweepRec.ID)
	}
	if hostRec.Tags["host"] != "h0" {
		t.Errorf("child tags = %v, want host=h0", hostRec.Tags)
	}
}

func TestBuildTreeReassemblesHierarchy(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	root := tr.Root("sweep")
	for i := 0; i < 2; i++ {
		sh := root.Child("shard")
		h := sh.Child("host")
		h.End()
		sh.End()
	}
	root.End()
	tr.Flush()
	recs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	roots := BuildTree(recs)
	if len(roots) != 1 || roots[0].Name != "sweep" {
		t.Fatalf("roots = %v, want one sweep", roots)
	}
	if len(roots[0].Children) != 2 {
		t.Fatalf("sweep children = %d, want 2 shards", len(roots[0].Children))
	}
	for _, sh := range roots[0].Children {
		if sh.Name != "shard" || len(sh.Children) != 1 || sh.Children[0].Name != "host" {
			t.Errorf("shard subtree wrong: %+v", sh)
		}
	}
	if roots[0].Find("host") == nil {
		t.Error("Find(host) = nil")
	}
	n := 0
	roots[0].Walk(func(*Node) { n++ })
	if n != 5 {
		t.Errorf("Walk visited %d nodes, want 5", n)
	}
}

// TestBuildTreeLeakedParent: a span whose parent never ended must surface
// as a root, not be dropped.
func TestBuildTreeLeakedParent(t *testing.T) {
	recs := []Record{{ID: 7, Parent: 3, Name: "orphan"}}
	roots := BuildTree(recs)
	if len(roots) != 1 || roots[0].Name != "orphan" {
		t.Fatalf("roots = %v, want the orphan promoted to root", roots)
	}
}

func TestBreakdownOrdersByTotal(t *testing.T) {
	tr := New(nil, WithClock(NewVirtualClock(time.Millisecond)))
	long := tr.Root("long") // 0
	short := tr.Root("short")
	short.End() // 1,2 -> 1ms
	long.End()  // 3 -> 3ms
	rows := tr.Breakdown()
	if len(rows) != 2 || rows[0].Name != "long" || rows[1].Name != "short" {
		t.Fatalf("breakdown = %+v, want long before short", rows)
	}
	if rows[0].Total != 3*time.Millisecond || rows[0].Count != 1 {
		t.Errorf("long row = %+v", rows[0])
	}
}

func TestTracerConcurrentChildren(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	root := tr.Root("sweep")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := root.Child("host").TagInt("i", i)
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	recs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(recs) != 9 {
		t.Fatalf("records = %d, want 9", len(recs))
	}
}

func TestMetricsRegistry(t *testing.T) {
	m := NewMetrics()
	m.Add("sweeps", 1)
	m.Add("sweeps", 2)
	m.SetGauge("utilization", 0.5)
	m.Observe("wall", 50*time.Microsecond)
	m.Observe("wall", 5*time.Millisecond)
	if got := m.Counter("sweeps"); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if v, ok := m.Gauge("utilization"); !ok || v != 0.5 {
		t.Errorf("gauge = %v/%v, want 0.5/true", v, ok)
	}
	h := m.Histogram("wall")
	if h.Count != 2 || h.Total != 50*time.Microsecond+5*time.Millisecond {
		t.Errorf("histogram summary = %+v", h)
	}
	if h.Min != 50*time.Microsecond || h.Max != 5*time.Millisecond {
		t.Errorf("histogram min/max = %v/%v", h.Min, h.Max)
	}
	if h.Mean() != (50*time.Microsecond+5*time.Millisecond)/2 {
		t.Errorf("mean = %v", h.Mean())
	}
	out := m.Table("metrics").String()
	for _, want := range []string{"sweeps", "counter", "utilization", "gauge", "wall", "histogram"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestNilTelemetryZeroAllocs is the disabled-path contract: the whole
// span and metrics API on nil receivers must allocate nothing, so the
// hot loops keep their instrumentation unconditionally.
func TestNilTelemetryZeroAllocs(t *testing.T) {
	var tr *Tracer
	var m *Metrics
	allocs := testing.AllocsPerRun(1000, func() {
		root := tr.Root("sweep")
		sp := root.Child("host").Tag("host", "h").TagInt("n", 3).TagBool("cached", true)
		sp.End()
		root.End()
		tr.Flush()
		if tr.Breakdown() != nil {
			t.Fatal("nil breakdown expected")
		}
		m.Add("c", 1)
		m.SetGauge("g", 1)
		m.Observe("h", time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("nil telemetry path allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkTelemetryDisabled measures the nil-receiver fast path the
// engine/fleet/monitor hot loops pay when telemetry is off. The
// acceptance bar is 0 allocs/op (see `make bench`).
func BenchmarkTelemetryDisabled(b *testing.B) {
	var tr *Tracer
	var m *Metrics
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := tr.Root("sweep")
		sp := root.Child("host").Tag("host", "h").TagInt("n", i).TagBool("cached", false)
		sp.End()
		root.End()
		m.Add("c", 1)
		m.Observe("h", time.Microsecond)
	}
}

// BenchmarkTelemetryEnabledSpan is the enabled counterpart: one tagged
// span through an aggregate-only tracer, for the overhead comparison.
func BenchmarkTelemetryEnabledSpan(b *testing.B) {
	tr := New(nil)
	root := tr.Root("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := root.Child("host").Tag("host", "h").TagInt("n", i)
		sp.End()
	}
}

// recordingSink copies every offered span (SpanData.Tags is only valid
// during the call, per the Sink contract).
type recordingSink struct {
	mu    sync.Mutex
	spans []SpanData
}

func (rs *recordingSink) Offer(d SpanData) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	cp := d
	cp.Tags = append([]string(nil), d.Tags...)
	rs.spans = append(rs.spans, cp)
}

func TestSinkReceivesEndedSpans(t *testing.T) {
	rs := &recordingSink{}
	tr := New(nil, WithClock(NewVirtualClock(time.Millisecond)), WithSink(rs))
	root := tr.Root("sweep")
	child := root.Child("check").Tag("finding", "CIS-1.1").TagBool("cached", false)
	child.End()
	root.End()
	if len(rs.spans) != 2 {
		t.Fatalf("sink got %d spans, want 2", len(rs.spans))
	}
	c, r := rs.spans[0], rs.spans[1]
	if c.Name != "check" || r.Name != "sweep" {
		t.Fatalf("sink order = %s,%s, want check,sweep", c.Name, r.Name)
	}
	if c.Parent != r.ID || c.Trace != r.ID || r.Trace != r.ID {
		t.Errorf("links = parent %d trace %d/%d, want all %d", c.Parent, c.Trace, r.Trace, r.ID)
	}
	if c.Dur != time.Millisecond || r.Dur != 3*time.Millisecond {
		t.Errorf("durations = %v/%v, want 1ms/3ms", c.Dur, r.Dur)
	}
	want := []string{"finding", "CIS-1.1", "cached", "false"}
	if len(c.Tags) != len(want) {
		t.Fatalf("tags = %v, want %v", c.Tags, want)
	}
	for i := range want {
		if c.Tags[i] != want[i] {
			t.Fatalf("tags = %v, want %v", c.Tags, want)
		}
	}
}

// TestChildTraceRootsNewTrace: ChildTrace keeps the span-tree parent link
// but starts its own trace — the fleet's per-host trace boundary.
func TestChildTraceRootsNewTrace(t *testing.T) {
	rs := &recordingSink{}
	tr := New(nil, WithSink(rs))
	sweep := tr.Root("sweep")
	host := sweep.ChildTrace("host")
	check := host.Child("check")
	check.End()
	host.End()
	sweep.End()
	byName := map[string]SpanData{}
	for _, d := range rs.spans {
		byName[d.Name] = d
	}
	h, c, s := byName["host"], byName["check"], byName["sweep"]
	if h.Parent != s.ID {
		t.Errorf("host parent = %d, want sweep id %d (tree link preserved)", h.Parent, s.ID)
	}
	if h.Trace != h.ID {
		t.Errorf("host trace = %d, want own id %d (new trace root)", h.Trace, h.ID)
	}
	if c.Trace != h.ID || c.Trace == s.Trace {
		t.Errorf("check trace = %d, want host trace %d distinct from sweep trace %d", c.Trace, h.ID, s.Trace)
	}
}

// TestJSONStringEscaping: the manual marshaller must round-trip hostile
// tag content through encoding/json's decoder.
func TestJSONStringEscaping(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	sp := tr.Root(`na"me\with` + "\n\t\x01" + `controls`)
	sp.Tag(`k"ey`, "v\\al\r\x1f")
	sp.Tag("dup", "first").Tag("dup", "second") // keep-last, like the old map
	sp.End()
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	recs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	if recs[0].Name != `na"me\with`+"\n\t\x01"+`controls` {
		t.Errorf("name = %q", recs[0].Name)
	}
	if recs[0].Tags[`k"ey`] != "v\\al\r\x1f" {
		t.Errorf("tag = %q", recs[0].Tags[`k"ey`])
	}
	if recs[0].Tags["dup"] != "second" {
		t.Errorf("dup tag = %q, want keep-last %q", recs[0].Tags["dup"], "second")
	}
}

// TestDoubleEndIsNoOp: End twice must not fold the span into the
// aggregates twice or corrupt the pool.
func TestDoubleEndIsNoOp(t *testing.T) {
	tr := New(nil)
	sp := tr.Root("once")
	sp.End()
	sp.End()
	rows := tr.Breakdown()
	if len(rows) != 1 || rows[0].Count != 1 {
		t.Fatalf("breakdown = %+v, want a single count-1 row", rows)
	}
	if sp.Child("after") != nil || sp.Tag("k", "v") != nil {
		t.Error("Child/Tag on an ended span must return nil")
	}
}

// TestEnabledTelemetryAllocBudget pins the pooled enabled-path budget:
// steady-state Root/Child/Tag/End against a live tracer (aggregates +
// JSONL + sink) must not allocate. The warm-up run populates the span
// pool, tag capacity and aggregate map entries; everything after rides
// recycled memory.
func TestEnabledTelemetryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool reuse; alloc budget measured without -race")
	}
	rs := nopSink{}
	tr := New(io.Discard, WithClock(NewVirtualClock(time.Microsecond)), WithSink(rs))
	span := func() {
		root := tr.Root("sweep")
		sp := root.Child("host").Tag("host", "h0").TagBool("cached", true).TagInt("n", 7)
		sp.End()
		root.End()
	}
	for i := 0; i < 64; i++ { // warm the pool and aggregate map
		span()
	}
	if allocs := testing.AllocsPerRun(1000, span); allocs > 0 {
		t.Fatalf("enabled span path allocates %v allocs/op steady-state, want 0", allocs)
	}
}

type nopSink struct{}

func (nopSink) Offer(SpanData) {}

// BenchmarkTelemetryEnabledSpanJSONL is the full enabled pipeline —
// pooled span, tags, aggregate fold, manual JSONL marshal — the cost a
// traced sweep pays per span.
func BenchmarkTelemetryEnabledSpanJSONL(b *testing.B) {
	tr := New(io.Discard)
	root := tr.Root("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := root.Child("host").Tag("host", "h0").TagBool("cached", true)
		sp.End()
	}
}

// BenchmarkTelemetryEnabledParallel measures collector-shard contention:
// many goroutines ending spans concurrently, the shape of a multi-shard
// sweep.
func BenchmarkTelemetryEnabledParallel(b *testing.B) {
	tr := New(io.Discard)
	root := tr.Root("bench")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sp := root.Child("host").Tag("host", "h0")
			sp.End()
		}
	})
}
