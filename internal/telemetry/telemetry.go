// Package telemetry is the cross-cutting observability layer of the
// VeriDevOps reproduction: a hierarchical span tracer and a lightweight
// metrics registry threaded through the hot paths built in PRs 1–3 — the
// fault-tolerant engine (per-attempt spans), the fleet coordinator
// (sweep → shard → host → check → attempt) and the reactive-protection
// scheduler (poll → check/alarm → enforce). Where FleetStats and RunStats
// answer "how did the sweep do in aggregate", the span tree answers
// "where did this sweep spend its time" and "which attempt of which check
// on which host timed out" — the auditable how behind each verdict, not
// just the verdict.
//
// Spans export as JSONL (one object per line, written when the span ends)
// through any io.Writer, so a trace file is greppable and streamable, and
// can additionally be offered to an in-process Sink — the embeddable
// trace store (internal/telemetry/store) ingests them that way. A
// deterministic virtual clock (NewVirtualClock) makes span timings exact
// in tests. The whole layer is designed to stay compiled into the hot
// loops: every entry point is a method on a possibly-nil *Tracer, *Span
// or *Metrics, and the nil path — telemetry disabled — is a zero-
// allocation early return (BenchmarkTelemetryDisabled proves 0 allocs/op),
// so callers never guard call sites with flags.
//
// The enabled path is engineered to the same standard: spans live in a
// sync.Pool (a span allocates nothing steady-state, its tag storage is
// recycled with it), ended spans fold into per-collector shards — a
// small power-of-two set of independently locked aggregators — instead
// of serialising every goroutine through one tracer mutex, and JSONL
// records are marshalled by an append-based encoder into per-collector
// buffers (no reflection, no encoding/json on the hot path).
// TestEnabledTelemetryAllocBudget pins the steady-state budget at
// 0 allocs/op.
package telemetry

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"veridevops/internal/report"
)

// Clock supplies span timestamps. The default is time.Now; tests use
// NewVirtualClock for deterministic durations.
type Clock func() time.Time

// NewVirtualClock returns a deterministic Clock that starts at the Unix
// epoch and advances by step on every reading, so the k-th clock reading
// of a run is always epoch + k*step regardless of machine speed. Spans
// read the clock once at start and once at end.
func NewVirtualClock(step time.Duration) Clock {
	var n atomic.Int64
	return func() time.Time {
		k := n.Add(1) - 1
		return time.Unix(0, k*int64(step))
	}
}

// SpanData is the flattened view of one ended span handed to a Sink:
// everything the JSONL record carries, before any serialisation. Tags
// alternate key, value and — like the SpanData itself — are only valid
// for the duration of the Offer call: the span they belong to returns to
// the span pool immediately after, so a sink must copy (or intern) what
// it keeps.
type SpanData struct {
	ID     uint64
	Parent uint64
	// Trace groups the span with its trace: the span ID of the trace's
	// root. A span whose ID equals its Trace is that root, and its End is
	// the signal the whole trace is complete (children always end before
	// their parent in this codebase's instrumentation).
	Trace uint64
	Name  string
	Start time.Time
	Dur   time.Duration
	Tags  []string
}

// Sink receives every ended span in-process, in parallel with (or in
// place of) the JSONL export. Offer is called concurrently from whatever
// goroutines end spans and must be safe for concurrent use; it runs on
// the span hot path, so it should be cheap and must not retain the
// SpanData's Tags slice past the call.
type Sink interface {
	Offer(SpanData)
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithClock substitutes the tracer's time source.
func WithClock(c Clock) Option {
	return func(t *Tracer) { t.clock = c }
}

// WithSink attaches an in-process span sink (the trace store); every
// ended span is offered to it after the aggregate roll-up.
func WithSink(s Sink) Option {
	return func(t *Tracer) { t.sink = s }
}

// aggregate is the per-span-name roll-up behind Breakdown.
type aggregate struct {
	count int
	total time.Duration
	max   time.Duration
}

// collector is one shard of the tracer's end-of-span work: its own
// mutex, its own per-name aggregate map, and its own pending JSONL
// bytes. Spans are routed by ID, so concurrent enders contend only
// 1/len(cols) of the time instead of serialising on one tracer mutex.
type collector struct {
	mu  sync.Mutex
	agg map[string]*aggregate
	buf []byte
}

// flushBytes is the per-collector JSONL high-water mark: past it the
// collector's pending bytes move to the shared writer (whole lines only,
// so the interleaving stays record-atomic).
const flushBytes = 32 * 1024

// collectors is the collector shard count, a power of two so a span ID
// masks to its shard.
const collectors = 8

// Tracer records hierarchical spans, aggregates them per name, and
// exports them as JSONL and/or to an in-process Sink. A nil *Tracer is
// the disabled tracer: every method is a cheap no-op and Root returns a
// nil *Span whose whole subtree is free. Tracers are safe for concurrent
// use; ended spans shard over independently locked collectors.
type Tracer struct {
	clock  Clock
	nextID atomic.Uint64
	sink   Sink
	cols   [collectors]*collector

	// wmu guards the shared buffered writer; collectors take it only to
	// hand over a full buffer (memcpy of whole records), never per span.
	wmu  sync.Mutex
	bw   *bufio.Writer // nil when w is nil (aggregate/sink-only tracer)
	werr error
}

// New returns a tracer writing JSONL span records to w as spans end. A
// nil w keeps the tracer enabled for in-memory aggregation (Breakdown)
// and any attached Sink without exporting records. Call Flush before
// reading the output.
func New(w io.Writer, opts ...Option) *Tracer {
	t := &Tracer{clock: time.Now}
	if w != nil {
		t.bw = bufio.NewWriterSize(w, 64*1024)
	}
	for _, o := range opts {
		o(t)
	}
	for i := range t.cols {
		t.cols[i] = &collector{agg: make(map[string]*aggregate)}
	}
	return t
}

// Root opens a top-level span: the root of a new trace. On a nil tracer
// it returns a nil span, whose children and tags are all no-ops.
func (t *Tracer) Root(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, 0, 0)
}

// spanPool recycles ended spans (tag storage included) across all
// tracers, so the steady-state enabled path allocates nothing per span.
var spanPool = sync.Pool{New: func() any { return new(Span) }}

func (t *Tracer) newSpan(name string, parent, trace uint64) *Span {
	s := spanPool.Get().(*Span)
	s.t = t
	s.id = t.nextID.Add(1)
	s.parent = parent
	if trace == 0 {
		trace = s.id
	}
	s.trace = trace
	s.name = name
	s.kv = s.kv[:0]
	s.start = t.clock()
	return s
}

// Flush drains every collector's pending JSONL bytes and the shared
// buffer, and returns the first error the tracer hit while writing. Safe
// on a nil tracer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	for _, c := range t.cols {
		c.mu.Lock()
		if t.bw != nil && len(c.buf) > 0 {
			t.drain(c)
		}
		c.mu.Unlock()
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if t.bw != nil {
		if err := t.bw.Flush(); err != nil && t.werr == nil {
			t.werr = err
		}
	}
	return t.werr
}

// drain hands one collector's pending bytes to the shared writer. Called
// with c.mu held; takes wmu (the only place the two locks nest).
func (t *Tracer) drain(c *collector) {
	t.wmu.Lock()
	if _, err := t.bw.Write(c.buf); err != nil && t.werr == nil {
		t.werr = err
	}
	t.wmu.Unlock()
	c.buf = c.buf[:0]
}

// Breakdown returns the per-span-name time roll-up — the rows behind the
// "where the time went" summary — merged across collectors and sorted by
// total duration descending (name ascending on ties). Nil tracers return
// nil.
func (t *Tracer) Breakdown() []report.SpanRow {
	if t == nil {
		return nil
	}
	merged := make(map[string]aggregate)
	for _, c := range t.cols {
		c.mu.Lock()
		for name, a := range c.agg {
			m := merged[name]
			m.count += a.count
			m.total += a.total
			if a.max > m.max {
				m.max = a.max
			}
			merged[name] = m
		}
		c.mu.Unlock()
	}
	rows := make([]report.SpanRow, 0, len(merged))
	for name, a := range merged {
		rows = append(rows, report.SpanRow{Name: name, Count: a.count, Total: a.total, Max: a.max})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Total != rows[j].Total {
			return rows[i].Total > rows[j].Total
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// finish stamps the span's end, folds it into its collector's aggregate,
// appends its JSONL record, and offers it to the sink.
func (t *Tracer) finish(s *Span) {
	end := t.clock()
	dur := end.Sub(s.start)
	if dur < 0 {
		dur = 0
	}
	c := t.cols[s.id%collectors]
	c.mu.Lock()
	a := c.agg[s.name]
	if a == nil {
		a = &aggregate{}
		c.agg[s.name] = a
	}
	a.count++
	a.total += dur
	if dur > a.max {
		a.max = dur
	}
	if t.bw != nil {
		c.buf = appendRecord(c.buf, s, dur)
		if len(c.buf) >= flushBytes {
			t.drain(c)
		}
	}
	c.mu.Unlock()
	if t.sink != nil {
		t.sink.Offer(SpanData{
			ID: s.id, Parent: s.parent, Trace: s.trace,
			Name: s.name, Start: s.start, Dur: dur, Tags: s.kv,
		})
	}
}

const hexDigits = "0123456789abcdef"

// appendRecord marshals one ended span as a JSONL line without going
// through encoding/json: reflection-free, allocation-free into a
// recycled buffer. Duplicate tag keys keep the last value, matching the
// map semantics of the old encoder.
func appendRecord(b []byte, s *Span, dur time.Duration) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, s.id, 10)
	if s.parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, s.parent, 10)
	}
	if s.trace != 0 {
		b = append(b, `,"trace":`...)
		b = strconv.AppendUint(b, s.trace, 10)
	}
	b = append(b, `,"name":`...)
	b = appendJSONString(b, s.name)
	b = append(b, `,"start_us":`...)
	b = strconv.AppendInt(b, s.start.UnixNano()/1e3, 10)
	b = append(b, `,"dur_us":`...)
	b = strconv.AppendInt(b, int64(dur)/1e3, 10)
	if len(s.kv) >= 2 {
		b = append(b, `,"tags":{`...)
		first := true
		for i := 0; i+1 < len(s.kv); i += 2 {
			dup := false
			for j := i + 2; j+1 < len(s.kv); j += 2 {
				if s.kv[j] == s.kv[i] {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = appendJSONString(b, s.kv[i])
			b = append(b, ':')
			b = appendJSONString(b, s.kv[i+1])
		}
		b = append(b, '}')
	}
	b = append(b, '}', '\n')
	return b
}

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes and control characters (UTF-8 passes through raw, which
// JSON permits).
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"':
			b = append(b, '\\', '"')
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		start = i + 1
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Span is one timed node of the trace tree. Spans are created by
// Tracer.Root and Span.Child/ChildTrace, annotated with
// Tag/TagInt/TagBool, and emitted by End. A nil *Span (disabled
// telemetry, or a child of a nil span) accepts the whole API as
// zero-allocation no-ops. A span is meant to be owned by one goroutine;
// concurrent children each get their own span.
//
// Ended spans return to a shared pool and may be reused immediately by
// another goroutine: a span must not be touched after End (Tag and Child
// on an ended span are no-ops as long as the span has not yet been
// reused, but that grace is best-effort, not a contract). Ending a span
// twice is a no-op.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	trace  uint64
	name   string
	start  time.Time
	kv     []string // alternating key, value; capacity recycled with the span
}

// Child opens a sub-span in the same trace. Children of a nil (or
// already ended) span are nil.
func (s *Span) Child(name string) *Span {
	if s == nil || s.t == nil {
		return nil
	}
	return s.t.newSpan(name, s.id, s.trace)
}

// ChildTrace opens a sub-span that roots a new trace: it stays linked to
// s in the span tree (its parent is s), but carries its own trace ID, so
// trace-granular consumers — the store's tail sampler, slowest-trace
// search — treat its subtree as one unit. The fleet coordinator roots
// each host's audit this way: the sweep is the tree, each host is a
// trace.
func (s *Span) ChildTrace(name string) *Span {
	if s == nil || s.t == nil {
		return nil
	}
	return s.t.newSpan(name, s.id, 0)
}

// Tag annotates the span with a string key/value and returns it for
// chaining. Tags on an ended span are dropped.
func (s *Span) Tag(k, v string) *Span {
	if s == nil || s.t == nil {
		return nil
	}
	s.kv = append(s.kv, k, v)
	return s
}

// TagInt annotates the span with an integer value.
func (s *Span) TagInt(k string, v int) *Span {
	if s == nil || s.t == nil {
		return nil
	}
	return s.Tag(k, strconv.Itoa(v))
}

// TagBool annotates the span with a boolean value.
func (s *Span) TagBool(k string, v bool) *Span {
	if s == nil || s.t == nil {
		return nil
	}
	return s.Tag(k, strconv.FormatBool(v))
}

// End stamps the span's duration, emits its record, and recycles the
// span. End on a nil span is a no-op; so is ending a span twice.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	t := s.t
	t.finish(s)
	s.t = nil
	s.name = ""
	spanPool.Put(s)
}
