// Package store is the embeddable trace backend behind the telemetry
// layer: a bounded, queryable ring of ended spans fed straight off the
// Tracer hot path through the telemetry.Sink seam. Where the JSONL
// export writes spans out and forgets them, the store keeps the recent
// window resident — columnar blocks of interned names and flat
// duration/outcome slices — so the load harness and the CLIs can answer
// "which host was the straggler", "p99 per check", "the five slowest
// timeout traces" in microseconds without re-parsing trace files.
//
// Ingestion is trace-buffered: spans accumulate in per-trace buffers
// (sharded 16 ways by trace ID, recycled through per-shard free lists)
// until the trace's root span ends, at which point the tail sampler
// decides the whole trace's fate — error-class traces (a span whose
// outcome is fail/incomplete/error/timeout/panic) are always kept, OK
// traces are kept one-in-N — and kept traces append atomically into the
// block ring. The ring holds a fixed span capacity; when full, the
// oldest block is recycled, so memory is bounded no matter how long the
// daemon runs.
//
// The query layer lives in query.go; rendering reuses report.Table and
// tree reassembly reuses telemetry.BuildTree.
package store

import (
	"sync"
	"sync/atomic"
	"time"

	"veridevops/internal/telemetry"
)

// Outcome classifies a span for sampling and filtering: the store's
// compact enum over the `outcome` tags the engine writes on attempt
// spans (ok/transient/timeout/panic/error) and the `status` tags the
// runner writes on check spans (PASS/FAIL/ERROR/INCOMPLETE). Ordering
// matters: everything >= OutcomeFail is error-class and exempt from
// tail sampling.
type Outcome uint8

const (
	OutcomeNone Outcome = iota // span carried no outcome/status tag
	OutcomeOK
	OutcomeTransient
	OutcomeFail
	OutcomeIncomplete
	OutcomeError
	OutcomeTimeout
	OutcomePanic
)

// ErrorClass reports whether the outcome marks a trace worth keeping
// unconditionally: failures, incompletes, errors, timeouts, panics.
func (o Outcome) ErrorClass() bool { return o >= OutcomeFail }

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeTransient:
		return "transient"
	case OutcomeFail:
		return "fail"
	case OutcomeIncomplete:
		return "incomplete"
	case OutcomeError:
		return "error"
	case OutcomeTimeout:
		return "timeout"
	case OutcomePanic:
		return "panic"
	default:
		return "none"
	}
}

// ParseOutcome maps both tag vocabularies — the engine's `outcome`
// values and the runner's `status` values — onto the store enum.
// Unknown strings (and "") parse as OutcomeNone.
func ParseOutcome(s string) Outcome {
	switch s {
	case "ok", "OK", "PASS", "pass":
		return OutcomeOK
	case "transient":
		return OutcomeTransient
	case "fail", "FAIL":
		return OutcomeFail
	case "incomplete", "INCOMPLETE":
		return OutcomeIncomplete
	case "error", "ERROR":
		return OutcomeError
	case "timeout", "TIMEOUT":
		return OutcomeTimeout
	case "panic", "PANIC":
		return OutcomePanic
	default:
		return OutcomeNone
	}
}

// Config sizes and tunes a Store. The zero value gets sane defaults
// from New and keeps every completed trace.
type Config struct {
	// Capacity is the span budget of the ring: once this many spans are
	// resident, the oldest block is evicted to admit new ones. Default
	// 1<<18 (262144 spans, a few sweeps of a 10k-host fleet).
	Capacity int
	// BlockSpans is the columnar block granularity (capacity is rounded
	// up to whole blocks). Default 4096.
	BlockSpans int
	// TailKeepOK1In, when > 1, tail-samples healthy traces: when a trace
	// completes with no error-class span, it is stored only if its ID
	// hash lands in the 1-in-N keep set. Error-class traces (any span
	// fail/incomplete/error/timeout/panic) are always stored. 0 or 1
	// keeps every completed trace.
	TailKeepOK1In int
}

// Stats is a snapshot of the store's ingestion counters.
type Stats struct {
	Offered      uint64 // spans offered by the tracer
	TailDropped  uint64 // spans in healthy traces dropped by tail sampling
	Stored       uint64 // spans appended to the ring (lifetime)
	Evicted      uint64 // spans recycled with their block on ring wrap
	Traces       uint64 // completed traces stored (lifetime)
	ErrorTraces  uint64 // stored traces that were error-class
	OpenTraces   int    // trace buffers still waiting for their root
	Resident     int    // spans currently queryable in the ring
	ResidentData int    // bytes of tag arena currently resident
}

// rec is the per-span row of a trace buffer before block append: the
// SpanData with strings interned and tags flattened into the buffer's
// kv arena.
type rec struct {
	id, parent, trace uint64
	startUS, durUS    int64
	name              uint32
	outcome           Outcome
	tagOff, tagLen    uint32 // window into the traceBuf's kv slice (pairs)
}

// traceBuf accumulates one trace's spans between its first span's End
// and its root's End.
type traceBuf struct {
	recs  []rec
	kv    []uint32 // interned tag pairs, all spans concatenated
	bad   bool     // any error-class span seen
	runID uint64   // run epoch the buffer belongs to (Reset invalidates)
}

// traceShard is 1/16th of the open-trace map, independently locked so
// concurrent enders rarely contend.
type traceShard struct {
	mu   sync.Mutex
	bufs map[uint64]*traceBuf
	free []*traceBuf
}

const numShards = 16

// block is one columnar segment of the ring: parallel flat slices, one
// row per span, plus a shared tag arena. Blocks are written by exactly
// one appender at a time (the store's append lock) and become immutable
// once full; readers snapshot block boundaries under the same lock.
type block struct {
	ids     []uint64
	parents []uint64
	traces  []uint64
	starts  []int64
	durs    []int64
	names   []uint32
	outs    []Outcome
	tagOff  []uint32
	tagLen  []uint32
	arena   []uint32 // tag pairs: key-sym, val-sym, ...
}

func newBlock(spans int) *block {
	return &block{
		ids:     make([]uint64, 0, spans),
		parents: make([]uint64, 0, spans),
		traces:  make([]uint64, 0, spans),
		starts:  make([]int64, 0, spans),
		durs:    make([]int64, 0, spans),
		names:   make([]uint32, 0, spans),
		outs:    make([]Outcome, 0, spans),
		tagOff:  make([]uint32, 0, spans),
		tagLen:  make([]uint32, 0, spans),
		arena:   make([]uint32, 0, spans*4),
	}
}

func (b *block) reset() {
	b.ids = b.ids[:0]
	b.parents = b.parents[:0]
	b.traces = b.traces[:0]
	b.starts = b.starts[:0]
	b.durs = b.durs[:0]
	b.names = b.names[:0]
	b.outs = b.outs[:0]
	b.tagOff = b.tagOff[:0]
	b.tagLen = b.tagLen[:0]
	b.arena = b.arena[:0]
}

// Store is the bounded trace backend. It implements telemetry.Sink;
// attach it with telemetry.WithSink(store) and every ended span flows
// in. All methods are safe for concurrent use. A nil *Store is a valid
// disabled sink view for the helpers that tolerate it, but Offer
// requires a real store (the tracer never holds a typed-nil Sink).
type Store struct {
	cfg  Config
	salt uint64

	// symbols interns every span name and tag key/value into dense
	// uint32 symbols; the columnar blocks store only symbols.
	symMu   sync.RWMutex
	symOf   map[string]uint32
	strings []string

	shards [numShards]traceShard

	// appendMu orders trace appends into the ring and guards the
	// write-side block topology (readers take it briefly to snapshot).
	appendMu sync.Mutex
	blocks   []*block // ring order: blocks[0] oldest, last is write head
	freeBlk  []*block
	resident int

	offered     atomic.Uint64
	tailDropped atomic.Uint64
	stored      atomic.Uint64
	evicted     atomic.Uint64
	traces      atomic.Uint64
	errorTraces atomic.Uint64
	runID       atomic.Uint64
}

// New builds a store. Zero-value fields of cfg get defaults: 262144
// span capacity, 4096-span blocks, no sampling.
func New(cfg Config) *Store {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1 << 18
	}
	if cfg.BlockSpans <= 0 {
		cfg.BlockSpans = 4096
	}
	if cfg.BlockSpans > cfg.Capacity {
		cfg.BlockSpans = cfg.Capacity
	}
	s := &Store{
		cfg:   cfg,
		salt:  0x9e3779b97f4a7c15,
		symOf: make(map[string]uint32, 256),
	}
	for i := range s.shards {
		s.shards[i].bufs = make(map[uint64]*traceBuf, 64)
	}
	s.blocks = append(s.blocks, newBlock(cfg.BlockSpans))
	return s
}

// maxBlocks is the ring's block budget for the configured capacity.
func (s *Store) maxBlocks() int {
	n := (s.cfg.Capacity + s.cfg.BlockSpans - 1) / s.cfg.BlockSpans
	if n < 1 {
		n = 1
	}
	return n
}

// sym interns a string, returning its dense symbol.
func (s *Store) sym(str string) uint32 {
	s.symMu.RLock()
	id, ok := s.symOf[str]
	s.symMu.RUnlock()
	if ok {
		return id
	}
	s.symMu.Lock()
	defer s.symMu.Unlock()
	if id, ok = s.symOf[str]; ok {
		return id
	}
	id = uint32(len(s.strings))
	s.strings = append(s.strings, str)
	s.symOf[str] = id
	return id
}

// lookupSym resolves a string to its symbol without interning; ok is
// false when the store has never seen it (so no span can match it).
func (s *Store) lookupSym(str string) (uint32, bool) {
	s.symMu.RLock()
	id, ok := s.symOf[str]
	s.symMu.RUnlock()
	return id, ok
}

// str resolves a symbol back to its string.
func (s *Store) str(sym uint32) string {
	s.symMu.RLock()
	defer s.symMu.RUnlock()
	if int(sym) < len(s.strings) {
		return s.strings[sym]
	}
	return ""
}

// hashTrace mixes a trace ID with the store salt (splitmix64 finisher),
// so sampling keeps a stable, uncorrelated subset.
func (s *Store) hashTrace(id uint64) uint64 {
	z := id + s.salt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *Store) tailKeepOK(trace uint64) bool {
	n := s.cfg.TailKeepOK1In
	if n <= 1 {
		return true
	}
	// The fixed re-mix pins which 1-in-N healthy traces are kept.
	return s.hashTrace(trace^0xd1b54a32d192ed03)%uint64(n) == 0
}

// Offer ingests one ended span (the telemetry.Sink contract: d.Tags is
// valid only during the call — everything kept is interned here).
func (s *Store) Offer(d telemetry.SpanData) {
	s.offered.Add(1)
	sh := &s.shards[d.Trace%numShards]
	run := s.runID.Load()
	sh.mu.Lock()
	tb := sh.bufs[d.Trace]
	if tb == nil || tb.runID != run {
		if n := len(sh.free); n > 0 && sh.free[n-1].runID == run {
			tb = sh.free[n-1]
			sh.free = sh.free[:n-1]
		} else {
			tb = &traceBuf{runID: run}
		}
		tb.recs = tb.recs[:0]
		tb.kv = tb.kv[:0]
		tb.bad = false
		tb.runID = run
		sh.bufs[d.Trace] = tb
	}
	r := rec{
		id: d.ID, parent: d.Parent, trace: d.Trace,
		startUS: d.Start.UnixNano() / 1e3, durUS: int64(d.Dur) / 1e3,
		name:   s.sym(d.Name),
		tagOff: uint32(len(tb.kv)),
	}
	for i := 0; i+1 < len(d.Tags); i += 2 {
		k, v := d.Tags[i], d.Tags[i+1]
		if k == "outcome" || k == "status" {
			if o := ParseOutcome(v); o != OutcomeNone {
				r.outcome = o
			}
		}
		tb.kv = append(tb.kv, s.sym(k), s.sym(v))
	}
	r.tagLen = uint32(len(tb.kv)) - r.tagOff
	if r.outcome.ErrorClass() {
		tb.bad = true
	}
	tb.recs = append(tb.recs, r)
	rootDone := d.ID == d.Trace
	if rootDone {
		delete(sh.bufs, d.Trace)
	}
	sh.mu.Unlock()
	if rootDone {
		s.completeTrace(sh, tb)
	}
}

// completeTrace runs the tail sampler and, for kept traces, appends the
// buffered spans into the ring. Called without shard lock held; tb is
// exclusively owned here.
func (s *Store) completeTrace(sh *traceShard, tb *traceBuf) {
	keep := tb.bad || s.tailKeepOK(tb.recs[len(tb.recs)-1].trace)
	if keep {
		s.appendTrace(tb)
	} else {
		s.tailDropped.Add(uint64(len(tb.recs)))
	}
	sh.mu.Lock()
	if tb.runID == s.runID.Load() && len(sh.free) < 64 {
		sh.free = append(sh.free, tb)
	}
	sh.mu.Unlock()
}

// appendTrace moves a kept trace's rows into the write-head block,
// evicting the oldest block when the ring is at capacity.
func (s *Store) appendTrace(tb *traceBuf) {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	head := s.blocks[len(s.blocks)-1]
	for i := range tb.recs {
		if len(head.ids) == cap(head.ids) {
			head = s.rotateLocked()
		}
		r := &tb.recs[i]
		base := uint32(len(head.arena))
		head.arena = append(head.arena, tb.kv[r.tagOff:r.tagOff+r.tagLen]...)
		head.ids = append(head.ids, r.id)
		head.parents = append(head.parents, r.parent)
		head.traces = append(head.traces, r.trace)
		head.starts = append(head.starts, r.startUS)
		head.durs = append(head.durs, r.durUS)
		head.names = append(head.names, r.name)
		head.outs = append(head.outs, r.outcome)
		head.tagOff = append(head.tagOff, base)
		head.tagLen = append(head.tagLen, r.tagLen)
		s.resident++
	}
	s.stored.Add(uint64(len(tb.recs)))
	s.traces.Add(1)
	if tb.bad {
		s.errorTraces.Add(1)
	}
}

// rotateLocked opens a fresh write-head block, evicting the oldest
// block if the ring is full. Caller holds appendMu.
func (s *Store) rotateLocked() *block {
	var nb *block
	if len(s.blocks) >= s.maxBlocks() {
		nb = s.blocks[0]
		s.evicted.Add(uint64(len(nb.ids)))
		s.resident -= len(nb.ids)
		copy(s.blocks, s.blocks[1:])
		s.blocks = s.blocks[:len(s.blocks)-1]
		nb.reset()
	} else if n := len(s.freeBlk); n > 0 {
		nb = s.freeBlk[n-1]
		s.freeBlk = s.freeBlk[:n-1]
	} else {
		nb = newBlock(s.cfg.BlockSpans)
	}
	s.blocks = append(s.blocks, nb)
	return nb
}

// Flush force-completes every open trace buffer: spans whose root never
// ended (a crashed sweep, a daemon shutting down mid-window) are
// appended as error-class partial traces rather than lost. Call after
// Tracer.Flush.
func (s *Store) Flush() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		pending := make([]*traceBuf, 0, len(sh.bufs))
		for id, tb := range sh.bufs {
			delete(sh.bufs, id)
			pending = append(pending, tb)
		}
		sh.mu.Unlock()
		for _, tb := range pending {
			if len(tb.recs) == 0 {
				continue
			}
			tb.bad = true // partial: never sample away
			s.completeTrace(sh, tb)
		}
	}
}

// Reset empties the store — ring, open buffers, counters — keeping the
// interning table and block allocations for reuse. The run epoch bump
// invalidates in-flight trace buffers racing with the reset.
func (s *Store) Reset() {
	s.runID.Add(1)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		clear(sh.bufs)
		sh.free = sh.free[:0]
		sh.mu.Unlock()
	}
	s.appendMu.Lock()
	for _, b := range s.blocks {
		b.reset()
		if len(s.freeBlk) < s.maxBlocks() {
			s.freeBlk = append(s.freeBlk, b)
		}
	}
	s.blocks = s.blocks[:0]
	s.blocks = append(s.blocks, s.rotateNewLocked())
	s.resident = 0
	s.appendMu.Unlock()
	s.offered.Store(0)
	s.tailDropped.Store(0)
	s.stored.Store(0)
	s.evicted.Store(0)
	s.traces.Store(0)
	s.errorTraces.Store(0)
}

func (s *Store) rotateNewLocked() *block {
	if n := len(s.freeBlk); n > 0 {
		nb := s.freeBlk[n-1]
		s.freeBlk = s.freeBlk[:n-1]
		return nb
	}
	return newBlock(s.cfg.BlockSpans)
}

// Stats snapshots the ingestion counters.
func (s *Store) Stats() Stats {
	open := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		open += len(sh.bufs)
		sh.mu.Unlock()
	}
	s.appendMu.Lock()
	resident := s.resident
	arena := 0
	for _, b := range s.blocks {
		arena += len(b.arena) * 4
	}
	s.appendMu.Unlock()
	return Stats{
		Offered:      s.offered.Load(),
		TailDropped:  s.tailDropped.Load(),
		Stored:       s.stored.Load(),
		Evicted:      s.evicted.Load(),
		Traces:       s.traces.Load(),
		ErrorTraces:  s.errorTraces.Load(),
		OpenTraces:   open,
		Resident:     resident,
		ResidentData: arena,
	}
}

// scan hands fn the resident ring — oldest block first, write head
// last — holding the append lock for the duration, so every row fn can
// reach stays stable (no eviction, no block recycling) even while
// writers queue behind it. A full-ring name-filter scan completes in
// well under a millisecond (see BenchmarkQuery*), so writers stall
// briefly at worst. fn must not call back into the store's ingestion
// side.
func (s *Store) scan(fn func(blocks []*block)) {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	fn(s.blocks)
}

// Resident reports how many spans are currently queryable.
func (s *Store) Resident() int {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	return s.resident
}

// record rebuilds the JSONL view of row i in block b — the shape
// BuildTree and the renderers already understand.
func (s *Store) record(b *block, i int) telemetry.Record {
	rec := telemetry.Record{
		ID:      b.ids[i],
		Parent:  b.parents[i],
		Trace:   b.traces[i],
		Name:    s.str(b.names[i]),
		StartUS: b.starts[i],
		DurUS:   b.durs[i],
	}
	if n := b.tagLen[i]; n > 0 {
		tags := make(map[string]string, n/2)
		off := b.tagOff[i]
		for j := uint32(0); j+1 < n; j += 2 {
			tags[s.str(b.arena[off+j])] = s.str(b.arena[off+j+1])
		}
		rec.Tags = tags
	}
	return rec
}

var _ telemetry.Sink = (*Store)(nil)

// sinceUS converts a duration to the store's microsecond unit, rounding
// up so sub-microsecond thresholds still filter.
func sinceUS(d time.Duration) int64 {
	us := int64(d) / 1e3
	if int64(d)%1e3 != 0 {
		us++
	}
	return us
}
