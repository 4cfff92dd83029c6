package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"veridevops/internal/telemetry"
)

// spanRec is one ended span as the sink keeps it.
type spanRec struct {
	id, parent uint64
	name       string
	start      time.Time
	dur        time.Duration
	// cached marks a sweep's host span replayed from the cache.
	cached bool
	// self is dur minus the union of the children's intervals, filled in
	// by selfTimes.
	self time.Duration
}

// spanSink holds the traced phase's spans in memory. It records only
// while on, so the priming flush of the set-up stays out of the ledger.
type spanSink struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []spanRec
}

// Offer implements telemetry.Sink. Names are string constants of the
// instrumented code and safe to keep; tags are read here and dropped.
func (s *spanSink) Offer(d telemetry.SpanData) {
	if !s.on.Load() {
		return
	}
	rec := spanRec{id: d.ID, parent: d.Parent, name: d.Name, start: d.Start, dur: d.Dur}
	if d.Name == "host" {
		for i := 0; i+1 < len(d.Tags); i += 2 {
			if d.Tags[i] == "cached" {
				rec.cached = d.Tags[i+1] == "true"
			}
		}
	}
	s.mu.Lock()
	s.spans = append(s.spans, rec)
	s.mu.Unlock()
}

// selfTimes fills each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfTimes(spans []spanRec) {
	byID := make(map[uint64]int, len(spans))
	for i, sp := range spans {
		byID[sp.id] = i
	}
	children := make(map[int][]int)
	for i, sp := range spans {
		if p, ok := byID[sp.parent]; ok && sp.parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range spans {
		sp := &spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start.Before(spans[kids[b]].start) })
		end := sp.start.Add(sp.dur)
		var covered time.Duration
		var runStart, runEnd time.Time
		for _, k := range kids {
			ks := maxTime(spans[k].start, sp.start)
			ke := minTime(spans[k].start.Add(spans[k].dur), end)
			if !ke.After(ks) {
				continue
			}
			if runEnd.IsZero() || ks.After(runEnd) {
				covered += runEnd.Sub(runStart)
				runStart, runEnd = ks, ke
			} else if ke.After(runEnd) {
				runEnd = ke
			}
		}
		covered += runEnd.Sub(runStart)
		sp.self = sp.dur - covered
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	n         int
	dur, self time.Duration
}

func (a *spanAgg) add(sp spanRec) {
	a.n++
	a.dur += sp.dur
	a.self += sp.self
}

// spanSummary is the traced phase's ledger by span name; executed and
// cached host spans are kept apart.
type spanSummary struct {
	total int
	names map[string]spanAgg
	// hostRun sums the host spans that re-audited rather than replayed.
	hostRun spanAgg
}

func summarize(spans []spanRec) spanSummary {
	selfTimes(spans)
	sum := spanSummary{total: len(spans), names: map[string]spanAgg{}}
	for _, sp := range spans {
		a := sum.names[sp.name]
		a.add(sp)
		sum.names[sp.name] = a
		if sp.name == "host" && !sp.cached {
			sum.hostRun.add(sp)
		}
	}
	return sum
}

// writeSpans writes spans as JSONL, one object per span.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		rec := struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent,omitempty"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			Dur    int64  `json:"dur_ns"`
			Self   int64  `json:"self_ns"`
			Cached bool   `json:"cached,omitempty"`
		}{sp.id, sp.parent, sp.name, sp.start.UnixNano(), int64(sp.dur), int64(sp.self), sp.cached}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
