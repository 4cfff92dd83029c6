package store

import (
	"sync"
	"testing"
	"time"

	"veridevops/internal/telemetry"
)

// span builds one SpanData row; tags alternate key, value.
func span(id, parent, trace uint64, name string, durUS int64, tags ...string) telemetry.SpanData {
	return telemetry.SpanData{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: time.Unix(0, int64(id)*1000), Dur: time.Duration(durUS) * time.Microsecond,
		Tags: tags,
	}
}

// offerTrace feeds a whole trace, children first, root (id == trace)
// last — the order spans actually end.
func offerTrace(s *Store, spans ...telemetry.SpanData) {
	for _, d := range spans {
		s.Offer(d)
	}
}

func TestStoreKeepsCompletedTraces(t *testing.T) {
	s := New(Config{Capacity: 1024, BlockSpans: 64})
	offerTrace(s,
		span(2, 1, 1, "check", 500, "finding", "CIS-1.1", "status", "PASS"),
		span(3, 1, 1, "check", 700, "finding", "CIS-2.2", "status", "FAIL"),
		span(1, 0, 1, "host", 1500, "host", "web-0"),
	)
	st := s.Stats()
	if st.Offered != 3 || st.Stored != 3 || st.Traces != 1 || st.Resident != 3 {
		t.Fatalf("stats = %+v, want 3 offered/stored, 1 trace, 3 resident", st)
	}
	if st.ErrorTraces != 1 {
		t.Errorf("error traces = %d, want 1 (FAIL span makes the trace error-class)", st.ErrorTraces)
	}
	if st.OpenTraces != 0 {
		t.Errorf("open traces = %d, want 0 after root end", st.OpenTraces)
	}
}

func TestStoreBuffersUntilRootEnds(t *testing.T) {
	s := New(Config{Capacity: 1024})
	s.Offer(span(2, 1, 1, "check", 100))
	if st := s.Stats(); st.Resident != 0 || st.OpenTraces != 1 {
		t.Fatalf("stats before root end = %+v, want 0 resident / 1 open", st)
	}
	s.Offer(span(1, 0, 1, "host", 200))
	if st := s.Stats(); st.Resident != 2 || st.OpenTraces != 0 {
		t.Fatalf("stats after root end = %+v, want 2 resident / 0 open", st)
	}
}

func TestTailSamplingKeepsErrorClassAlways(t *testing.T) {
	s := New(Config{Capacity: 1 << 14, TailKeepOK1In: 1 << 30}) // effectively drop all OK
	errs := 0
	for i := uint64(1); i <= 100; i++ {
		root, child := i*2, i*2+1 // child id > root id, root still ends last
		outcome := "ok"
		if i%10 == 0 {
			outcome = "timeout"
			errs++
		}
		offerTrace(s,
			span(child, root, root, "attempt", 100, "outcome", outcome),
			span(root, 0, root, "check", 200),
		)
	}
	st := s.Stats()
	if st.Traces != uint64(errs) {
		t.Fatalf("stored traces = %d, want only the %d timeout traces", st.Traces, errs)
	}
	if st.ErrorTraces != uint64(errs) {
		t.Errorf("error traces = %d, want %d", st.ErrorTraces, errs)
	}
	if st.TailDropped != uint64((100-errs)*2) {
		t.Errorf("tail dropped = %d, want %d", st.TailDropped, (100-errs)*2)
	}
}

func TestTailSamplingKeepsSomeOKTraces(t *testing.T) {
	s := New(Config{Capacity: 1 << 14, TailKeepOK1In: 4})
	for i := uint64(1); i <= 400; i++ {
		offerTrace(s, span(i, 0, i, "check", 100, "outcome", "ok"))
	}
	st := s.Stats()
	if st.Traces == 0 || st.Traces == 400 {
		t.Fatalf("kept %d of 400 OK traces at 1-in-4, want a strict subset", st.Traces)
	}
	// Salted hashing should land in the same ballpark as 1/4.
	if st.Traces < 50 || st.Traces > 150 {
		t.Errorf("kept %d of 400 at 1-in-4, want roughly 100", st.Traces)
	}
}

func TestRingEvictsOldestBlocks(t *testing.T) {
	s := New(Config{Capacity: 128, BlockSpans: 32})
	for i := uint64(1); i <= 512; i++ {
		offerTrace(s, span(i, 0, i, "check", int64(i)))
	}
	st := s.Stats()
	if st.Stored != 512 {
		t.Fatalf("stored = %d, want 512", st.Stored)
	}
	if st.Resident > 128 {
		t.Fatalf("resident = %d, want <= capacity 128", st.Resident)
	}
	if st.Evicted != st.Stored-uint64(st.Resident) {
		t.Errorf("evicted = %d, want stored-resident = %d", st.Evicted, st.Stored-uint64(st.Resident))
	}
	// The survivors must be the newest spans: the slowest resident span
	// is the last one written (dur == id here).
	res, err := s.Query("| slowest 1")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if got := res.Table.Rows[0][4]; got != "512" {
		t.Errorf("newest resident span id = %s, want 512", got)
	}
}

func TestFlushForceCompletesPartialTraces(t *testing.T) {
	s := New(Config{Capacity: 1024, TailKeepOK1In: 1 << 30})
	s.Offer(span(2, 1, 1, "check", 100, "outcome", "ok"))
	// Root never ends (crashed sweep). Flush must store the partial
	// trace as error-class even though tail sampling would drop OK.
	s.Flush()
	st := s.Stats()
	if st.Resident != 1 || st.Traces != 1 || st.ErrorTraces != 1 {
		t.Fatalf("stats after flush = %+v, want the partial trace stored as error-class", st)
	}
}

func TestResetEmptiesStore(t *testing.T) {
	s := New(Config{Capacity: 1024})
	offerTrace(s, span(1, 0, 1, "check", 100))
	s.Offer(span(4, 3, 3, "check", 50)) // left open
	s.Reset()
	st := s.Stats()
	if st.Resident != 0 || st.OpenTraces != 0 || st.Stored != 0 || st.Offered != 0 {
		t.Fatalf("stats after reset = %+v, want all zero", st)
	}
	offerTrace(s, span(9, 0, 9, "check", 100))
	if st := s.Stats(); st.Resident != 1 {
		t.Fatalf("stats after re-ingest = %+v, want 1 resident", st)
	}
}

func TestOutcomeParsingBothVocabularies(t *testing.T) {
	cases := map[string]Outcome{
		"ok": OutcomeOK, "PASS": OutcomeOK, "transient": OutcomeTransient,
		"FAIL": OutcomeFail, "fail": OutcomeFail, "INCOMPLETE": OutcomeIncomplete,
		"error": OutcomeError, "ERROR": OutcomeError,
		"timeout": OutcomeTimeout, "panic": OutcomePanic, "bogus": OutcomeNone, "": OutcomeNone,
	}
	for in, want := range cases {
		if got := ParseOutcome(in); got != want {
			t.Errorf("ParseOutcome(%q) = %v, want %v", in, got, want)
		}
	}
	for _, o := range []Outcome{OutcomeFail, OutcomeIncomplete, OutcomeError, OutcomeTimeout, OutcomePanic} {
		if !o.ErrorClass() {
			t.Errorf("%v must be error-class", o)
		}
	}
	for _, o := range []Outcome{OutcomeNone, OutcomeOK, OutcomeTransient} {
		if o.ErrorClass() {
			t.Errorf("%v must not be error-class", o)
		}
	}
}

// TestStoreViaTracer is the integration seam: a real Tracer on a virtual
// clock with the store attached via WithSink, using ChildTrace the way
// the fleet does.
func TestStoreViaTracer(t *testing.T) {
	s := New(Config{Capacity: 1024})
	tr := telemetry.New(nil, telemetry.WithClock(telemetry.NewVirtualClock(time.Millisecond)), telemetry.WithSink(s))
	sweep := tr.Root("sweep")
	for i := 0; i < 3; i++ {
		host := sweep.ChildTrace("host")
		check := host.Child("check").Tag("status", "PASS")
		check.End()
		host.End()
	}
	sweep.End()
	s.Flush()
	st := s.Stats()
	// Three host traces plus the sweep's own trace (the sweep root span).
	if st.Traces != 4 {
		t.Fatalf("traces = %d, want 4 (3 hosts + sweep shell)", st.Traces)
	}
	if st.Resident != 7 {
		t.Fatalf("resident = %d, want 7 spans", st.Resident)
	}
	res, err := s.Query("name=check | count by status")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Table.Rows) != 1 || res.Table.Rows[0][0] != "PASS" || res.Table.Rows[0][1] != "3" {
		t.Fatalf("count by status = %v, want PASS 3", res.Table.Rows)
	}
}

func TestStoreConcurrentIngest(t *testing.T) {
	s := New(Config{Capacity: 1 << 12, BlockSpans: 256})
	var wg sync.WaitGroup
	const workers, traces = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w*traces*2 + 1)
			for i := uint64(0); i < traces; i++ {
				root := base + i*2
				offerTrace(s,
					span(root+1, root, root, "attempt", 100, "outcome", "ok"),
					span(root, 0, root, "check", 200),
				)
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Traces != workers*traces {
		t.Fatalf("traces = %d, want %d", st.Traces, workers*traces)
	}
	if st.Resident > 1<<12 {
		t.Fatalf("resident = %d exceeds capacity", st.Resident)
	}
}

func TestStatsResidentData(t *testing.T) {
	s := New(Config{Capacity: 64})
	offerTrace(s, span(1, 0, 1, "check", 100, "host", "web-0", "finding", "CIS-1.1"))
	if st := s.Stats(); st.ResidentData == 0 {
		t.Error("ResidentData = 0, want tag arena bytes counted")
	}
}

// BenchmarkStoreIngest measures raw Offer throughput: single-span
// traces, the worst case for per-trace bookkeeping (every span pays
// buffer open + complete + append).
func BenchmarkStoreIngest(b *testing.B) {
	s := New(Config{Capacity: 1 << 18})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i + 1)
		s.Offer(telemetry.SpanData{
			ID: id, Trace: id, Name: "check",
			Start: time.Unix(0, int64(id)), Dur: time.Microsecond,
			Tags: []string{"host", "web-0", "status", "PASS"},
		})
	}
}

// BenchmarkStoreIngestDeepTraces is the fleet shape: 8-span traces
// buffered until the root ends.
func BenchmarkStoreIngestDeepTraces(b *testing.B) {
	s := New(Config{Capacity: 1 << 18})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := uint64(i)*8 + 1
		for c := uint64(1); c < 8; c++ {
			s.Offer(telemetry.SpanData{
				ID: root + c, Parent: root, Trace: root, Name: "check",
				Start: time.Unix(0, int64(root+c)), Dur: time.Microsecond,
				Tags: []string{"status", "PASS"},
			})
		}
		s.Offer(telemetry.SpanData{
			ID: root, Trace: root, Name: "host",
			Start: time.Unix(0, int64(root)), Dur: 8 * time.Microsecond,
			Tags: []string{"host", "web-0"},
		})
	}
}
