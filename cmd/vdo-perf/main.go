// Command vdo-perf is the repository's benchmark for fleet evaluation on
// the real clock. It synthesizes a 10k-host fleet, drives seeded churn
// through it with the public loadgen and fleet APIs, and reports
// end-to-end and per-layer metrics by name and unit, after checking every
// verdict against a fresh full audit.
//
// Each workload (workloads/*.json: churn mix, rate, push or sweep) runs
// three rounds of two phases, each phase on a fresh fleet from the same
// seed and each round with its own churn stream:
//
//   - flat out: the churn schedule on a virtual clock, rate×seconds/2
//     events as fast as the evaluator allows, for throughput and
//     allocations; the pass with the median throughput counts;
//   - open loop: events fall due at the workload rate on the wall clock
//     for a third of the measured seconds; every 10 ms the driver admits
//     what is due and flushes, with a fallback sweep every 500 ms (push),
//     or sweeps every 250 ms (sweep). Detection latency runs from an
//     event's due time to the return of the call whose result covers its
//     host, pooled over the three segments.
//
// When per-layer metrics are asked for, a traced phase follows the middle
// round: the first half of its flat-out pass, with spans kept in memory
// and every public call timed.
//
// Usage:
//
//	vdo-perf [-workload NAME] [-seed N] [-seconds N] [-trace 0|1]
//	         [-hosts N] [-repeat N] [-out FILE] [-trace-out DIR]
//	         [-commit REV[-dirty]]
//	vdo-perf -compare BASE.json NEW.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics selected by -trace (0: end-to-end,
// 1: per-layer, default both) that BENCHMARK.json declares. Exit status:
// 0 success, 1 an oracle failure or a -compare regression, 2 usage or
// I/O error, or a -compare input that lacks a workload or metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"veridevops/internal/report"
	"veridevops/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's run settings.
type config struct {
	hosts   int
	seed    int64
	warmup  time.Duration
	seconds time.Duration
	// perLayer runs the traced phase; end-to-end metrics do not need it.
	perLayer bool
	traceOut string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vdo-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all, in name order)")
	seed := fs.Int64("seed", 1, "seed for fleet synthesis and churn; repeat i uses seed+i")
	seconds := fs.Int("seconds", 12, "measured open-loop time, over three segments; a flat-out pass replays rate×seconds/2 events")
	trace := fs.Int("trace", -1, "metrics on the last output line: 0 end-to-end, 1 per-layer, -1 both")
	hosts := fs.Int("hosts", 10000, "synthesized fleet size")
	repeat := fs.Int("repeat", 1, "run the workload set this many times, alternating its order")
	out := fs.String("out", "", "result file to write (default: none)")
	traceOut := fs.String("trace-out", "", "directory for the traced phase's spans as JSONL")
	commit := fs.String("commit", "", "commit to record, with a -dirty suffix for a modified tree (default: from the build's VCS stamp)")
	compare := fs.Bool("compare", false, "compare two result files, BASE.json NEW.json, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "vdo-perf: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || *hosts < 1 || *seconds < 1 || *repeat < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "vdo-perf: -hosts, -seconds and -repeat must be >= 1, -trace one of -1, 0, 1")
		return 2
	}
	all, err := loadWorkloads()
	if err != nil {
		fmt.Fprintf(stderr, "vdo-perf: %v\n", err)
		return 2
	}
	set := all
	if *name != "" {
		set = nil
		for _, w := range all {
			if w.Name == *name {
				set = append(set, w)
			}
		}
		if len(set) == 0 {
			fmt.Fprintf(stderr, "vdo-perf: unknown workload %q\n", *name)
			return 2
		}
	}
	if *traceOut != "" {
		if err := os.MkdirAll(*traceOut, 0o755); err != nil {
			fmt.Fprintf(stderr, "vdo-perf: %v\n", err)
			return 2
		}
	}

	cfg := config{
		hosts:    *hosts,
		seed:     *seed,
		warmup:   warmupLength(time.Duration(*seconds) * time.Second),
		seconds:  time.Duration(*seconds) * time.Second,
		perLayer: *trace != 0,
		traceOut: *traceOut,
	}
	res := resultFile{Provenance: newProvenance(*commit, cfg, *repeat)}
	for i := 0; i < *repeat; i++ {
		order := append([]workload(nil), set...)
		if i%2 == 1 {
			// Alternate the order so drift on the machine does not always
			// land on the same workload.
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		c := cfg
		c.seed = cfg.seed + int64(i)
		for _, w := range order {
			r, err := runWorkload(w, c)
			if err != nil {
				fmt.Fprintf(stderr, "vdo-perf: %s: %v\n", w.Name, err)
				return 2
			}
			writeRun(stdout, r)
			res.Runs = append(res.Runs, r)
		}
	}
	sum := res.summary()
	if *repeat > 1 {
		writeSummary(stdout, sum)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintf(stderr, "vdo-perf: %v\n", err)
			return 2
		}
	}

	line := lastLine{Metrics: map[string]metricValue{}}
	for _, r := range res.Runs {
		line.Attempted += r.Oracle.Checked
		line.Failed += r.Oracle.Failed
	}
	line.Correct = line.Failed == 0
	for _, w := range set {
		for _, d := range catalogue {
			if d.Unlisted || (*trace == 0 && !d.EndToEnd) || (*trace == 1 && d.EndToEnd) {
				continue
			}
			key := d.Name
			if len(set) > 1 {
				key = w.Name + "." + d.Name
			}
			line.Metrics[key] = metricValue{Value: sum[w.Name][d.Name].Median, Unit: d.Unit}
		}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "vdo-perf: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(enc))
	if !line.Correct {
		return 1
	}
	return 0
}

// lastLine is the final output line.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Samples is the detection-latency sample count behind detect_p50_ms;
	// Intervals and IntervalFewest describe the detect_p99_ms intervals.
	Samples        int                `json:"samples"`
	Intervals      int                `json:"intervals"`
	IntervalFewest int                `json:"interval_fewest_samples"`
	Oracle         oracleResult       `json:"oracle"`
	Metrics        map[string]float64 `json:"metrics"`
}

// rounds is how many times a run samples the machine. Its speed drifts
// over seconds, so a run spreads its measurement over three rounds, each a
// flat-out pass and an open-loop segment on fresh fleets. The median pass
// gives the throughput; allocations, counts and open-loop samples are
// pooled over all three.
const rounds = 3

// flatLength is a flat-out pass's schedule, segmentLength the measured
// window of an open-loop segment, and tracedLength the traced phase's
// schedule: the first half of a flat-out pass. All are whole ticks.
func flatLength(seconds time.Duration) time.Duration    { return seconds / 2 / tick * tick }
func segmentLength(seconds time.Duration) time.Duration { return seconds / rounds / tick * tick }
func tracedLength(seconds time.Duration) time.Duration  { return seconds / 4 / tick * tick }

// warmupLength is the unmeasured start of each open-loop segment: one
// fallback period, since no sweep stalls the first one and latency there
// is lower than anywhere after. Short smoke runs warm up for a quarter of
// their seconds instead.
func warmupLength(seconds time.Duration) time.Duration {
	return min(fallbackEvery, seconds/4/tick*tick)
}

// churnSeed is the churn stream of a round. Every round of a run replays
// its own stream on the same fleet, so per-event figures average over
// three times as many distinct events; no two (seed, round) pairs share a
// stream.
func churnSeed(seed int64, round int) int64 { return seed*rounds + int64(round) + 1 }

// runWorkload runs the rounds of one workload, with the traced phase after
// the middle one when the per-layer metrics are wanted.
func runWorkload(w workload, cfg config) (*runResult, error) {
	m := &measurements{w: w, warmup: cfg.warmup, window: segmentLength(cfg.seconds)}
	for i := 0; i < rounds; i++ {
		churn := churnSeed(cfg.seed, i)
		if err := m.flatOut(cfg, churn); err != nil {
			return nil, err
		}
		if err := m.openLoop(cfg, churn); err != nil {
			return nil, err
		}
		if i == rounds/2 && cfg.perLayer {
			if err := m.tracedPhase(cfg, churn); err != nil {
				return nil, err
			}
		}
	}
	lat, p99s, fewest := m.latency()
	return &runResult{
		Workload:       w.Name,
		Seed:           cfg.seed,
		Samples:        len(lat),
		Intervals:      len(p99s),
		IntervalFewest: fewest,
		Oracle:         m.oracle,
		Metrics:        m.metrics(),
	}, nil
}

// newRig builds a phase's rig on a collected heap and records the set-up
// of an untraced one.
func (m *measurements) newRig(cfg config, churn int64, tracer *telemetry.Tracer, ins *instruments) (*rig, error) {
	runtime.GC()
	r, err := newRig(m.w, cfg.hosts, cfg.seed, churn, tracer, ins)
	if err != nil {
		return nil, err
	}
	if tracer == nil {
		m.setups = append(m.setups, r.setup)
	}
	return r, nil
}

func (m *measurements) flatOut(cfg config, churn int64) error {
	r, err := m.newRig(cfg, churn, nil, nil)
	if err != nil {
		return err
	}
	ps := r.run(false, 0, flatLength(cfg.seconds), tracedLength(cfg.seconds))
	m.oracle.add(r.verify(ps.events))
	m.flats = append(m.flats, ps)
	return nil
}

func (m *measurements) openLoop(cfg config, churn int64) error {
	r, err := m.newRig(cfg, churn, nil, nil)
	if err != nil {
		return err
	}
	ps := r.run(true, m.warmup, m.warmup+m.window, 0)
	m.opens = append(m.opens, ps)
	m.heapMB = append(m.heapMB, float64(liveHeap())/1e6)
	m.logEvents = append(m.logEvents, float64(r.logEvents()))
	m.oracle.add(r.verify(ps.events))
	return nil
}

func (m *measurements) tracedPhase(cfg config, churn int64) error {
	sink := &spanSink{}
	tracer := telemetry.New(nil, telemetry.WithSink(sink))
	m.ins = &instruments{}
	r, err := m.newRig(cfg, churn, tracer, m.ins)
	if err != nil {
		return err
	}
	m.ins.counting = true
	sink.on.Store(true)
	m.traced = r.run(false, 0, tracedLength(cfg.seconds), 0)
	sink.on.Store(false)
	m.ins.counting = false
	if err := tracer.Flush(); err != nil {
		return err
	}
	m.oracle.add(r.verify(m.traced.events))
	if r.s != nil {
		// Tear the fleet down through Unwatch so every push workload times
		// it, joins and leaves or not.
		for _, h := range r.f.Hosts() {
			r.unwatch(h.Name)
		}
	}
	m.spans = summarize(sink.spans)
	if cfg.traceOut != "" {
		p := filepath.Join(cfg.traceOut, fmt.Sprintf("%s-seed%d.jsonl", m.w.Name, cfg.seed))
		if err := writeSpans(p, sink.spans); err != nil {
			return err
		}
	}
	return nil
}

// writeRun prints one run's metrics as a table.
func writeRun(w io.Writer, r *runResult) {
	t := report.New(fmt.Sprintf("vdo-perf %s, seed %d", r.Workload, r.Seed), "metric", "value", "unit")
	for _, d := range catalogue {
		if v, ok := r.Metrics[d.Name]; ok {
			t.AddRow(d.Name, fmt.Sprintf("%.6g", v), d.Unit)
		}
	}
	t.Note = fmt.Sprintf("detect_p50_ms over %d samples; detect_p99_ms is the median of %d interval p99s (fewest samples %d); oracle checked %d, failed %d",
		r.Samples, r.Intervals, r.IntervalFewest, r.Oracle.Checked, r.Oracle.Failed)
	for _, f := range r.Oracle.First {
		t.Note += "\n  oracle: " + f
	}
	t.WriteText(w)
	fmt.Fprintln(w)
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Provenance provenance   `json:"provenance"`
	Runs       []*runResult `json:"runs"`
}

// stat is one metric's distribution over the runs of a workload.
type stat struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// spread is the interquartile distance as a share of the median.
func (s stat) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

// summary returns, per workload and metric, the median and quartiles.
func (f resultFile) summary() map[string]map[string]stat {
	values := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for k, v := range r.Metrics {
			values[r.Workload][k] = append(values[r.Workload][k], v)
		}
	}
	out := map[string]map[string]stat{}
	for w, byName := range values {
		out[w] = map[string]stat{}
		for k, vs := range byName {
			q1, q3 := quartiles(vs)
			out[w][k] = stat{N: len(vs), Median: median(vs), Q1: q1, Q3: q3}
		}
	}
	return out
}

func writeSummary(w io.Writer, sum map[string]map[string]stat) {
	t := report.New("vdo-perf repeats", "workload", "metric", "median", "q1", "q3", "spread", "unit")
	for _, name := range sortedKeys(sum) {
		for _, d := range catalogue {
			s, ok := sum[name][d.Name]
			if !ok {
				continue
			}
			t.AddRow(name, d.Name, fmt.Sprintf("%.6g", s.Median), fmt.Sprintf("%.6g", s.Q1),
				fmt.Sprintf("%.6g", s.Q3), report.Percent(s.spread()), d.Unit)
		}
	}
	t.WriteText(w)
	fmt.Fprintln(w)
}

// compareFiles judges NEW against BASE on every end-to-end metric with a
// bound, on every workload either file holds: regressed when NEW's median
// is worse than BASE's by more than the bound, otherwise unresolved when
// either set's spread exceeds the bound. It exits 1 on any regression, and
// 2 when a workload or metric is missing from either file, since an
// incomplete file proves nothing.
func compareFiles(basePath, newPath string, stdout, stderr io.Writer) int {
	var base, cur resultFile
	for _, p := range []struct {
		path string
		into *resultFile
	}{{basePath, &base}, {newPath, &cur}} {
		data, err := os.ReadFile(p.path)
		if err == nil {
			err = json.Unmarshal(data, p.into)
		}
		if err != nil {
			fmt.Fprintf(stderr, "vdo-perf: %v\n", err)
			return 2
		}
	}
	bs, cs := base.summary(), cur.summary()
	t := report.New(fmt.Sprintf("vdo-perf compare: %s (%s) -> %s (%s)",
		basePath, base.Provenance.Commit, newPath, cur.Provenance.Commit),
		"workload", "metric", "base", "new", "worse by", "bound", "spread base/new", "verdict")
	both := map[string]bool{}
	for name := range bs {
		both[name] = true
	}
	for name := range cs {
		both[name] = true
	}
	if len(both) == 0 {
		fmt.Fprintln(stderr, "vdo-perf: -compare: neither file holds a run")
		return 2
	}
	regressed, missing := 0, 0
	for _, name := range sortedKeys(both) {
		for _, d := range catalogue {
			if !d.EndToEnd || d.Bound == 0 {
				continue
			}
			b, inBase := bs[name][d.Name]
			c, inNew := cs[name][d.Name]
			if !inBase || !inNew {
				missing++
				t.AddRow(name, d.Name, present(inBase), present(inNew), "-", report.Percent(d.Bound), "-", "MISSING")
				continue
			}
			worse := ratio(c.Median-b.Median, b.Median)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSED"
				regressed++
			case b.spread() > d.Bound || c.spread() > d.Bound:
				verdict = "unresolved"
			}
			t.AddRow(name, d.Name, fmt.Sprintf("%.6g", b.Median), fmt.Sprintf("%.6g", c.Median),
				report.Percent(worse), report.Percent(d.Bound),
				report.Percent(b.spread())+" / "+report.Percent(c.spread()), verdict)
		}
	}
	t.WriteText(stdout)
	switch {
	case missing > 0:
		fmt.Fprintf(stderr, "vdo-perf: -compare: %d workload metrics missing from a file\n", missing)
		return 2
	case regressed > 0:
		return 1
	}
	return 0
}

func present(ok bool) string {
	if ok {
		return "present"
	}
	return "missing"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// provenance records what produced a result file.
type provenance struct {
	Commit string `json:"commit"`
	// Dirty is null when neither the build's VCS stamp nor -commit says
	// whether the tree was modified.
	Dirty      *bool  `json:"dirty"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Repeat     int    `json:"repeat"`
	Hosts      int    `json:"hosts"`
	// Phase lengths: each open-loop segment's warm-up and measured window
	// on the wall clock, and the virtual length of the flat-out and traced
	// schedules (events = rate × length). A run makes three of each but
	// the traced phase.
	WarmupS  float64 `json:"warmup_s"`
	SegmentS float64 `json:"open_loop_segment_s"`
	FlatOutS float64 `json:"flat_out_s"`
	TracedS  float64 `json:"traced_s"`
}

func newProvenance(commit string, cfg config, repeat int) provenance {
	p := provenance{
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.seed,
		Repeat:     repeat,
		Hosts:      cfg.hosts,
		WarmupS:    cfg.warmup.Seconds(),
		SegmentS:   segmentLength(cfg.seconds).Seconds(),
		FlatOutS:   flatLength(cfg.seconds).Seconds(),
		TracedS:    tracedLength(cfg.seconds).Seconds(),
	}
	if commit != "" {
		rev, dirty := strings.CutSuffix(commit, "-dirty")
		p.Commit, p.Dirty = rev, &dirty
		return p
	}
	p.Commit = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				dirty := s.Value == "true"
				p.Dirty = &dirty
			}
		}
	}
	return p
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
