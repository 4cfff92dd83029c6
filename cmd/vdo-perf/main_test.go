package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"veridevops/internal/host"
	"veridevops/internal/stig"
)

// benchmarkSpec is the part of BENCHMARK.json the tests hold vdo-perf to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCatalogue holds BENCHMARK.json and the metric catalogue
// together: the same workloads, and for every listed metric the same
// unit, direction, kind and bound.
func TestSpecMatchesCatalogue(t *testing.T) {
	spec := readSpec(t)
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range ws {
		want = append(want, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, workloads/ holds %v", got, want)
	}

	listed := map[string]metricDef{}
	for _, d := range catalogue {
		if !d.Unlisted {
			listed[d.Name] = d
		}
	}
	check := func(m specMetric, endToEnd bool) {
		d, ok := listed[m.Name]
		if !ok {
			t.Errorf("BENCHMARK.json metric %s is not a listed catalogue metric", m.Name)
			return
		}
		delete(listed, m.Name)
		if d.Unit != m.Unit || d.Better != m.Better || d.EndToEnd != endToEnd {
			t.Errorf("%s: BENCHMARK.json says %s/%s/end-to-end=%v, catalogue %s/%s/%v",
				m.Name, m.Unit, m.Better, endToEnd, d.Unit, d.Better, d.EndToEnd)
		}
		if endToEnd && (m.Bound == nil || *m.Bound != d.Bound) {
			t.Errorf("%s: BENCHMARK.json bound %v, catalogue %v", m.Name, m.Bound, d.Bound)
		}
	}
	for _, m := range spec.EndToEnd {
		check(m, true)
	}
	for _, m := range spec.PerLayer {
		check(m, false)
	}
	for name := range listed {
		t.Errorf("catalogue metric %s is missing from BENCHMARK.json", name)
	}
}

// TestSmokeAllWorkloads runs every workload on a small fleet with short
// phases and checks the output contract: every BENCHMARK.json metric is
// emitted with its unit under a well-formed name, and the oracle finds
// nothing wrong.
func TestSmokeAllWorkloads(t *testing.T) {
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-hosts", "200", "-seconds", "1", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("result line: correct %v, attempted %d, failed %d", last.Correct, last.Attempted, last.Failed)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			key := w.Name + "." + m.Name
			if !name.MatchString(key) {
				t.Errorf("metric name %q is malformed", key)
			}
			v, ok := last.Metrics[key]
			switch {
			case !ok:
				t.Errorf("%s not emitted", key)
			case v.Unit != m.Unit:
				t.Errorf("%s emitted in %q, BENCHMARK.json says %q", key, v.Unit, m.Unit)
			}
		}
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res resultFile
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(spec.Workloads) {
		t.Fatalf("result file holds %d runs, want %d", len(res.Runs), len(spec.Workloads))
	}
	for _, r := range res.Runs {
		if r.Metrics["error_rate"] != 0 {
			t.Errorf("%s: error_rate %v, oracle: %v", r.Workload, r.Metrics["error_rate"], r.Oracle.First)
		}
	}
	if res.Provenance.Hosts != 200 || res.Provenance.GOMAXPROCS < 1 || res.Provenance.Commit == "" {
		t.Errorf("provenance incomplete: %+v", res.Provenance)
	}
}

// TestProvenanceCommit checks that -commit sets the dirty flag from its
// suffix, and that without -commit or a VCS stamp the flag stays unknown
// rather than reading clean.
func TestProvenanceCommit(t *testing.T) {
	for _, tc := range []struct {
		flag, commit string
		dirty        bool
	}{
		{"abc123", "abc123", false},
		{"abc123-dirty", "abc123", true},
	} {
		p := newProvenance(tc.flag, config{}, 1)
		if p.Commit != tc.commit || p.Dirty == nil || *p.Dirty != tc.dirty {
			t.Errorf("-commit %s: commit %q, dirty %v", tc.flag, p.Commit, p.Dirty)
		}
	}
	// Test binaries carry no VCS stamp.
	if p := newProvenance("", config{}, 1); p.Commit != "unknown" || p.Dirty != nil {
		t.Errorf("no -commit: commit %q, dirty %v, want unknown and null", p.Commit, p.Dirty)
	}
}

// TestOracleCatchesStaleVerdict plants a stale verdict: a host's catalogue
// is swapped after priming without invalidating anything, so the
// streamer's view still holds the old catalogue's verdicts.
func TestOracleCatchesStaleVerdict(t *testing.T) {
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	var steady workload
	for _, w := range ws {
		if w.Name == "steady" {
			steady = w
		}
	}
	r, err := newRig(steady, 20, 3, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o := r.verify(0); o.Failed != 0 {
		t.Fatalf("primed view already fails the oracle: %v", o.First)
	}
	victim := r.f.Hosts()[0]
	victim.SetCatalog(stig.UbuntuCatalog(host.NewUbuntu1804()))
	o := r.verify(0)
	if o.Failed == 0 {
		t.Fatal("oracle missed the stale verdicts")
	}
	if !strings.Contains(strings.Join(o.First, "\n"), victim.Name) {
		t.Errorf("failures do not name %s: %v", victim.Name, o.First)
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 || median([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) != 5.5 {
		t.Errorf("quartiles %v %v", q1, q3)
	}
}

// TestCompareFlagsRegression feeds -compare sets that differ from the
// base only in max_ev_s: within the bound they pass, past it they fail
// however noisy, a noisy set within the bound is unresolved, and a file
// that lacks a workload or a metric fails the comparison.
func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name, workload string, drop string, evs ...float64) string {
		var f resultFile
		for _, v := range evs {
			m := map[string]float64{
				"setup_s": 1, "detect_p50_ms": 5, "detect_p99_ms": 50, "max_ev_s": v,
				"alloc_b_per_event": 6000, "heap_mb": 100,
			}
			delete(m, drop)
			f.Runs = append(f.Runs, &runResult{Workload: workload, Metrics: m})
		}
		p := filepath.Join(dir, name)
		if err := writeJSON(p, f); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", "steady", "", 1000, 1001, 999, 1000)
	var bound float64
	for _, d := range catalogue {
		if d.Name == "max_ev_s" {
			bound = d.Bound
		}
	}
	slow := 1000 * (1 - bound - 0.05)
	for _, tc := range []struct {
		name     string
		workload string
		drop     string
		evs      []float64
		code     int
		want     string
	}{
		{"same", "steady", "", []float64{995, 1000, 1002, 998}, 0, `max_ev_s .*ok`},
		{"slower", "steady", "", []float64{slow, slow + 1, slow - 1, slow}, 1, `max_ev_s .*REGRESSED`},
		{"noisy", "steady", "", []float64{500, 1500, 700, 1200}, 0, `max_ev_s .*unresolved`},
		{"noisy-slower", "steady", "", []float64{slow / 2, slow * 1.5, slow * 0.7, slow * 1.2}, 1, `max_ev_s .*REGRESSED`},
		{"no-metric", "steady", "heap_mb", []float64{1000, 1000}, 2, `heap_mb .*MISSING`},
		{"no-workload", "sweep", "", []float64{1000, 1000}, 2, `steady .*max_ev_s .*MISSING`},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-compare", base, write(tc.name+".json", tc.workload, tc.drop, tc.evs...)}, &stdout, &stderr)
		if code != tc.code || !regexp.MustCompile(tc.want).MatchString(stdout.String()) {
			t.Errorf("%s: exit %d, want %d with %s:\n%s%s", tc.name, code, tc.code, tc.want, stdout.String(), stderr.String())
		}
	}
}

// TestIntervalP99 checks the interval rule: intervals are whole fallback
// periods long enough for the rate to offer minIntervalEvents, and the
// median of the per-interval p99s ignores one interval's stall.
func TestIntervalP99(t *testing.T) {
	for rate, want := range map[float64]time.Duration{
		16000: 500 * time.Millisecond, 4000: 500 * time.Millisecond,
		1500: time.Second, 1000: 1500 * time.Millisecond,
	} {
		if got := intervalLength(rate); got != want {
			t.Errorf("interval at %v ev/s is %v, want %v", rate, got, want)
		}
	}
	var samples []sample
	for i := 0; i < 10*2000; i++ {
		due := time.Duration(i) * time.Second / 2000
		lat := time.Duration(i%100) * time.Millisecond
		if due < time.Second {
			lat += time.Second // a stall in the first interval only
		}
		samples = append(samples, sample{due: due, lat: lat})
	}
	p99s, fewest := intervalP99s(samples, 0, 10*time.Second, time.Second)
	if p99 := median(p99s); len(p99s) != 10 || fewest != 2000 || p99 != 98*time.Millisecond {
		t.Errorf("p99 %v over %d intervals (fewest %d), want 98ms over 10 (2000)", p99, len(p99s), fewest)
	}
}
