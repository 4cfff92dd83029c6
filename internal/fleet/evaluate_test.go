package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"veridevops/internal/core"
)

// TestStreamerUncachedSubsetReportsFullRun pins what a flush reports
// when a keyed delta has no cached report to merge into or replay: the
// evaluator runs the whole catalogue, and the DeltaResults must say so
// rather than claim the planned subset — or, for an empty subset, return
// an empty report.
func TestStreamerUncachedSubsetReportsFullRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		// unversioned strips the target's version probe, so nothing is
		// ever cached; invalidate drops the primed entry instead.
		unversioned, invalidate bool
		// unread installs a package no check reads, so the planned subset
		// is empty rather than one check.
		unread bool
	}{
		{name: "unversioned target", unversioned: true},
		{name: "invalidated entry", invalidate: true},
		{name: "unversioned target, empty subset", unversioned: true, unread: true},
		{name: "invalidated entry, empty subset", invalidate: true, unread: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			targets, hosts := LinuxFleet(1)
			tg := targets[0]
			if tc.unversioned {
				tg.Version = nil
			}
			coord := NewCoordinator()
			s := NewStreamer(coord, StreamOptions{})
			s.Watch(tg, hosts[0].Log())
			prime := s.Flush(0)
			if tc.invalidate {
				coord.Invalidate(tg.Name)
			}

			wantFail := 1
			if tc.unread {
				hosts[0].Install("zz-unrelated", "1")
				wantFail = 0
			} else {
				hosts[0].Remove("aide")
			}
			fr := s.Flush(time.Second)
			if len(fr.Hosts) != 1 {
				t.Fatalf("flush hosts = %+v, want one", fr.Hosts)
			}
			d := fr.Hosts[0]
			if !d.Full || d.Checks != 8 || len(d.Result.Report.Results) != 8 {
				t.Errorf("baseless keyed delta = full=%v checks=%d results=%d, want a full run of 8",
					d.Full, d.Checks, len(d.Result.Report.Results))
			}
			if fr.ChecksEvaluated != 8 || fr.ChecksExecuted > fr.ChecksEvaluated {
				t.Errorf("flush evaluated %d / executed %d, want 8 / <= 8", fr.ChecksEvaluated, fr.ChecksExecuted)
			}
			fullAudits := 0
			for _, d := range append(prime.Hosts, fr.Hosts...) {
				if d.Full {
					fullAudits++
				}
			}
			if fullAudits != 2 {
				t.Errorf("full audits = %d, want 2 (priming + fallback)", fullAudits)
			}
			if _, fail, _ := s.Counts(); fail != wantFail {
				t.Errorf("fail = %d, want %d", fail, wantFail)
			}
			if tc.invalidate && coord.CachedHosts() != 1 {
				t.Errorf("cache holds %d hosts after the full run, want the entry re-primed", coord.CachedHosts())
			}
		})
	}
}

// TestStreamerMatchesFreshSweep is the index-on/index-off equivalence
// check over one code path: seeded keyed drift streams through a
// Streamer (the dependency index selects each delta's checks), and after
// every flush a fresh non-incremental Sweep (the index bypassed, every
// check run) must agree with the Streamer's merged per-host reports and
// its live Counts. The fleet mixes three catalogue shapes (mixedFleet),
// so the hosts share three interned indexes, one of them with an
// unindexed check.
func TestStreamerMatchesFreshSweep(t *testing.T) {
	targets, hosts := mixedFleet(16)
	s := NewStreamer(NewCoordinator(), StreamOptions{Shards: 3, Workers: 2, Dedup: true})
	for i, tg := range targets {
		s.Watch(tg, hosts[i].Log())
	}
	merged := map[string]core.Report{}
	fold := func(fr FlushResult) {
		for _, d := range fr.Hosts {
			merged[d.Host] = d.Result.Report
		}
	}
	fold(s.Flush(0))

	sawFail := false
	rng := rand.New(rand.NewSource(7))
	for step := 1; step <= 30; step++ {
		for n := 0; n < 1+rng.Intn(5); n++ {
			h := hosts[rng.Intn(len(hosts))]
			switch rng.Intn(6) {
			case 0:
				h.Remove("aide")
			case 1:
				h.Install("aide", "1")
			case 2:
				h.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "MD5")
			case 3:
				h.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "SHA512")
			case 4:
				h.Install("nis", "1")
			case 5:
				h.Remove("nis")
			}
		}
		fold(s.Flush(time.Duration(step) * time.Second))

		truth, _ := Sweep(targets, Options{Shards: 2, Workers: 1})
		for _, hr := range truth.Hosts {
			if got := merged[hr.Target]; !reflect.DeepEqual(verdicts(got), verdicts(hr.Report)) {
				t.Fatalf("step %d: %s streamed %v, fresh sweep %v", step, hr.Target, verdicts(got), verdicts(hr.Report))
			}
		}
		p, f, i := truth.Counts()
		sawFail = sawFail || f > 0
		if gp, gf, gi := s.Counts(); gp != p || gf != f || gi != i {
			t.Fatalf("step %d: live counts %d/%d/%d, fresh sweep %d/%d/%d", step, gp, gf, gi, p, f, i)
		}
	}
	if !sawFail {
		t.Error("the drift script never broke a check; the comparison proved nothing")
	}
}

// verdicts is a report's (finding, final status) sequence.
func verdicts(rep core.Report) []string {
	out := make([]string, len(rep.Results))
	for i, r := range rep.Results {
		out[i] = fmt.Sprintf("%s=%s", r.FindingID, r.After)
	}
	return out
}

func TestViewFoldDropAndAccessors(t *testing.T) {
	v := NewView()
	if c := v.Compliance(); c != 1 {
		t.Fatalf("empty compliance = %v, want 1", c)
	}
	rep := func(sts ...core.CheckStatus) core.Report {
		var r core.Report
		for i, st := range sts {
			r.Results = append(r.Results, core.Result{FindingID: fmt.Sprintf("V-%d", i), After: st})
		}
		return r
	}
	alarms, repairs := v.Fold(time.Second, "a", rep(core.CheckPass, core.CheckFail, core.CheckError), nil)
	want := []Alarm{
		{At: time.Second, Host: "a", Finding: "V-1", Status: core.CheckFail},
		{At: time.Second, Host: "a", Finding: "V-2", Status: core.CheckError},
	}
	if !reflect.DeepEqual(alarms, want) || repairs != 0 {
		t.Fatalf("first fold = %+v / %d repairs, want %+v / 0", alarms, repairs, want)
	}
	if p, f, i := v.Counts(); p != 1 || f != 1 || i != 1 {
		t.Fatalf("counts = %d/%d/%d, want 1/1/1", p, f, i)
	}
	// Still violating: no new episode. V-1 passes: one repair.
	alarms, repairs = v.Fold(2*time.Second, "a", rep(core.CheckPass, core.CheckPass, core.CheckError), nil)
	if len(alarms) != 0 || repairs != 1 {
		t.Fatalf("second fold = %+v / %d repairs, want none / 1", alarms, repairs)
	}
	if st, ok := v.Status("a", "V-2"); !ok || st != core.CheckError {
		t.Errorf("Status(a, V-2) = %v, %v", st, ok)
	}
	if _, ok := v.Status("b", "V-0"); ok {
		t.Error("Status on an unknown host reports a verdict")
	}
	v.Fold(2*time.Second, "b", rep(core.CheckError, core.CheckError), nil)
	if !v.Degraded("b") || v.Degraded("a") {
		t.Errorf("degraded a=%v b=%v, want false/true", v.Degraded("a"), v.Degraded("b"))
	}
	wantLines := []string{"a V-0 PASS", "a V-1 PASS", "a V-2 ERROR", "b V-0 ERROR", "b V-1 ERROR"}
	if got := v.Lines(); !reflect.DeepEqual(got, wantLines) {
		t.Errorf("Lines = %q, want %q", got, wantLines)
	}
	v.Drop("b")
	if p, f, i := v.Counts(); p != 2 || f != 0 || i != 1 {
		t.Errorf("counts after Drop = %d/%d/%d, want 2/0/1", p, f, i)
	}
	if v.Degraded("b") {
		t.Error("dropped host still degraded")
	}
	// A dropped host's episodes are gone: folding it back re-alarms.
	if alarms, _ := v.Fold(3*time.Second, "b", rep(core.CheckError), nil); len(alarms) != 1 {
		t.Errorf("re-added host raised %d alarms, want 1", len(alarms))
	}
}
