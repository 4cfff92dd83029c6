package fleet

import (
	"fmt"
	"sort"
	"time"

	"veridevops/internal/core"
)

// View is a live fleet-compliance view built from full per-host reports:
// each host's current verdict per finding, its open violation episodes,
// whether its last report was degraded, and the fleet-wide
// pass/fail/incomplete counts, kept incrementally as reports fold in.
//
// Episodes follow the monitor package's dedup discipline: a finding
// entering non-PASS opens one episode (one Alarm) and does not alarm
// again until it has passed in between, which closes the episode (one
// repair). The Streamer and the scenario executor both track verdicts
// through a View, so sweep and push evaluation share one accounting.
//
// The zero value is not usable; call NewView. A View is not safe for
// concurrent use.
type View struct {
	hosts                  map[string]*viewHost
	pass, fail, incomplete int
}

// viewHost is one host's slice of the view.
type viewHost struct {
	status map[string]core.CheckStatus
	// open holds the findings with an open violation episode; allocated
	// on the host's first violation.
	open     map[string]bool
	degraded bool
}

// NewView returns an empty view.
func NewView() *View {
	return &View{hosts: map[string]*viewHost{}}
}

// Fold merges host name's full report into the view at instant at. It
// appends one Alarm per violation episode the report opens to alarms and
// returns the extended slice together with the number of episodes the
// report closed. Episodes are judged over the whole report, so a report
// merged from a subset run both opens and closes the episodes it
// touched.
func (v *View) Fold(at time.Duration, name string, rep core.Report, alarms []Alarm) ([]Alarm, int) {
	h := v.hosts[name]
	if h == nil {
		h = &viewHost{status: make(map[string]core.CheckStatus, len(rep.Results))}
		v.hosts[name] = h
	}
	repairs := 0
	for _, r := range rep.Results {
		if old, had := h.status[r.FindingID]; !had || old != r.After {
			if had {
				v.count(old, -1)
			}
			h.status[r.FindingID] = r.After
			v.count(r.After, +1)
		}
		if r.After != core.CheckPass {
			if !h.open[r.FindingID] {
				if h.open == nil {
					h.open = map[string]bool{}
				}
				h.open[r.FindingID] = true
				alarms = append(alarms, Alarm{At: at, Host: name, Finding: r.FindingID, Status: r.After})
			}
		} else if h.open[r.FindingID] {
			delete(h.open, r.FindingID)
			repairs++
		}
	}
	h.degraded = degradedReport(rep)
	return alarms, repairs
}

// Drop removes a host from the view: its verdicts leave the counts and
// its open episodes are orphaned — they happened, but can no longer be
// repaired.
func (v *View) Drop(name string) {
	h := v.hosts[name]
	if h == nil {
		return
	}
	for _, st := range h.status {
		v.count(st, -1)
	}
	delete(v.hosts, name)
}

// count moves one verdict in or out of the live counts.
func (v *View) count(st core.CheckStatus, delta int) {
	switch st {
	case core.CheckPass:
		v.pass += delta
	case core.CheckFail:
		v.fail += delta
	default:
		v.incomplete += delta
	}
}

// Counts returns the live fleet-wide verdict counts. Hosts with no
// folded report contribute nothing.
func (v *View) Counts() (pass, fail, incomplete int) {
	return v.pass, v.fail, v.incomplete
}

// Compliance is the live fraction of PASS verdicts; an empty view is
// fully compliant, matching FleetReport.Compliance.
func (v *View) Compliance() float64 {
	total := v.pass + v.fail + v.incomplete
	if total == 0 {
		return 1
	}
	return float64(v.pass) / float64(total)
}

// Status returns a host's current verdict for a finding and whether the
// view holds one.
func (v *View) Status(name, finding string) (core.CheckStatus, bool) {
	h := v.hosts[name]
	if h == nil {
		return 0, false
	}
	st, ok := h.status[finding]
	return st, ok
}

// Degraded reports whether a host's last folded report had the degraded
// shape (see degradedReport); false for hosts not in the view.
func (v *View) Degraded(name string) bool {
	h := v.hosts[name]
	return h != nil && h.degraded
}

// Lines renders the view as sorted "host finding status" lines.
func (v *View) Lines() []string {
	var out []string
	for name, h := range v.hosts {
		for id, st := range h.status {
			out = append(out, fmt.Sprintf("%s %s %s", name, id, st))
		}
	}
	sort.Strings(out)
	return out
}

// degradedReport reports whether a report has the degraded shape — the
// unreachable host's: at least one verdict and every final status
// ERROR. It is judged from the verdicts because a cache replay carries
// zero stats; newCacheEntry records it once per entry.
func degradedReport(rep core.Report) bool {
	if len(rep.Results) == 0 {
		return false
	}
	for _, r := range rep.Results {
		if r.After != core.CheckError {
			return false
		}
	}
	return true
}
