package fleet

import (
	"fmt"
	"slices"
	"sort"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

// Dynamic declared-reads oracle: run every catalogue entry one at a
// time with a host.ReadRecorder attached and compare the state keys the
// check actually read against the keys it declares via
// core.KeyReader.CheckStateKeys. This closes the hole the static
// keyreads analyzer must leave open — reads through function values,
// cross-package helpers, or data-dependent key names — at the cost of
// only observing the paths the current host state exercises.
//
// Verdict semantics differ from the static side accordingly:
//
//   - an undeclared recorded read is a hard violation (push-mode
//     unsoundness, observed, not inferred);
//   - a declared key that was not read is advisory only — short-circuit
//     evaluation legitimately skips reads on some states;
//   - a check that reads but implements no KeyReader is advisory
//     ("unlocalized"): DepIndex already treats it conservatively.

// Violation kinds.
const (
	// ViolationUndeclared marks a recorded read no declared key covers.
	ViolationUndeclared = "undeclared"
	// ViolationOverdeclared marks declared keys the run never read
	// (advisory: may be state-dependent short-circuiting).
	ViolationOverdeclared = "overdeclared"
	// ViolationUnlocalized marks a check that read host state but
	// declares nothing (no KeyReader / empty declaration).
	ViolationUnlocalized = "unlocalized"
)

// ReadViolation is one mismatch between a check's recorded reads and
// its declaration.
type ReadViolation struct {
	// Finding is the catalogue entry's finding ID.
	Finding string
	// Kind is one of the Violation* constants.
	Kind string
	// Keys are the offending state keys (recorded-but-undeclared, or
	// declared-but-unread), sorted.
	Keys []host.StateKey
	// Declared and Read are the full key sets, sorted, for diagnostics.
	Declared []host.StateKey
	Read     []host.StateKey
}

func (v ReadViolation) String() string {
	return fmt.Sprintf("%s: %s %v (declared %v, read %v)", v.Finding, v.Kind, v.Keys, v.Declared, v.Read)
}

// Fatal reports whether the violation is a soundness failure (an
// undeclared read) rather than an advisory finding.
func (v ReadViolation) Fatal() bool { return v.Kind == ViolationUndeclared }

// Recordable is a host that accepts a read recorder; *host.Linux and
// *host.Windows implement it.
type Recordable interface {
	SetRecorder(rec *host.ReadRecorder)
}

// VerifyReads runs every entry of the catalogue individually (engine-
// routed, CheckOnly, no dedup memo — a memo's state digests would read
// the hosts outside the check) with a recorder attached to the given
// hosts, and returns the violations sorted by finding ID then kind.
// The caller must ensure nothing else touches the hosts concurrently;
// recorders are detached before returning. Checks on unreachable hosts
// record nothing (the accessor panics before reading) and therefore
// surface at worst as overdeclared, never as undeclared.
func VerifyReads(cat *core.Catalog, hosts ...Recordable) []ReadViolation {
	rec := host.NewReadRecorder()
	for _, h := range hosts {
		h.SetRecorder(rec)
	}
	defer func() {
		for _, h := range hosts {
			h.SetRecorder(nil)
		}
	}()

	var out []ReadViolation
	for _, req := range cat.All() {
		rec.Reset()
		cat.RunEngine(core.RunOptions{Mode: core.CheckOnly, Workers: 1, Only: []string{req.FindingID()}})
		read := rec.Keys()
		declared, localized := core.CheckKeys(req)
		// Sorted in a copy: the slice may be the requirement's own.
		declared = slices.Clone(declared)
		slices.SortFunc(declared, host.CompareKeys)
		add := func(kind string, keys []host.StateKey) {
			if len(keys) > 0 {
				out = append(out, ReadViolation{Finding: req.FindingID(), Kind: kind, Keys: keys, Declared: declared, Read: read})
			}
		}
		if !localized {
			add(ViolationUnlocalized, read)
			continue
		}
		add(ViolationUndeclared, missing(read, declared))
		add(ViolationOverdeclared, missing(declared, read))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Finding != out[j].Finding {
			return out[i].Finding < out[j].Finding
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// missing returns, in order, the keys of a that b does not contain.
func missing(a, b []host.StateKey) []host.StateKey {
	var out []host.StateKey
	for _, k := range a {
		if !slices.Contains(b, k) {
			out = append(out, k)
		}
	}
	return out
}

// FatalViolations filters to soundness failures.
func FatalViolations(vs []ReadViolation) []ReadViolation {
	var out []ReadViolation
	for _, v := range vs {
		if v.Fatal() {
			out = append(out, v)
		}
	}
	return out
}
