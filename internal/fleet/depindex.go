package fleet

import (
	"sort"
	"strconv"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

// DepIndex is the reverse dependency index of one catalogue: host-state
// key (host.StateKey, host.PackageKey("nis")) → the finding IDs of the
// checks that read that slot (core.KeyReader). It is what turns a host
// event delta into the exact set of checks to re-run — O(changed keys)
// instead of O(requirements) — for the push-based streaming evaluator.
//
// Requirements that declare no keys are collected as unindexed: the
// index cannot localise their reads, so Affected conservatively includes
// them in every delta.
//
// A DepIndex is immutable after construction and safe for concurrent
// reads, which is what lets a Streamer share one index among every
// watched host whose catalogue makes the same declarations (see
// Streamer.Watch).
type DepIndex struct {
	byKey     map[host.StateKey][]string
	unindexed []string
	findings  int
}

// BuildDepIndex builds the index of a catalogue. Construction iterates
// Catalog.All, which returns entries in finding-ID order, and every
// slice the index holds is sorted — so two indexes built from equal
// catalogues are deeply equal regardless of registration or
// map-iteration order.
func BuildDepIndex(c *core.Catalog) *DepIndex { return buildDepIndex(declarations(c)) }

// keyDecl is one catalogue entry's read declaration: its finding ID and
// what core.CheckKeys reports for it.
type keyDecl struct {
	id   string
	keys []host.StateKey
	ok   bool
}

// declarations lists a catalogue's read declarations in finding-ID
// order; nil for a nil catalogue.
func declarations(c *core.Catalog) []keyDecl {
	if c == nil {
		return nil
	}
	reqs := c.All()
	out := make([]keyDecl, len(reqs))
	for i, req := range reqs {
		out[i].id = req.FindingID()
		out[i].keys, out[i].ok = core.CheckKeys(req)
	}
	return out
}

// appendDeclSignature appends the encoding of declarations to b: each
// finding ID, then "-" for an undeclared read set or "+<count>;" and the
// keys, with every ID and every key's kind and name length-prefixed
// ("<len>:<bytes>"). The encoding is unambiguous, so catalogues with
// equal signatures get equal indexes from BuildDepIndex: the signature
// is the key the Streamer interns indexes under.
func appendDeclSignature(b []byte, decls []keyDecl) []byte {
	field := func(s string) {
		b = strconv.AppendInt(b, int64(len(s)), 10)
		b = append(b, ':')
		b = append(b, s...)
	}
	for _, d := range decls {
		field(d.id)
		if !d.ok {
			b = append(b, '-')
			continue
		}
		b = strconv.AppendInt(append(b, '+'), int64(len(d.keys)), 10)
		b = append(b, ';')
		for _, k := range d.keys {
			field(k.Kind)
			field(k.Name)
		}
	}
	return b
}

// buildDepIndex builds the index of a declaration list in finding-ID
// order.
func buildDepIndex(decls []keyDecl) *DepIndex {
	x := &DepIndex{byKey: map[host.StateKey][]string{}}
	for _, d := range decls {
		x.findings++
		if !d.ok {
			x.unindexed = append(x.unindexed, d.id)
			continue
		}
		for _, k := range d.keys {
			x.byKey[k] = append(x.byKey[k], d.id)
		}
	}
	// Declarations come in ID order, so appends already are sorted — but
	// a requirement may declare duplicate keys; dedup each posting list
	// defensively.
	for k, ids := range x.byKey {
		x.byKey[k] = dedupSorted(ids)
	}
	return x
}

// dedupSorted removes adjacent duplicates from an already-sorted list.
func dedupSorted(ids []string) []string {
	out := ids[:0]
	for _, id := range ids {
		if len(out) == 0 || out[len(out)-1] != id {
			out = append(out, id)
		}
	}
	return out
}

// Affected maps a set of changed state keys to the sorted, deduplicated
// finding IDs that must be re-checked: every check reading one of the
// keys, plus every unindexed check (their reads are unknown, so any
// change might concern them). Keys no check reads contribute nothing —
// Affected of an irrelevant change on a fully-indexed catalogue is
// empty. The result is the one allocation, sized before it is filled,
// however many keys there are.
func (x *DepIndex) Affected(keys []host.StateKey) []string {
	n := len(x.unindexed)
	for _, k := range keys {
		n += len(x.byKey[k])
	}
	if n == 0 {
		return nil
	}
	out := append(make([]string, 0, n), x.unindexed...)
	for _, k := range keys {
		out = append(out, x.byKey[k]...)
	}
	sort.Strings(out)
	return dedupSorted(out)
}

// Unindexed returns the finding IDs that declare no state keys, sorted.
// The returned slice is shared; callers must not mutate it.
func (x *DepIndex) Unindexed() []string { return x.unindexed }

// Keys reports how many distinct state keys the index covers.
func (x *DepIndex) Keys() int { return len(x.byKey) }

// Findings reports how many catalogue entries the index was built from.
func (x *DepIndex) Findings() int { return x.findings }
