package core

import "sync"

// Cross-host check dedup: on a fleet of N identically-configured hosts,
// the same STIG check against the same observable state produces the same
// verdict N times. A requirement that can digest the host state its Check
// reads (StateDigester) gets a stable fingerprint — finding ID plus state
// digest — and a CheckMemo shared across one sweep memoises the first
// execution of each fingerprint, replaying the verdict to every identical
// co-tenant. The digest stands in for the cheap fleet-inventory read a
// live audit agent has; the memoised execution stands in for the per-check
// transport round-trip it avoids.

// StateDigester is an optional extension of Checkable for requirements
// that can produce a canonical digest of exactly the host state their
// Check reads. Two requirements with equal fingerprints
// (CheckFingerprint) must produce equal Check verdicts; anything
// nondeterministic per host — injected faults, time-dependent probes —
// must not implement it (or must report ok=false).
type StateDigester interface {
	// CheckStateDigest returns the canonical state digest and whether one
	// is available right now (an unreachable host, for example, is not
	// digestable).
	CheckStateDigest() (string, bool)
}

// Fingerprint is the dedup key of a requirement: its finding ID and the
// canonical digest of the host state its Check reads. It is comparable,
// so CheckMemo keys by it without joining the two into a new string.
type Fingerprint struct {
	FindingID string
	Digest    string
}

// CheckFingerprint returns the dedup key of a requirement (Fingerprint).
// ok=false when the requirement does not support digesting or the digest
// probe itself failed (a probe panic — say an unreachable host — is
// absorbed here and simply disables dedup for that requirement).
func CheckFingerprint(req Requirement) (fp Fingerprint, ok bool) {
	sd, is := req.(StateDigester)
	if !is {
		return Fingerprint{}, false
	}
	defer func() {
		if recover() != nil {
			fp, ok = Fingerprint{}, false
		}
	}()
	d, dok := sd.CheckStateDigest()
	if !dok {
		return Fingerprint{}, false
	}
	return Fingerprint{FindingID: req.FindingID(), Digest: d}, true
}

// CheckMemo memoises check executions by fingerprint within one audit
// sweep. It is single-flight: the first arrival for a fingerprint
// executes, concurrent arrivals for the same fingerprint wait for that
// execution and replay its verdict, so each distinct (requirement, state)
// pair is executed exactly once per sweep no matter how many hosts share
// it. Safe for concurrent use; share one memo per sweep, never across
// sweeps (host state may move between sweeps).
type CheckMemo struct {
	mu      sync.Mutex
	entries map[Fingerprint]*memoEntry
}

type memoEntry struct {
	done chan struct{}
	res  Result
}

// NewCheckMemo returns an empty memo.
func NewCheckMemo() *CheckMemo {
	return &CheckMemo{entries: map[Fingerprint]*memoEntry{}}
}

// Unique reports how many distinct fingerprints have been executed or are
// in flight.
func (m *CheckMemo) Unique() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// acquire resolves a fingerprint: a hit blocks until the in-flight
// execution completes and returns its result; a miss registers the caller
// as the executor, which must call fulfill exactly once.
func (m *CheckMemo) acquire(key Fingerprint) (Result, bool) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.mu.Unlock()
		<-e.done
		return e.res, true
	}
	m.entries[key] = &memoEntry{done: make(chan struct{})}
	m.mu.Unlock()
	return Result{}, false
}

// fulfill publishes the executor's result and wakes every waiter.
func (m *CheckMemo) fulfill(key Fingerprint, res Result) {
	m.mu.Lock()
	e := m.entries[key]
	m.mu.Unlock()
	if e == nil {
		return
	}
	e.res = res
	close(e.done)
}
