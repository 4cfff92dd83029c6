package host

import (
	"slices"
	"strings"
	"sync"
)

// ReadRecorder captures which state slots a host's read accessors were
// asked for, as StateKeys. It is the dynamic counterpart of the static
// keyreads analyzer: attach one to a host (SetRecorder), run a check,
// and compare Keys() against the check's CheckStateKeys() declaration —
// any recorded key the declaration does not cover is a push-mode
// soundness hole the dependency index cannot see (fleet.VerifyReads
// automates the comparison over a catalogue).
//
// Whole-inventory accessors (Linux.Packages, Windows.Subcategories)
// record the wildcard key of their kind (name "*", rendered
// "<kind>:*"), which no per-key declaration can cover — such checks are
// inherently non-localizable.
//
// A recorder may be shared by several hosts and is safe for concurrent
// use; recording costs one mutex acquisition per read, so recorders are
// test/verification instrumentation, not production default (hosts
// without a recorder pay a single nil check).
type ReadRecorder struct {
	mu   sync.Mutex
	keys map[StateKey]struct{}
}

// NewReadRecorder returns an empty recorder.
func NewReadRecorder() *ReadRecorder {
	return &ReadRecorder{keys: map[StateKey]struct{}{}}
}

// observe records one read. Nil receivers are no-ops so host accessors
// can call it unconditionally. The set stores a copy of the key's
// strings: storing the caller's would make them escape, so reads would
// heap-allocate the names they build even with no recorder attached.
func (r *ReadRecorder) observe(key StateKey) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.keys[StateKey{strings.Clone(key.Kind), strings.Clone(key.Name)}] = struct{}{}
	r.mu.Unlock()
}

// wildcard builds the whole-inventory key of a kind.
func wildcard(kind string) StateKey { return StateKey{Kind: kind, Name: "*"} }

// Keys returns the distinct recorded keys, sorted (CompareKeys).
func (r *ReadRecorder) Keys() []StateKey {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]StateKey, 0, len(r.keys))
	for k := range r.keys {
		out = append(out, k)
	}
	slices.SortFunc(out, CompareKeys)
	return out
}

// Reset clears the recording.
func (r *ReadRecorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.keys)
}

// SetRecorder attaches (or with nil detaches) a read recorder to the
// host. Reads made while unreachable do not record: the accessor panics
// at the ping boundary before touching state.
func (l *Linux) SetRecorder(rec *ReadRecorder) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rec = rec
}

// SetRecorder attaches (or with nil detaches) a read recorder.
func (w *Windows) SetRecorder(rec *ReadRecorder) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rec = rec
}
