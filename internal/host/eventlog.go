package host

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Kinds of state slots a StateKey can name. The kind strings are short
// because they appear in every rendered key ("pkg:nis") and in the
// reverse dependency index the fleet streamer builds from them.
const (
	// KeyPackage names a dpkg package ("pkg:<name>").
	KeyPackage = "pkg"
	// KeyService names a systemd service ("svc:<name>").
	KeyService = "svc"
	// KeyConfig names one key of one configuration file
	// ("cfg:<file>:<key>").
	KeyConfig = "cfg"
	// KeyAudit names a Windows advanced-audit-policy subcategory
	// ("audit:<subcategory>").
	KeyAudit = "audit"
	// KeyRegistry names a Windows registry value ("reg:<path\name>").
	KeyRegistry = "reg"
	// KeyNet is the host's transport connectivity ("net:transport").
	// Connectivity moves every probe's observability at once, so
	// consumers must treat a net-keyed event as touching the whole host,
	// not one state slot.
	KeyNet = "net"
)

// StateKey is the structured identity of the host-state slot an event
// touched: a kind plus the slot name within that kind. It is the machine-
// readable companion of Event.Detail — the fleet streamer maps keys
// through a reverse dependency index to the requirement checks that read
// them, re-evaluating O(changed keys) instead of whole hosts. The zero
// value marks an event with no structured key (bulk provisioning, legacy
// appends); consumers must treat such events as touching the whole host.
type StateKey struct {
	Kind string
	Name string
}

// IsZero reports whether the key is the unkeyed sentinel.
func (k StateKey) IsZero() bool { return k.Kind == "" && k.Name == "" }

// String renders the key as "kind:name" for display: event logs,
// diagnostics and reports. Declarations, indexes and recorders compare
// the typed key itself.
func (k StateKey) String() string { return k.Kind + ":" + k.Name }

// CompareKeys orders keys by kind, then name. No kind is a prefix of
// another, so this is also the order of the rendered "kind:name" forms.
func CompareKeys(a, b StateKey) int {
	return cmp.Or(strings.Compare(a.Kind, b.Kind), strings.Compare(a.Name, b.Name))
}

// PackageKey returns the state key of a package's installed state.
func PackageKey(name string) StateKey { return StateKey{Kind: KeyPackage, Name: name} }

// ServiceKey returns the state key of a service's enabled/running state.
func ServiceKey(name string) StateKey { return StateKey{Kind: KeyService, Name: name} }

// ConfigKey returns the state key of one configuration file key.
func ConfigKey(file, key string) StateKey {
	return StateKey{Kind: KeyConfig, Name: file + ":" + key}
}

// AuditKey returns the state key of a Windows audit-policy subcategory.
func AuditKey(subcategory string) StateKey {
	return StateKey{Kind: KeyAudit, Name: subcategory}
}

// RegistryKey returns the state key of a Windows registry value.
func RegistryKey(key string) StateKey { return StateKey{Kind: KeyRegistry, Name: key} }

// NetKey returns the whole-host transport-connectivity key.
func NetKey() StateKey { return StateKey{Kind: KeyNet, Name: "transport"} }

// Event is one entry of a host event log.
type Event struct {
	Seq    int
	Action string
	Detail string
	// Key is the structured identity of the state slot the event
	// touched; the zero value means the event carries no key and must be
	// treated as touching the whole host (see StateKey).
	Key StateKey
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %s %s", e.Seq, e.Action, e.Detail)
}

// EventLog is an append-only, concurrency-safe record of host mutations.
// The reactive-protection monitors consume it to detect drift at runtime,
// the fleet auditor's incremental cache keys on its version counter, and
// the fleet streamer tails it (Tail, Subscribe) for push-based
// incremental evaluation.
type EventLog struct {
	mu     sync.Mutex
	events []Event
	// version counts appends ever made. It equals Len today, but stays
	// monotonic even if the log later gains truncation or compaction, so
	// cache keys built on it never go backwards.
	version uint64
	// subs holds the append subscribers in registration order. The slice
	// is never written in place: Subscribe and cancel install a fresh
	// copy, so AppendKeyed can hand the current one to its notification
	// loop without copying it, and a departed subscriber leaves no hole.
	subs    []subscriber
	nextSub int
}

// subscriber is one Subscribe registration.
type subscriber struct {
	id int
	fn func(Event)
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// Append records an event with no structured state key and returns its
// sequence number. Prefer AppendKeyed for mutations that touch one
// identifiable state slot: unkeyed events force streaming consumers to
// re-evaluate the whole host.
func (l *EventLog) Append(action, detail string) int {
	return l.AppendKeyed(action, detail, StateKey{})
}

// AppendKeyed records an event carrying the structured key of the state
// slot it touched and returns its sequence number. Subscribers are
// notified after the append is visible (outside the log's lock, so a
// subscriber may call back into the log).
func (l *EventLog) AppendKeyed(action, detail string, key StateKey) int {
	l.mu.Lock()
	seq := len(l.events)
	ev := Event{Seq: seq, Action: action, Detail: detail, Key: key}
	l.events = append(l.events, ev)
	l.version++
	subs := l.subs
	l.mu.Unlock()
	for _, sub := range subs {
		sub.fn(ev)
	}
	return seq
}

// Subscribe registers fn to be called after every subsequent append,
// with the appended event. Notifications run on the appending goroutine
// after the log's lock is released — fn may call back into the log but
// must not block, and concurrent appends may deliver notifications out
// of sequence order (tail the log with Tail for ordered consumption;
// subscriptions are the wake-up signal, not the data channel). One
// append notifies its subscribers in registration order. The returned
// cancel function removes the subscription; it is idempotent.
func (l *EventLog) Subscribe(fn func(Event)) (cancel func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.nextSub
	l.nextSub++
	l.subs = append(l.subs[:len(l.subs):len(l.subs)], subscriber{id, fn})
	return func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		for i, sub := range l.subs {
			if sub.id == id {
				l.subs = slices.Delete(slices.Clone(l.subs), i, i+1)
				return
			}
		}
	}
}

// Version returns the log's monotonic state version: it advances on every
// Append and never decreases. Consumers that cache per-host results (the
// fleet auditor's incremental sweeps) compare versions to decide whether a
// host's state moved since the last audit.
func (l *EventLog) Version() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.version
}

// Len returns the number of recorded events.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Tail is the cursor-style read the fleet streamer consumes deltas
// with: it appends the events with sequence >= from to buf and returns
// the extended slice plus the cursor to pass to the next call — the
// sequence number one past the last event returned, i.e. the log's
// current length. The appended events are plain values copied out of
// the log, so later Appends (and anything the caller does to the slice)
// never alias the log's internal storage; a caller that tails many logs
// passes one buffer, truncated to buf[:0], to every call. A from at or
// past the end appends nothing and returns (buf, Len): the caller's
// cursor never goes backwards. A negative from reads from the
// beginning.
func (l *EventLog) Tail(from int, buf []Event) (events []Event, next int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	next = len(l.events)
	if from < 0 {
		from = 0
	}
	if from >= next {
		return buf, next
	}
	return append(buf, l.events[from:]...), next
}
