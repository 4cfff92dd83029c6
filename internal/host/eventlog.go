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
// value marks an event with no structured key, which only a bulk
// provisioning (NewLinuxFromSnapshot) appends; a subscriber must treat
// such an event as touching the whole host.
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

// Event is one host mutation as its log's subscribers receive it.
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

// EventLog is the concurrency-safe channel of a host's mutations. It
// retains no events: it counts appends in a monotonic version, which the
// fleet auditor's incremental cache keys on, and hands each event to its
// subscribers, which is how the fleet streamer learns which state slots
// changed (Subscribe).
type EventLog struct {
	mu sync.Mutex
	// version counts appends ever made and is the next event's Seq.
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
// notified after the version advances (outside the log's lock, so a
// subscriber may call back into the log).
func (l *EventLog) AppendKeyed(action, detail string, key StateKey) int {
	l.mu.Lock()
	seq := int(l.version)
	ev := Event{Seq: seq, Action: action, Detail: detail, Key: key}
	l.version++
	subs := l.subs
	l.mu.Unlock()
	for _, sub := range subs {
		sub.fn(ev)
	}
	return seq
}

// Subscribe registers fn to be called after every subsequent append,
// with the appended event: the subscription is the only channel that
// carries events, since the log keeps none. Notifications run on the
// appending goroutine after the log's lock is released, so fn may call
// back into the log but must not block. One append notifies its
// subscribers in registration order; concurrent appends may interleave,
// so a subscriber can see events out of Seq order. The returned cancel
// function removes the subscription; it is idempotent.
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

// Len returns the number of appends ever made, which equals Version.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.version)
}
