package host

import (
	"fmt"
	"maps"
	"sort"
	"strings"
)

// State snapshots and forensic diffing: protection reports say *that* a
// host drifted; the diff says *what* changed, the evidence operators need
// to trace an alarm back to a change.

// Snapshot is an immutable capture of a Linux host's observable state.
type Snapshot struct {
	// Packages maps installed package name -> version.
	Packages map[string]string
	// Services maps service name -> active.
	Services map[string]bool
	// Config maps (file, key) -> value.
	Config map[ConfigSlot]string
}

// Snapshot captures the current state.
func (l *Linux) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Snapshot{
		Packages: map[string]string{},
		Services: map[string]bool{},
		Config:   make(map[ConfigSlot]string, len(l.config)),
	}
	for name, p := range l.packages {
		if p.installed {
			s.Packages[name] = p.version
		}
	}
	for name, sv := range l.services {
		s.Services[name] = sv.enabled && sv.running
	}
	maps.Copy(s.Config, l.config)
	return s
}

// NewLinuxFromSnapshot provisions a host in one step from a snapshot,
// recording a single "provision" event instead of one event per
// mutation. This is the bulk path the load generator uses to synthesize
// 10k–1M hosts: per-mutation construction would cost tens of event-log
// entries per host, which at mega-fleet scale dominates both synthesis
// time and memory. Services restore as enabled+running when active in
// the snapshot and present-but-stopped otherwise.
func NewLinuxFromSnapshot(s Snapshot) *Linux {
	l := NewLinux()
	l.mu.Lock()
	defer l.mu.Unlock()
	for name, version := range s.Packages {
		l.packages[name] = pkgState{version: version, installed: true}
	}
	for name, active := range s.Services {
		l.services[name] = svcState{enabled: active, running: active}
	}
	maps.Copy(l.config, s.Config)
	l.log.Append("provision", fmt.Sprintf(
		"%d packages, %d services, %d config keys",
		len(s.Packages), len(s.Services), len(s.Config)))
	return l
}

// Change is one difference between two snapshots.
type Change struct {
	// Kind is "package", "service" or "config".
	Kind string
	// Item names the changed entity (package name, service name or
	// "file:key").
	Item string
	// Before and After are the values on each side; "" / "absent" marks
	// non-existence.
	Before, After string
}

func (c Change) String() string {
	return fmt.Sprintf("%-8s %-40s %q -> %q", c.Kind, c.Item, c.Before, c.After)
}

// Diff lists the changes from old to new, sorted by kind then item.
func Diff(old, new Snapshot) []Change {
	out := diffMap(nil, "package", old.Packages, new.Packages, func(name string) string { return name })
	out = diffMap(out, "config", old.Config, new.Config, ConfigSlot.String)

	svc := map[string]struct{}{}
	for k := range old.Services {
		svc[k] = struct{}{}
	}
	for k := range new.Services {
		svc[k] = struct{}{}
	}
	for k := range svc {
		a, aok := old.Services[k]
		b, bok := new.Services[k]
		if aok == bok && a == b {
			continue
		}
		out = append(out, Change{
			Kind: "service", Item: k,
			Before: activeString(a, aok), After: activeString(b, bok),
		})
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Item < out[j].Item
	})
	return out
}

// diffMap appends the changes from a to b of one kind of state, naming
// each changed entity by item(key).
func diffMap[K comparable](out []Change, kind string, a, b map[K]string, item func(K) string) []Change {
	keys := map[K]struct{}{}
	for k := range a {
		keys[k] = struct{}{}
	}
	for k := range b {
		keys[k] = struct{}{}
	}
	for k := range keys {
		av, aok := a[k]
		bv, bok := b[k]
		switch {
		case aok && !bok:
			out = append(out, Change{Kind: kind, Item: item(k), Before: av, After: "absent"})
		case !aok && bok:
			out = append(out, Change{Kind: kind, Item: item(k), Before: "absent", After: bv})
		case av != bv:
			out = append(out, Change{Kind: kind, Item: item(k), Before: av, After: bv})
		}
	}
	return out
}

func activeString(active, known bool) string {
	switch {
	case !known:
		return "absent"
	case active:
		return "active"
	default:
		return "inactive"
	}
}

// RenderDiff formats a change list.
func RenderDiff(changes []Change) string {
	if len(changes) == 0 {
		return "no changes\n"
	}
	var b strings.Builder
	for _, c := range changes {
		fmt.Fprintln(&b, c)
	}
	fmt.Fprintf(&b, "%d changes\n", len(changes))
	return b.String()
}
