package temporal

import (
	"fmt"

	"veridevops/internal/tctl"
	"veridevops/internal/trace"
)

// Options configures a pattern monitor's loop.
type Options struct {
	// Clock supplies time; nil defaults to the wall clock.
	Clock Clock
	// Period is the polling period in ticks; 0 defaults to 10.
	Period trace.Time
	// Boundary is the maximum number of polling iterations; 0 defaults to 100.
	Boundary int
	// Weak selects weak finite-window semantics (see MonitoringLoop.Weak).
	Weak bool
}

func (o Options) normalize() Options {
	if o.Period <= 0 {
		o.Period = 10
	}
	if o.Boundary <= 0 {
		o.Boundary = 100
	}
	return o
}

func (o Options) loop() *MonitoringLoop {
	return &MonitoringLoop{
		Boundary: o.Boundary,
		Period:   o.Period,
		Clock:    o.Clock,
		Weak:     o.Weak,
	}
}

// GlobalUniversality monitors "Globally, it is always the case that P
// holds": the invariant pattern of D2.7.
type GlobalUniversality struct {
	*MonitoringLoop
	watched
	P Probe
}

// NewGlobalUniversality builds the monitor for probe p.
func NewGlobalUniversality(p Probe, opt Options) *GlobalUniversality {
	g := &GlobalUniversality{MonitoringLoop: opt.normalize().loop(), watched: watched{tctl.GlobalUniversality(p.Name)}, P: p}
	g.Inv = p.holds
	g.Post = p.holds
	return g
}

func (g *GlobalUniversality) String() string {
	return fmt.Sprintf("Globally, it is always the case that %s holds.", g.P.Name)
}

// Eventually monitors "P always eventually holds".
type Eventually struct {
	*MonitoringLoop
	watched
	P Probe
}

// NewEventually builds the monitor for probe p.
func NewEventually(p Probe, opt Options) *Eventually {
	e := &Eventually{MonitoringLoop: opt.normalize().loop(), watched: watched{tctl.GlobalEventually(p.Name)}, P: p}
	e.Exit = p.holds
	e.Post = p.holds
	return e
}

func (e *Eventually) String() string {
	return fmt.Sprintf("%s eventually holds.", e.P.Name)
}

// GlobalResponseTimed monitors "Globally, it is always the case that if P
// holds, then S eventually holds within T time units".
type GlobalResponseTimed struct {
	*MonitoringLoop
	watched
	// P is the trigger, S the required response (the s and r constructor
	// parameters of the reference class).
	P, S Probe
	// T is the response deadline in ticks.
	T trace.Time

	pending  bool
	deadline trace.Time
	// Violations counts deadline misses observed during the window.
	Violations int
	// FirstViolationAt is the clock time of the first miss.
	FirstViolationAt trace.Time
}

// NewGlobalResponseTimed builds the monitor: trigger p, response s,
// deadline t ticks.
func NewGlobalResponseTimed(p, s Probe, t trace.Time, opt Options) *GlobalResponseTimed {
	g := &GlobalResponseTimed{MonitoringLoop: opt.normalize().loop(), watched: watched{tctl.GlobalResponseTimed(p.Name, s.Name, t)}, P: p, S: s, T: t}
	g.Inv = g.step
	g.Post = func() bool { return g.step() && !g.pending }
	return g
}

// step advances the request/response state machine at the current instant
// and reports false on a deadline miss.
func (g *GlobalResponseTimed) step() bool {
	now := g.clock().Now()
	if g.pending && g.S.holds() {
		g.pending = false
	}
	if !g.pending && g.P.holds() && !g.S.holds() {
		g.pending = true
		g.deadline = now + g.T
	}
	if g.pending && now > g.deadline {
		g.Violations++
		if g.Violations == 1 {
			g.FirstViolationAt = now
		}
		return false
	}
	return true
}

func (g *GlobalResponseTimed) String() string {
	return fmt.Sprintf("Globally, it is always the case that if %s holds, then %s eventually holds within %d time units.",
		g.P.Name, g.S.Name, g.T)
}

// GlobalResponseUntil monitors "Globally, it is always the case that if P
// holds then, unless R holds, Q will eventually hold".
type GlobalResponseUntil struct {
	*MonitoringLoop
	watched
	P, Q, R Probe

	pending bool
}

// NewGlobalResponseUntil builds the monitor: trigger p, response q,
// discharge r.
func NewGlobalResponseUntil(p, q, r Probe, opt Options) *GlobalResponseUntil {
	g := &GlobalResponseUntil{MonitoringLoop: opt.normalize().loop(), watched: watched{tctl.GlobalResponseUntil(p.Name, q.Name, r.Name)}, P: p, Q: q, R: r}
	g.Inv = func() bool { g.step(); return true }
	g.Post = func() bool { g.step(); return !g.pending }
	return g
}

func (g *GlobalResponseUntil) step() {
	if g.pending && (g.Q.holds() || g.R.holds()) {
		g.pending = false
	}
	if !g.pending && g.P.holds() && !g.Q.holds() && !g.R.holds() {
		g.pending = true
	}
}

func (g *GlobalResponseUntil) String() string {
	return fmt.Sprintf("Globally, it is always the case that if %s holds then, unless %s holds, %s will eventually hold.",
		g.P.Name, g.R.Name, g.Q.Name)
}

// GlobalUniversalityTimed monitors the timed invariant "P holds throughout
// a window of T time units". It inherits the GlobalUniversality behaviour
// with an explicit time bound derived from the loop boundary, mirroring the
// reference subclassing.
type GlobalUniversalityTimed struct {
	*GlobalUniversality
	// T is the window length in ticks.
	T trace.Time
}

// NewGlobalUniversalityTimed builds the windowed-invariant monitor. The
// loop boundary is derived from the window length and polling period.
func NewGlobalUniversalityTimed(p Probe, t trace.Time, opt Options) *GlobalUniversalityTimed {
	opt = opt.normalize()
	iters := int(t / opt.Period)
	if trace.Time(iters)*opt.Period < t {
		iters++
	}
	if iters <= 0 {
		iters = 1
	}
	opt.Boundary = iters
	g := NewGlobalUniversality(p, opt)
	// The bounded loop watches the bounded invariant, which tctl prints
	// through its dual bounded-possibly form.
	g.watched = watched{tctl.Pattern{
		Behaviour: tctl.Universality, Scope: tctl.Globally, P: tctl.Prop{Name: p.Name}, B: tctl.Within(t),
	}.MustCompile()}
	return &GlobalUniversalityTimed{GlobalUniversality: g, T: t}
}

func (g *GlobalUniversalityTimed) String() string {
	return fmt.Sprintf("It is always the case that %s holds during the first %d time units.", g.P.Name, g.T)
}

// AfterUntilUniversality monitors "After Q, it is always the case that P
// holds until R holds". The monitor re-arms on every Q occurrence after an
// R discharge.
type AfterUntilUniversality struct {
	*MonitoringLoop
	watched
	Q, P, R Probe

	armed bool
	// Activations counts how many times the scope opened.
	Activations int
}

// NewAfterUntilUniversality builds the monitor with scope opener q, body p
// and scope closer r (the constructor parameter order of the reference
// class).
func NewAfterUntilUniversality(q, p, r Probe, opt Options) *AfterUntilUniversality {
	a := &AfterUntilUniversality{MonitoringLoop: opt.normalize().loop(), watched: watched{tctl.AfterUntilUniversality(q.Name, p.Name, r.Name)}, Q: q, P: p, R: r}
	a.Inv = a.step
	a.Post = a.step
	return a
}

// step advances the scope state machine; false means p was violated inside
// an open scope.
func (a *AfterUntilUniversality) step() bool {
	if a.armed && a.R.holds() {
		a.armed = false
	}
	if !a.armed && a.Q.holds() && !a.R.holds() {
		a.armed = true
		a.Activations++
	}
	if a.armed && !a.P.holds() {
		return false
	}
	return true
}

func (a *AfterUntilUniversality) String() string {
	return fmt.Sprintf("After %s, it is always the case that %s holds until %s holds.",
		a.Q.Name, a.P.Name, a.R.Name)
}
