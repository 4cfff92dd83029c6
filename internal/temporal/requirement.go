package temporal

import (
	"fmt"

	"veridevops/internal/core"
	"veridevops/internal/tctl"
)

// Monitor is the interface every temporal pattern of this package
// satisfies: a checkable with both a textual and a TCTL notation, the two
// representations the RQCODE approach says a requirement class should
// carry.
type Monitor interface {
	core.Checkable
	fmt.Stringer
	// Formula is the tctl formula the monitor verifies.
	Formula() tctl.Formula
	// TCTL renders that formula.
	TCTL() string
}

// watched is the formula a monitor verifies. Every monitor embeds it, so
// tctl alone builds and prints the formula of each pattern.
type watched struct{ formula tctl.Formula }

// Formula returns the formula the monitor verifies.
func (w watched) Formula() tctl.Formula { return w.formula }

// TCTL renders the verified formula.
func (w watched) TCTL() string { return w.formula.String() }

var (
	_ Monitor = (*GlobalUniversality)(nil)
	_ Monitor = (*Eventually)(nil)
	_ Monitor = (*GlobalResponseTimed)(nil)
	_ Monitor = (*GlobalResponseUntil)(nil)
	_ Monitor = (*GlobalUniversalityTimed)(nil)
	_ Monitor = (*AfterUntilUniversality)(nil)
)

// Requirement pairs STIG-style finding metadata with a temporal monitor,
// making a temporal property a first-class RQCODE requirement that can be
// registered in catalogues alongside configuration findings. This mirrors
// the D2.7 example where temporal patterns are combined with Windows 10
// STIG requirements in one Main program.
type Requirement struct {
	core.Finding
	Monitor Monitor
}

// NewRequirement binds metadata to a monitor.
func NewRequirement(f core.Finding, m Monitor) *Requirement {
	return &Requirement{Finding: f, Monitor: m}
}

// Check runs the monitoring loop to a verdict.
func (r *Requirement) Check() core.CheckStatus {
	if r.Monitor == nil {
		return core.CheckIncomplete
	}
	return r.Monitor.Check()
}

// Enforce is declared so temporal requirements can live in enforceable
// catalogues; temporal properties cannot be enforced by mutation, so it
// reports INCOMPLETE, surfacing them in reports as needing manual action.
func (r *Requirement) Enforce() core.EnforcementStatus {
	return core.EnforceIncomplete
}

// Notations returns the requirement's representations: the natural-
// language reading and the TCTL formula.
func (r *Requirement) Notations() map[string]string {
	if r.Monitor == nil {
		return map[string]string{"text": r.Description()}
	}
	return map[string]string{
		"text": r.Monitor.String(),
		"tctl": r.Monitor.TCTL(),
	}
}

var _ core.CheckableEnforceableRequirement = (*Requirement)(nil)
