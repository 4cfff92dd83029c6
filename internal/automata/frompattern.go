package automata

import (
	"fmt"

	"veridevops/internal/tctl"
)

// FromPattern compiles a specification pattern (internal/tctl) into its
// observer automaton, completing the PROPAS chain: natural language ->
// pattern -> {TCTL formula, observer automaton}. The pattern propositions
// must be plain atoms (tctl.Prop); their names become the observed event
// labels.
//
// Observability restrictions, inherent to checking liveness as
// reachability: global existence and response require a time bound,
// every other pattern must be unbounded (its observer would check the
// whole run, not the bounded window), and universality is observed
// through the complementary violation event "<p>_viol" which the plant
// model must emit whenever the proposition turns false.
func FromPattern(p tctl.Pattern) (*Automaton, error) {
	timed := p.Scope == tctl.Globally && (p.Behaviour == tctl.Existence || p.Behaviour == tctl.Response)
	if p.B.Valid && !timed {
		return nil, fmt.Errorf("automata: bounded %s has no observer template in scope %s; the unbounded observer would check the whole run", p.Behaviour, p.Scope)
	}
	name := func(f tctl.Formula, role string) (string, error) {
		if f == nil {
			return "", fmt.Errorf("automata: pattern is missing %s", role)
		}
		prop, ok := f.(tctl.Prop)
		if !ok {
			return "", fmt.Errorf("automata: %s must be a plain proposition, got %q", role, f)
		}
		return prop.Name, nil
	}

	switch p.Scope {
	case tctl.Globally:
		pn, err := name(p.P, "P")
		if err != nil {
			return nil, err
		}
		switch p.Behaviour {
		case tctl.Absence, tctl.Universality:
			if p.Behaviour == tctl.Absence {
				return AbsenceObserver(pn), nil
			}
			return UniversalityObserver(pn + "_viol"), nil
		case tctl.Existence:
			if !p.B.Valid {
				return nil, fmt.Errorf("automata: unbounded existence is not checkable as reachability; set a bound")
			}
			return ExistenceBoundedObserver(pn, p.B.D), nil
		case tctl.Response:
			sn, err := name(p.S, "S")
			if err != nil {
				return nil, err
			}
			if !p.B.Valid {
				return nil, fmt.Errorf("automata: unbounded response is not checkable as reachability; set a bound")
			}
			return ResponseTimedObserver(pn, sn, p.B.D), nil
		case tctl.Precedence:
			sn, err := name(p.S, "S")
			if err != nil {
				return nil, err
			}
			return PrecedenceObserver(pn, sn), nil
		}
	case tctl.AfterUntil:
		qn, err := name(p.Q, "Q")
		if err != nil {
			return nil, err
		}
		rn, err := name(p.R, "R")
		if err != nil {
			return nil, err
		}
		switch p.Behaviour {
		case tctl.Absence:
			pn, err := name(p.P, "P")
			if err != nil {
				return nil, err
			}
			return AfterUntilAbsenceObserver(qn, pn, rn), nil
		case tctl.Universality:
			pn, err := name(p.P, "P")
			if err != nil {
				return nil, err
			}
			// Universality of p == absence of its violation event.
			return AfterUntilAbsenceObserver(qn, pn+"_viol", rn), nil
		}
	}
	return nil, fmt.Errorf("automata: no observer template for %s/%s", p.Behaviour, p.Scope)
}
