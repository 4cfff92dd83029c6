package tctl

import (
	"fmt"

	"veridevops/internal/trace"
)

// Specification-pattern compiler: Dwyer's specification patterns (the basis
// of the PSP-UPPAAL catalogue referenced by VeriDevOps D2.7) instantiated as
// TCTL formulas. A pattern is a behaviour (absence, universality, existence,
// response, precedence) combined with a scope (globally, before R, after Q,
// between Q and R, after Q until R).
//
// The compilation targets the linear/finite-trace evaluation of this
// package; scoped variants use the until-based encodings from the PSP
// catalogue.

// Scope identifies the portion of an execution a pattern constrains.
type Scope int

// Scopes in the order of the PSP catalogue.
const (
	Globally   Scope = iota
	Before           // before the first R
	After            // after the first Q
	Between          // between every Q and the following R
	AfterUntil       // after every Q until the following R (R may never come)
)

func (s Scope) String() string {
	switch s {
	case Globally:
		return "globally"
	case Before:
		return "before"
	case After:
		return "after"
	case Between:
		return "between"
	case AfterUntil:
		return "after-until"
	default:
		return fmt.Sprintf("scope(%d)", int(s))
	}
}

// Behaviour identifies what a pattern asserts inside its scope.
type Behaviour int

// Behaviours in the order of the PSP catalogue.
const (
	Absence Behaviour = iota
	Universality
	Existence
	Response
	Precedence
)

func (b Behaviour) String() string {
	switch b {
	case Absence:
		return "absence"
	case Universality:
		return "universality"
	case Existence:
		return "existence"
	case Response:
		return "response"
	case Precedence:
		return "precedence"
	default:
		return fmt.Sprintf("behaviour(%d)", int(b))
	}
}

// Pattern is a fully instantiated specification pattern. P is the primary
// proposition; S is the secondary one (response/precedence only); Q and R
// delimit the scope where applicable; B optionally bounds the response
// or existence time, or the window an absence or universality covers.
// Compile refuses a bound the formula cannot carry (see boundEncodable)
// instead of dropping it.
type Pattern struct {
	Behaviour Behaviour
	Scope     Scope
	P, S      Formula
	Q, R      Formula
	B         Bound
}

// Compile translates the pattern into a TCTL formula.
func (p Pattern) Compile() (Formula, error) {
	if p.P == nil {
		return nil, fmt.Errorf("tctl: pattern %s/%s requires P", p.Behaviour, p.Scope)
	}
	needS := p.Behaviour == Response || p.Behaviour == Precedence
	if needS && p.S == nil {
		return nil, fmt.Errorf("tctl: pattern %s requires S", p.Behaviour)
	}
	switch p.Scope {
	case Globally:
	case Before:
		if p.R == nil {
			return nil, fmt.Errorf("tctl: scope %s requires R", p.Scope)
		}
	case After:
		if p.Q == nil {
			return nil, fmt.Errorf("tctl: scope %s requires Q", p.Scope)
		}
	case Between, AfterUntil:
		if p.Q == nil || p.R == nil {
			return nil, fmt.Errorf("tctl: scope %s requires Q and R", p.Scope)
		}
	default:
		return nil, fmt.Errorf("tctl: unknown scope %d", int(p.Scope))
	}
	if p.B.Valid && !p.boundEncodable() {
		return nil, fmt.Errorf("tctl: pattern %s/%s has no encoding of the bound %s", p.Behaviour, p.Scope, p.B)
	}
	if p.Scope == Globally {
		return p.compileGlobal()
	}
	return p.compileScoped()
}

// boundEncodable reports whether the compiled formula of p's scope and
// behaviour carries a bound. Global and after scopes bound every
// behaviour but precedence, which orders events rather than timing
// them; between and after-until bound only the response deadline, since
// their other behaviours are untils and the formula language has no
// bounded until; before bounds none, for the same reason.
func (p Pattern) boundEncodable() bool {
	switch p.Scope {
	case Globally, After:
		return p.Behaviour != Precedence
	case Between, AfterUntil:
		return p.Behaviour == Response
	}
	return false
}

// MustCompile is Compile that panics on error.
func (p Pattern) MustCompile() Formula {
	f, err := p.Compile()
	if err != nil {
		panic(err)
	}
	return f
}

func (p Pattern) compileGlobal() (Formula, error) {
	switch p.Behaviour {
	case Absence:
		if p.B.Valid {
			// Bounded absence: P is not reachable within B.
			return Not{EF{F: p.P, B: p.B}}, nil
		}
		return AG{F: Not{p.P}}, nil
	case Universality:
		if p.B.Valid {
			// Bounded universality through its dual: !P is not
			// reachable within B.
			return Not{EF{F: Not{p.P}, B: p.B}}, nil
		}
		return AG{F: p.P}, nil
	case Existence:
		return AF{F: p.P, B: p.B}, nil
	case Response:
		return LeadsTo{L: p.P, R: p.S, B: p.B}, nil
	case Precedence:
		// S precedes P: no P until the first S (weak until encoded via
		// until-or-globally).
		return Or{
			L: AU{L: Not{p.P}, R: p.S},
			R: AG{F: Not{p.P}},
		}, nil
	default:
		return nil, fmt.Errorf("tctl: unknown behaviour %d", int(p.Behaviour))
	}
}

func (p Pattern) compileScoped() (Formula, error) {
	switch p.Scope {
	case Before:
		// Constrain the prefix that ends at the first R. If R never occurs
		// the scope is empty (PSP convention for "before").
		switch p.Behaviour {
		case Absence:
			return Imply{L: AF{F: p.R}, R: AU{L: Not{p.P}, R: p.R}}, nil
		case Universality:
			return Imply{L: AF{F: p.R}, R: AU{L: p.P, R: p.R}}, nil
		case Existence:
			return Imply{L: AF{F: p.R}, R: AU{L: Not{p.R}, R: And{L: p.P, R: Not{p.R}}}}, nil
		case Response:
			// Every P before the first R is followed by S before that R.
			return Imply{
				L: AF{F: p.R},
				R: AU{L: Imply{L: And{L: p.P, R: Not{p.R}}, R: AU{L: Not{p.R}, R: And{L: p.S, R: Not{p.R}}}}, R: p.R},
			}, nil
		case Precedence:
			return Imply{L: AF{F: p.R}, R: AU{L: Not{p.P}, R: Or{L: p.S, R: p.R}}}, nil
		}
	case After:
		// Constrain the suffix that starts at the first Q. If Q never
		// occurs the property holds vacuously, which the implication
		// encodes.
		inner := Pattern{Behaviour: p.Behaviour, Scope: Globally, P: p.P, S: p.S, B: p.B}
		body, err := inner.compileGlobal()
		if err != nil {
			return nil, err
		}
		// first-Q anchoring: once Q holds, body must hold from there on.
		return AG{F: Imply{L: p.Q, R: body}}, nil
	case Between, AfterUntil:
		// Between Q and R: in every segment opened by Q and closed by R.
		// After-until additionally constrains segments R never closes.
		closes := AF{F: p.R}
		var body Formula
		switch p.Behaviour {
		case Absence:
			body = AU{L: Not{p.P}, R: p.R}
			if p.Scope == AfterUntil {
				body = Or{L: body, R: AG{F: Not{p.P}}}
			}
		case Universality:
			body = AU{L: p.P, R: p.R}
			if p.Scope == AfterUntil {
				body = Or{L: body, R: AG{F: p.P}}
			}
		case Existence:
			body = AU{L: Not{p.R}, R: And{L: p.P, R: Not{p.R}}}
			if p.Scope == AfterUntil {
				body = Or{L: body, R: AF{F: p.P}}
			}
		case Response:
			resp := Imply{L: p.P, R: AF{F: p.S, B: p.B}}
			body = AU{L: Formula(resp), R: p.R}
			if p.Scope == AfterUntil {
				body = Or{L: body, R: AG{F: resp}}
			}
		case Precedence:
			body = AU{L: Not{p.P}, R: Or{L: p.S, R: p.R}}
			if p.Scope == AfterUntil {
				body = Or{L: body, R: AG{F: Not{p.P}}}
			}
		default:
			return nil, fmt.Errorf("tctl: unknown behaviour %d", int(p.Behaviour))
		}
		if p.Scope == Between {
			// Only segments that R actually closes are constrained.
			return AG{F: Imply{L: And{L: p.Q, R: Not{p.R}}, R: Imply{L: closes, R: body}}}, nil
		}
		return AG{F: Imply{L: And{L: p.Q, R: Not{p.R}}, R: body}}, nil
	}
	return nil, fmt.Errorf("tctl: unsupported pattern %s/%s", p.Behaviour, p.Scope)
}

// Convenience constructors for the patterns named in VeriDevOps D2.7.

// GlobalUniversality is "Globally, it is always the case that P holds".
func GlobalUniversality(p string) Formula {
	return Pattern{Behaviour: Universality, Scope: Globally, P: Prop{p}}.MustCompile()
}

// GlobalEventually is "P always eventually holds".
func GlobalEventually(p string) Formula {
	return Pattern{Behaviour: Existence, Scope: Globally, P: Prop{p}}.MustCompile()
}

// GlobalResponseTimed is "Globally, if P holds then S eventually holds
// within T time units".
func GlobalResponseTimed(p, s string, t trace.Time) Formula {
	return Pattern{Behaviour: Response, Scope: Globally, P: Prop{p}, S: Prop{s}, B: Within(t)}.MustCompile()
}

// GlobalResponseUntil is "Globally, if P holds then, unless R holds, Q
// eventually holds".
func GlobalResponseUntil(p, q, r string) Formula {
	return Pattern{Behaviour: Response, Scope: Globally, P: Prop{p}, S: Or{L: Prop{q}, R: Prop{r}}}.MustCompile()
}

// AfterUntilUniversality is "After Q, it is always the case that P holds
// until R holds".
func AfterUntilUniversality(q, p, r string) Formula {
	return Pattern{Behaviour: Universality, Scope: AfterUntil, P: Prop{p}, Q: Prop{q}, R: Prop{r}}.MustCompile()
}
