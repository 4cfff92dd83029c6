// Package sps parses the structured-English specification-pattern
// sentences of the VeriDevOps pattern catalogue — the exact phrasings D2.7
// uses to describe its temporal patterns ("Globally, it is always the case
// that P holds.", "After Q, it is always the case that P holds until R
// holds.", ...) — into tctl.Pattern values. The temporal monitors render
// themselves in this grammar, so monitor descriptions round-trip back into
// checkable patterns: the DSL direction of task T2.1 ("domain specific
// languages to make the formalism more expressive").
package sps

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"veridevops/internal/resa"
	"veridevops/internal/tctl"
	"veridevops/internal/trace"
)

// Sentence templates, most specific first. Placeholders are free-text
// phrases slugged into proposition names.
var templates = []struct {
	name string
	re   *regexp.Regexp
	mk   func(m []string) (tctl.Pattern, error)
}{
	{
		// Globally, it is always the case that if P holds, then S
		// eventually holds within T time units.
		"global-response-timed",
		regexp.MustCompile(`(?i)^globally,\s*it is always the case that if (.+?) holds,?\s*then (.+?) eventually holds within (\d+) time units$`),
		func(m []string) (tctl.Pattern, error) {
			d, err := strconv.ParseInt(m[3], 10, 64)
			if err != nil {
				return tctl.Pattern{}, fmt.Errorf("sps: bad bound %q", m[3])
			}
			return tctl.Pattern{
				Behaviour: tctl.Response, Scope: tctl.Globally,
				P: prop(m[1]), S: prop(m[2]), B: tctl.Within(trace.Time(d)),
			}, nil
		},
	},
	{
		// Globally, it is always the case that if P holds then, unless R
		// holds, Q will eventually hold.
		"global-response-until",
		regexp.MustCompile(`(?i)^globally,\s*it is always the case that if (.+?) holds then,?\s*unless (.+?) holds,\s*(.+?) will eventually hold$`),
		func(m []string) (tctl.Pattern, error) {
			return tctl.Pattern{
				Behaviour: tctl.Response, Scope: tctl.Globally,
				P: prop(m[1]), S: tctl.Or{L: prop(m[3]), R: prop(m[2])},
			}, nil
		},
	},
	{
		// After Q, it is always the case that P holds until R holds.
		"after-until-universality",
		regexp.MustCompile(`(?i)^after (.+?),\s*it is always the case that (.+?) holds until (.+?) holds$`),
		func(m []string) (tctl.Pattern, error) {
			return tctl.Pattern{
				Behaviour: tctl.Universality, Scope: tctl.AfterUntil,
				Q: prop(m[1]), P: prop(m[2]), R: prop(m[3]),
			}, nil
		},
	},
	{
		// Between Q and R, it is never the case that P holds.
		"between-absence",
		regexp.MustCompile(`(?i)^between (.+?) and (.+?),\s*it is never the case that (.+?) holds$`),
		func(m []string) (tctl.Pattern, error) {
			return tctl.Pattern{
				Behaviour: tctl.Absence, Scope: tctl.Between,
				Q: prop(m[1]), R: prop(m[2]), P: prop(m[3]),
			}, nil
		},
	},
	{
		// Before R, it is always the case that P holds.
		"before-universality",
		regexp.MustCompile(`(?i)^before (.+?),\s*it is always the case that (.+?) holds$`),
		func(m []string) (tctl.Pattern, error) {
			return tctl.Pattern{
				Behaviour: tctl.Universality, Scope: tctl.Before,
				R: prop(m[1]), P: prop(m[2]),
			}, nil
		},
	},
	{
		// After Q, it is always the case that P holds.
		"after-universality",
		regexp.MustCompile(`(?i)^after (.+?),\s*it is always the case that (.+?) holds$`),
		func(m []string) (tctl.Pattern, error) {
			return tctl.Pattern{
				Behaviour: tctl.Universality, Scope: tctl.After,
				Q: prop(m[1]), P: prop(m[2]),
			}, nil
		},
	},
	{
		// It is always the case that P holds during the first T time units.
		"global-universality-timed",
		regexp.MustCompile(`(?i)^it is always the case that (.+?) holds during the first (\d+) time units$`),
		func(m []string) (tctl.Pattern, error) {
			// The windowed invariant is a bounded universality, which
			// tctl compiles to its dual !(E<>[<=T] !P): the formula the
			// GlobalUniversalityTimed monitor watches.
			d, err := strconv.ParseInt(m[2], 10, 64)
			if err != nil {
				return tctl.Pattern{}, fmt.Errorf("sps: bad bound %q", m[2])
			}
			return tctl.Pattern{
				Behaviour: tctl.Universality, Scope: tctl.Globally,
				P: prop(m[1]), B: tctl.Within(trace.Time(d)),
			}, nil
		},
	},
	{
		// Globally, it is always the case that P holds.
		"global-universality",
		regexp.MustCompile(`(?i)^globally,\s*it is always the case that (.+?) holds$`),
		func(m []string) (tctl.Pattern, error) {
			return tctl.Pattern{Behaviour: tctl.Universality, Scope: tctl.Globally, P: prop(m[1])}, nil
		},
	},
	{
		// Globally, it is never the case that P holds.
		"global-absence",
		regexp.MustCompile(`(?i)^globally,\s*it is never the case that (.+?) holds$`),
		func(m []string) (tctl.Pattern, error) {
			return tctl.Pattern{Behaviour: tctl.Absence, Scope: tctl.Globally, P: prop(m[1])}, nil
		},
	},
	{
		// P eventually holds.
		"global-existence",
		regexp.MustCompile(`(?i)^(?:globally,\s*)?(.+?) eventually holds$`),
		func(m []string) (tctl.Pattern, error) {
			return tctl.Pattern{Behaviour: tctl.Existence, Scope: tctl.Globally, P: prop(m[1])}, nil
		},
	},
}

func prop(phrase string) tctl.Prop {
	return tctl.Prop{Name: resa.Slug(phrase)}
}

// Result is a parsed sentence.
type Result struct {
	Template string
	Pattern  tctl.Pattern
	Formula  tctl.Formula
}

// Parse matches a pattern sentence against the catalogue grammar.
func Parse(sentence string) (Result, error) {
	s := strings.TrimSpace(sentence)
	s = strings.TrimSuffix(s, ".")
	if s == "" {
		return Result{}, fmt.Errorf("sps: empty sentence")
	}
	for _, t := range templates {
		m := t.re.FindStringSubmatch(s)
		if m == nil {
			continue
		}
		p, err := t.mk(m)
		if err != nil {
			return Result{}, err
		}
		f, err := p.Compile()
		if err != nil {
			return Result{}, fmt.Errorf("sps: %s: %w", t.name, err)
		}
		return Result{Template: t.name, Pattern: p, Formula: f}, nil
	}
	return Result{}, fmt.Errorf("sps: sentence matches no catalogue template: %q", sentence)
}
