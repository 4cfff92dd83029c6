package sps

import (
	"strings"
	"testing"

	"veridevops/internal/tctl"
	"veridevops/internal/temporal"
)

func TestParseCatalogueSentences(t *testing.T) {
	cases := []struct {
		sentence  string
		template  string
		behaviour tctl.Behaviour
		scope     tctl.Scope
	}{
		{"Globally, it is always the case that audit_enabled holds.",
			"global-universality", tctl.Universality, tctl.Globally},
		{"Globally, it is never the case that root_login holds.",
			"global-absence", tctl.Absence, tctl.Globally},
		{"scan_complete eventually holds.",
			"global-existence", tctl.Existence, tctl.Globally},
		{"Globally, it is always the case that if intrusion holds, then alarm eventually holds within 50 time units.",
			"global-response-timed", tctl.Response, tctl.Globally},
		{"Globally, it is always the case that if p holds then, unless r holds, q will eventually hold.",
			"global-response-until", tctl.Response, tctl.Globally},
		{"After maintenance, it is always the case that lockdown holds until allclear holds.",
			"after-until-universality", tctl.Universality, tctl.AfterUntil},
		{"After boot, it is always the case that secure_mode holds.",
			"after-universality", tctl.Universality, tctl.After},
		{"Before shutdown, it is always the case that journal_flushed holds.",
			"before-universality", tctl.Universality, tctl.Before},
		{"Between q and r, it is never the case that p holds.",
			"between-absence", tctl.Absence, tctl.Between},
		{"It is always the case that p holds during the first 50 time units.",
			"global-universality-timed", tctl.Universality, tctl.Globally},
	}
	for _, c := range cases {
		res, err := Parse(c.sentence)
		if err != nil {
			t.Errorf("%q: %v", c.sentence, err)
			continue
		}
		if res.Template != c.template {
			t.Errorf("%q matched %q, want %q", c.sentence, res.Template, c.template)
		}
		if res.Pattern.Behaviour != c.behaviour || res.Pattern.Scope != c.scope {
			t.Errorf("%q -> %v/%v, want %v/%v", c.sentence,
				res.Pattern.Behaviour, res.Pattern.Scope, c.behaviour, c.scope)
		}
		if res.Formula == nil {
			t.Errorf("%q: no formula", c.sentence)
			continue
		}
		// The compiled formula keeps every part of the sentence: a
		// bound the sentence states must appear in the formula.
		if want := res.Pattern.B.String(); !strings.Contains(res.Formula.String(), want) {
			t.Errorf("%q compiled to %q, which drops the bound %s", c.sentence, res.Formula, want)
		}
	}
}

func TestParseBound(t *testing.T) {
	res, err := Parse("Globally, it is always the case that if req holds, then ack eventually holds within 123 time units.")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pattern.B.Valid || res.Pattern.B.D != 123 {
		t.Errorf("bound = %+v", res.Pattern.B)
	}
	if res.Formula.String() != "req -->[<=123] ack" {
		t.Errorf("formula = %q", res.Formula)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"This is not a pattern sentence.",
		"Globally, something undefined happens.",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

// The temporal monitors' String() output parses back into equivalent
// patterns that compile to the very formula the monitor watches: the
// catalogue's textual notation is executable, and the English, the TCTL
// and the compiled formula cannot drift apart.
func TestMonitorDescriptionsRoundTrip(t *testing.T) {
	clk := temporal.NewSimClock()
	opt := temporal.Options{Clock: clk, Period: 10, Boundary: 10}
	probe := func(n string) temporal.Probe {
		return temporal.BoolProbe(n, func() bool { return true })
	}
	cases := []struct {
		monitor   temporal.Monitor
		behaviour tctl.Behaviour
		scope     tctl.Scope
	}{
		{temporal.NewGlobalUniversality(probe("p"), opt), tctl.Universality, tctl.Globally},
		{temporal.NewEventually(probe("p"), opt), tctl.Existence, tctl.Globally},
		{temporal.NewGlobalResponseTimed(probe("p"), probe("s"), 50, opt), tctl.Response, tctl.Globally},
		{temporal.NewGlobalResponseUntil(probe("p"), probe("q"), probe("r"), opt), tctl.Response, tctl.Globally},
		{temporal.NewAfterUntilUniversality(probe("q"), probe("p"), probe("r"), opt), tctl.Universality, tctl.AfterUntil},
		{temporal.NewGlobalUniversalityTimed(probe("p"), 50, opt), tctl.Universality, tctl.Globally},
	}
	for _, c := range cases {
		desc := c.monitor.String()
		res, err := Parse(desc)
		if err != nil {
			t.Errorf("monitor description %q does not parse: %v", desc, err)
			continue
		}
		if res.Pattern.Behaviour != c.behaviour || res.Pattern.Scope != c.scope {
			t.Errorf("%q -> %v/%v, want %v/%v", desc,
				res.Pattern.Behaviour, res.Pattern.Scope, c.behaviour, c.scope)
		}
		if !tctl.Equal(res.Formula, c.monitor.Formula()) {
			t.Errorf("%q compiles to %q, but the monitor watches %q", desc, res.Formula, c.monitor.Formula())
		}
	}
}

func TestSlugging(t *testing.T) {
	res, err := Parse("Globally, it is always the case that the audit service is running holds.")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Formula.String(), "the_audit_service_is_running") {
		t.Errorf("formula = %q", res.Formula)
	}
}
