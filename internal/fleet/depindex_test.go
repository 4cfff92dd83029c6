package fleet

import (
	"reflect"
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/host"
	"veridevops/internal/stig"
)

func TestBuildDepIndexCoversUbuntuCatalog(t *testing.T) {
	h := host.NewUbuntu1804()
	x := BuildDepIndex(stig.UbuntuCatalog(h))
	if x.Findings() != 8 {
		t.Fatalf("Findings = %d, want 8", x.Findings())
	}
	if len(x.Unindexed()) != 0 {
		t.Errorf("Unindexed = %v, want none (every stig pattern declares keys)", x.Unindexed())
	}
	if got := x.Affected([]host.StateKey{host.PackageKey("nis")}); !reflect.DeepEqual(got, []string{"V-219157"}) {
		t.Errorf("Affected(pkg:nis) = %v, want [V-219157]", got)
	}
	got := x.Affected([]host.StateKey{host.PackageKey("aide"), host.ConfigKey("/etc/login.defs", "ENCRYPT_METHOD")})
	if !reflect.DeepEqual(got, []string{"V-219177", "V-219343"}) {
		t.Errorf("Affected = %v, want [V-219177 V-219343]", got)
	}
	// A key nothing reads affects nothing on a fully-indexed catalogue.
	if got := x.Affected([]host.StateKey{host.ConfigKey("/etc/motd", "banner")}); got != nil {
		t.Errorf("Affected(irrelevant) = %v, want nil", got)
	}
	if got := x.Affected(nil); got != nil {
		t.Errorf("Affected(nil) = %v, want nil", got)
	}
}

// plainReq declares no keys: the unindexed shape.
type plainReq struct {
	core.Finding
	core.CheckFunc
	core.EnforceFunc
}

func TestDepIndexUnindexedAlwaysAffected(t *testing.T) {
	h := host.NewUbuntu1804()
	c := core.NewCatalog()
	c.MustRegister(stig.NewV219343(h)) // declares pkg:aide
	c.MustRegister(&plainReq{Finding: core.Finding{ID: "V-000001"}})
	x := BuildDepIndex(c)
	if !reflect.DeepEqual(x.Unindexed(), []string{"V-000001"}) {
		t.Fatalf("Unindexed = %v", x.Unindexed())
	}
	// The unindexed check rides along with every delta, even an
	// irrelevant one: its reads are unknown.
	if got := x.Affected([]host.StateKey{host.ConfigKey("/etc/motd", "banner")}); !reflect.DeepEqual(got, []string{"V-000001"}) {
		t.Errorf("Affected(irrelevant) = %v, want [V-000001]", got)
	}
	if got := x.Affected([]host.StateKey{host.PackageKey("aide")}); !reflect.DeepEqual(got, []string{"V-000001", "V-219343"}) {
		t.Errorf("Affected(pkg:aide) = %v, want [V-000001 V-219343]", got)
	}
}

// TestDeclSignatureSeparatesKindAndName pins that a key's kind and name
// are encoded apart: two keys whose rendered "kind:name" forms coincide
// must not share an interned index.
func TestDeclSignatureSeparatesKindAndName(t *testing.T) {
	decl := func(k host.StateKey) []keyDecl {
		return []keyDecl{{id: "V-1", keys: []host.StateKey{k}, ok: true}}
	}
	a := host.StateKey{Kind: "pkg", Name: "x:y"}
	b := host.StateKey{Kind: "pkg:x", Name: "y"}
	if a.String() != b.String() {
		t.Fatalf("fixture keys render differently: %s, %s", a, b)
	}
	if sa, sb := appendDeclSignature(nil, decl(a)), appendDeclSignature(nil, decl(b)); string(sa) == string(sb) {
		t.Errorf("keys %+v and %+v share the signature %q", a, b, sa)
	}
}

// TestDepIndexOrderIndependent pins the determinism satellite: two
// catalogues holding the same requirements registered in opposite
// orders build deeply-equal indexes — construction iterates the
// ID-sorted Catalog.All, never a map.
func TestDepIndexOrderIndependent(t *testing.T) {
	h := host.NewUbuntu1804()
	build := func(reverse bool) *DepIndex {
		reqs := stig.UbuntuCatalog(h).All()
		if reverse {
			for i, j := 0, len(reqs)-1; i < j; i, j = i+1, j-1 {
				reqs[i], reqs[j] = reqs[j], reqs[i]
			}
		}
		c := core.NewCatalog()
		for _, r := range reqs {
			c.MustRegister(r)
		}
		return BuildDepIndex(c)
	}
	a, b := build(false), build(true)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("indexes differ by registration order:\n%+v\n%+v", a, b)
	}
	// And rebuilding from the same catalogue is stable.
	if c := build(false); !reflect.DeepEqual(a, c) {
		t.Errorf("rebuild differs:\n%+v\n%+v", a, c)
	}
}
