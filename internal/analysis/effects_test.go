package analysis

import (
	"go/token"
	"go/types"
	"testing"

	"veridevops/internal/host"
)

func TestNormalizePartsMergesConstants(t *testing.T) {
	got := NormalizeParts([]Part{ConstPart("a"), ConstPart(""), ConstPart("b"), OpaquePart(), ConstPart("c")})
	if len(got) != 3 {
		t.Fatalf("want 3 parts, got %d: %v", len(got), got)
	}
	if got[0].Const != "ab" || !got[1].Opaque || got[2].Const != "c" {
		t.Fatalf("bad normalization: %v", got)
	}
}

func TestReadMatchesFoldsConcatenation(t *testing.T) {
	a := Read{Kind: host.KeyConfig, Parts: []Part{ConstPart("/etc/ssh"), ConstPart(":"), ConstPart("PermitRootLogin")}}
	b := Read{Kind: host.KeyConfig, Parts: []Part{ConstPart("/etc/ssh:PermitRootLogin")}}
	if !a.Matches(b) || !b.Matches(a) {
		t.Fatalf("folded constants should match: %s vs %s", a.Key(), b.Key())
	}
	c := Read{Kind: host.KeyService, Parts: []Part{ConstPart("/etc/ssh:PermitRootLogin")}}
	if a.Matches(c) {
		t.Fatalf("kinds differ, must not match")
	}
}

func TestReadMatchesFieldPathsByIdentity(t *testing.T) {
	f1 := types.NewField(token.NoPos, nil, "Name", types.Typ[types.String], false)
	f2 := types.NewField(token.NoPos, nil, "Name", types.Typ[types.String], false)
	a := Read{Kind: host.KeyPackage, Parts: []Part{{Param: -1, Fields: []*types.Var{f1}}}}
	same := Read{Kind: host.KeyPackage, Parts: []Part{{Param: -1, Fields: []*types.Var{f1}}}}
	other := Read{Kind: host.KeyPackage, Parts: []Part{{Param: -1, Fields: []*types.Var{f2}}}}
	if !a.Matches(same) {
		t.Fatalf("identical field objects should match")
	}
	if a.Matches(other) {
		t.Fatalf("distinct field objects (same name) must not match")
	}
	if a.Resolved() != true {
		t.Fatalf("field-path term is resolved")
	}
}

func TestReadResolvedAndKey(t *testing.T) {
	whole := Read{Kind: host.KeyPackage, Whole: true}
	if whole.Resolved() || whole.Key() != "pkg:*" {
		t.Fatalf("whole read: resolved=%v key=%q", whole.Resolved(), whole.Key())
	}
	opaque := Read{Kind: host.KeyAudit, Opaque: true}
	if opaque.Resolved() || opaque.Key() != "audit:<?>" {
		t.Fatalf("opaque read: resolved=%v key=%q", opaque.Resolved(), opaque.Key())
	}
	param := Read{Kind: host.KeyService, Parts: []Part{{Param: 1}}}
	if param.Resolved() {
		t.Fatalf("parameter-rooted term is not resolved at the top frame")
	}
}
