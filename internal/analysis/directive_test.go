package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSource builds a minimal Unit (no type information) from source,
// enough to drive the directive parser.
func parseSource(t *testing.T, src string) *Unit {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Unit{ImportPath: "p", Fset: fset, Files: []*ast.File{f}}
}

func TestCutDirective(t *testing.T) {
	for comment, want := range map[string]struct {
		payload string
		isFile  bool
	}{
		"//lint:ignore spanend reason here":       {"spanend reason here", false},
		"//lint:file-ignore clockuse real clock":  {"clockuse real clock", true},
		"// lint:ignore spanend spaced out":       {"", false},
		"//lint:ignored spanend wrong verb":       {"", false},
		"// ordinary comment":                     {"", false},
		"//lint:ignore  spanend,reqmeta  two  ws": {"spanend,reqmeta  two  ws", false},
	} {
		payload, isFile := cutDirective(comment)
		if payload != want.payload || isFile != want.isFile {
			t.Errorf("cutDirective(%q) = (%q, %v), want (%q, %v)",
				comment, payload, isFile, want.payload, want.isFile)
		}
	}
}

func TestParseDirectivesAndSuppression(t *testing.T) {
	src := `package p

//lint:file-ignore reqmeta generated catalogue data

func f() {
	//lint:ignore spanend,clockuse the span escapes to the watchdog
	x := 1
	_ = x
}

//lint:ignore directcheck
`
	u := parseSource(t, src)
	idx, bad := parseDirectives(u)

	if len(bad) != 1 || !strings.Contains(bad[0].Message, "malformed") {
		t.Fatalf("want exactly one malformed-directive finding, got %v", bad)
	}
	if bad[0].Analyzer != "lint" {
		t.Errorf("malformed finding attributed to %q, want \"lint\"", bad[0].Analyzer)
	}

	mk := func(analyzer, file string, line int) Finding {
		return Finding{Analyzer: analyzer, File: file, Line: line}
	}
	cases := []struct {
		f    Finding
		want bool
	}{
		{mk("reqmeta", "src.go", 42), true},      // file-ignore matches anywhere
		{mk("spanend", "src.go", 7), true},       // line below the ignore
		{mk("clockuse", "src.go", 7), true},      // second analyzer in the list
		{mk("spanend", "src.go", 6), true},       // the directive's own line
		{mk("spanend", "src.go", 8), false},      // two lines below: out of reach
		{mk("directcheck", "src.go", 12), false}, // malformed directives suppress nothing
		{mk("lockedchan", "src.go", 7), false},   // analyzer not listed
		{mk("spanend", "other.go", 7), false},    // wrong file
	}
	for _, c := range cases {
		if got := suppressed(idx, c.f); got != c.want {
			t.Errorf("suppressed(%s %s:%d) = %v, want %v", c.f.Analyzer, c.f.File, c.f.Line, got, c.want)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "spanend", File: "internal/fleet/fleet.go", Line: 12, Col: 3, Message: "span leaked"}
	want := "internal/fleet/fleet.go:12:3: spanend: span leaked"
	if got := f.String(); got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}
