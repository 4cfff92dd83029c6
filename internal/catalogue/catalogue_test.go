package catalogue

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMarkdownCoversEverything(t *testing.T) {
	doc := Markdown()

	// Concepts.
	for _, want := range []string{
		"# RQCODE Patterns Catalogue",
		"`Checkable`", "`Enforceable`", "`CheckableEnforceableRequirement`", "`Catalog`",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("catalogue missing %q", want)
		}
	}

	// All six temporal patterns with their TCTL.
	for _, want := range []string{
		"GlobalUniversality", "Eventually", "GlobalResponseTimed",
		"GlobalResponseUntil", "GlobalUniversalityTimed", "AfterUntilUniversality",
		"`A[] P`", "`A<> P`", "P -->[<=50] S",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("catalogue missing temporal entry %q", want)
		}
	}

	// All 8 Ubuntu findings.
	for _, id := range []string{
		"V-219157", "V-219158", "V-219161", "V-219177",
		"V-219304", "V-219318", "V-219319", "V-219343",
	} {
		if !strings.Contains(doc, id) {
			t.Errorf("catalogue missing Ubuntu finding %s", id)
		}
	}

	// All 6 Windows findings with their taxonomy.
	for _, want := range []string{
		"V-63447", "V-63449", "V-63463", "V-63467", "V-63483", "V-63487",
		"Sensitive Privilege Use", "User Account Management", "Logon/Logoff",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("catalogue missing Windows entry %q", want)
		}
	}
}

func TestMarkdownIsDeterministic(t *testing.T) {
	if Markdown() != Markdown() {
		t.Error("catalogue generation must be deterministic")
	}
}

func TestFirstSentence(t *testing.T) {
	if firstSentence("One. Two.") != "One." {
		t.Error("firstSentence wrong")
	}
	if firstSentence("no terminator") != "no terminator" {
		t.Error("firstSentence should pass through")
	}
}

// TestCatalogueFileIsCurrent: the checked-in CATALOGUE.md is exactly
// what the generator prints, so a change to a pattern's text or formula
// shows up as a diff of the document (regenerate it with
// go run ./cmd/catalogue > CATALOGUE.md).
func TestCatalogueFileIsCurrent(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "CATALOGUE.md"))
	if err != nil {
		t.Fatal(err)
	}
	if got := Markdown(); got != string(want) {
		t.Errorf("CATALOGUE.md differs from Markdown(); regenerate it with go run ./cmd/catalogue > CATALOGUE.md")
	}
}
