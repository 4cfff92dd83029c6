package stig

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

// Finding-document importer: parses the "Key: value" text layout used by
// stigviewer exports and by core.Finding.String, so catalogue maintainers
// can paste finding documents and instantiate patterns from them. A file
// may contain several findings; each starts at a "Finding ID:" line.

var findingKeys = map[string]func(*core.Finding, string){
	"Finding ID":  func(f *core.Finding, v string) { f.ID = v },
	"Version":     func(f *core.Finding, v string) { f.Ver = v },
	"Rule ID":     func(f *core.Finding, v string) { f.Rule = v },
	"IA Controls": func(f *core.Finding, v string) { f.IA = v },
	"Severity":    func(f *core.Finding, v string) { f.Sev = v },
	"STIG":        func(f *core.Finding, v string) { f.Guide = v },
	"Date":        func(f *core.Finding, v string) { f.Published = v },
	"Description": func(f *core.Finding, v string) { f.Desc = v },
	"Check Text":  func(f *core.Finding, v string) { f.CheckTxt = v },
	"Fix Text":    func(f *core.Finding, v string) { f.FixTxt = v },
}

// ImportFindings parses finding documents from r. Values may span several
// lines; a value ends at the next known "Key:" line or at the next
// finding. Unknown "Key:" lines inside a finding are treated as value
// continuation, since STIG prose routinely contains colons.
func ImportFindings(r io.Reader) ([]core.Finding, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)

	var out []core.Finding
	var cur *core.Finding
	var curKey string
	var curVal strings.Builder

	flushField := func() {
		if cur == nil || curKey == "" {
			return
		}
		findingKeys[curKey](cur, strings.TrimSpace(curVal.String()))
		curKey = ""
		curVal.Reset()
	}
	flushFinding := func() error {
		flushField()
		if cur == nil {
			return nil
		}
		if cur.ID == "" {
			return fmt.Errorf("stig: finding without a Finding ID")
		}
		out = append(out, *cur)
		cur = nil
		return nil
	}

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		trimmed := strings.TrimSpace(line)

		key, val, isKey := splitKey(trimmed)
		switch {
		case isKey && key == "Finding ID":
			if err := flushFinding(); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			cur = &core.Finding{}
			curKey, curVal = "Finding ID", strings.Builder{}
			curVal.WriteString(val)
		case isKey && cur != nil:
			flushField()
			curKey = key
			curVal.WriteString(val)
		case cur != nil && curKey != "":
			// Continuation line of the current value.
			if trimmed != "" {
				if curVal.Len() > 0 {
					curVal.WriteByte(' ')
				}
				curVal.WriteString(trimmed)
			}
		case trimmed == "":
			// Blank line outside a value: ignore.
		default:
			return nil, fmt.Errorf("stig: line %d: content outside a finding: %q", lineNo, trimmed)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stig: import: %w", err)
	}
	if err := flushFinding(); err != nil {
		return nil, err
	}
	return out, nil
}

// splitKey recognises "Key: value" lines for known keys.
func splitKey(line string) (key, val string, ok bool) {
	i := strings.Index(line, ":")
	if i < 0 {
		return "", "", false
	}
	k := strings.TrimSpace(line[:i])
	if _, known := findingKeys[k]; !known {
		return "", "", false
	}
	return k, strings.TrimSpace(line[i+1:]), true
}

// NewPackageRequirement instantiates the package pattern for an imported
// finding: the mechanical step a catalogue maintainer performs after
// pasting a finding document — pick the reusable pattern, bind the
// parameters.
func NewPackageRequirement(f core.Finding, h *host.Linux, pkg string, mustBeInstalled bool) (*UbuntuPackagePattern, error) {
	if f.ID == "" {
		return nil, fmt.Errorf("stig: finding has no ID")
	}
	if pkg == "" {
		return nil, fmt.Errorf("stig: %s: empty package name", f.ID)
	}
	return &UbuntuPackagePattern{
		Finding: &f, Host: h, PackageName: pkg, MustBeInstalled: mustBeInstalled,
	}, nil
}
