package stig

import (
	"encoding/json"
	"fmt"
	"io"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

// Data-driven catalogues: D2.7's known-issues section notes that "the
// current set of STIG patterns is not exhaustive [and] is continuously
// updated". This loader lets maintainers extend the catalogue without
// recompiling: findings are described in JSON, each naming the reusable
// pattern it instantiates and its parameters.
//
// Supported pattern kinds and their parameters:
//
//	package   — package (string), must_be_installed (bool)      [Linux]
//	config    — file, key, value (strings)                      [Linux]
//	service   — service (string), must_be_active (bool)         [Linux]
//	audit     — category, subcategory (strings), success, failure (bools) [Windows]
//	registry  — key, value (strings)                            [Windows]

// CatalogEntry is one finding definition in a catalogue file.
type CatalogEntry struct {
	Kind string `json:"kind"`

	// Finding metadata.
	ID       string `json:"id"`
	Version  string `json:"version,omitempty"`
	Severity string `json:"severity,omitempty"`
	STIG     string `json:"stig,omitempty"`
	Desc     string `json:"description,omitempty"`
	Check    string `json:"check_text,omitempty"`
	Fix      string `json:"fix_text,omitempty"`

	// Pattern parameters (kind-dependent).
	Package         string `json:"package,omitempty"`
	MustBeInstalled bool   `json:"must_be_installed,omitempty"`
	File            string `json:"file,omitempty"`
	Key             string `json:"key,omitempty"`
	Value           string `json:"value,omitempty"`
	Service         string `json:"service,omitempty"`
	MustBeActive    bool   `json:"must_be_active,omitempty"`
	Category        string `json:"category,omitempty"`
	Subcategory     string `json:"subcategory,omitempty"`
	Success         bool   `json:"success,omitempty"`
	Failure         bool   `json:"failure,omitempty"`
}

func (e CatalogEntry) finding() *core.Finding {
	return &core.Finding{
		ID: e.ID, Ver: e.Version, Sev: e.Severity, Guide: e.STIG,
		Desc: e.Desc, CheckTxt: e.Check, FixTxt: e.Fix,
	}
}

// Hosts carries the targets a loaded catalogue may bind to; either may be
// nil when the file contains no findings for that platform.
type Hosts struct {
	Linux   *host.Linux
	Windows *host.Windows
}

// Instantiate builds the concrete requirement for one entry.
func (e CatalogEntry) Instantiate(hosts Hosts) (core.CheckableEnforceableRequirement, error) {
	if e.ID == "" {
		return nil, fmt.Errorf("stig: catalogue entry without id (kind %q)", e.Kind)
	}
	needLinux := func() (*host.Linux, error) {
		if hosts.Linux == nil {
			return nil, fmt.Errorf("stig: %s: kind %q needs a Linux host", e.ID, e.Kind)
		}
		return hosts.Linux, nil
	}
	switch e.Kind {
	case "package":
		h, err := needLinux()
		if err != nil {
			return nil, err
		}
		if e.Package == "" {
			return nil, fmt.Errorf("stig: %s: package kind needs a package name", e.ID)
		}
		return &UbuntuPackagePattern{Finding: e.finding(), Host: h,
			PackageName: e.Package, MustBeInstalled: e.MustBeInstalled}, nil
	case "config":
		h, err := needLinux()
		if err != nil {
			return nil, err
		}
		if e.File == "" || e.Key == "" {
			return nil, fmt.Errorf("stig: %s: config kind needs file and key", e.ID)
		}
		return &UbuntuConfigPattern{Finding: e.finding(), Host: h,
			File: e.File, Key: e.Key, Value: e.Value}, nil
	case "service":
		h, err := needLinux()
		if err != nil {
			return nil, err
		}
		if e.Service == "" {
			return nil, fmt.Errorf("stig: %s: service kind needs a service name", e.ID)
		}
		return &UbuntuServicePattern{Finding: e.finding(), Host: h,
			ServiceName: e.Service, MustBeActive: e.MustBeActive}, nil
	case "audit":
		if hosts.Windows == nil {
			return nil, fmt.Errorf("stig: %s: audit kind needs a Windows host", e.ID)
		}
		if e.Subcategory == "" {
			return nil, fmt.Errorf("stig: %s: audit kind needs a subcategory", e.ID)
		}
		if !e.Success && !e.Failure {
			return nil, fmt.Errorf("stig: %s: audit kind needs success and/or failure", e.ID)
		}
		return &AuditPolicyRequirement{Finding: e.finding(),
			AP: host.AuditPol{W: hosts.Windows}, Category: e.Category,
			Subcategory: e.Subcategory, WantSuccess: e.Success, WantFailure: e.Failure}, nil
	case "registry":
		if hosts.Windows == nil {
			return nil, fmt.Errorf("stig: %s: registry kind needs a Windows host", e.ID)
		}
		if e.Key == "" {
			return nil, fmt.Errorf("stig: %s: registry kind needs a key", e.ID)
		}
		return &RegistryRequirement{Finding: e.finding(), Host: hosts.Windows,
			Key: e.Key, Want: e.Value}, nil
	default:
		return nil, fmt.Errorf("stig: %s: unknown pattern kind %q", e.ID, e.Kind)
	}
}

// LoadCatalog reads a JSON catalogue file (an array of entries) and
// registers every instantiated requirement.
func LoadCatalog(r io.Reader, hosts Hosts) (*core.Catalog, error) {
	var entries []CatalogEntry
	if err := json.NewDecoder(r).Decode(&entries); err != nil {
		return nil, fmt.Errorf("stig: catalogue json: %w", err)
	}
	cat := core.NewCatalog()
	for _, e := range entries {
		req, err := e.Instantiate(hosts)
		if err != nil {
			return nil, err
		}
		if err := cat.Register(req); err != nil {
			return nil, err
		}
	}
	return cat, nil
}
