package host

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// AuditSetting is a Windows advanced-audit-policy setting for one
// subcategory: whether Success and/or Failure events are audited.
type AuditSetting struct {
	Success bool
	Failure bool
}

// String renders the setting the way auditpol.exe does.
func (s AuditSetting) String() string {
	switch {
	case s.Success && s.Failure:
		return "Success and Failure"
	case s.Success:
		return "Success"
	case s.Failure:
		return "Failure"
	default:
		return "No Auditing"
	}
}

// Windows is a simulated Windows 10 host: the advanced audit policy store
// that auditpol.exe manipulates, plus a string-valued registry. All methods
// are safe for concurrent use.
type Windows struct {
	mu sync.Mutex
	// audit maps subcategory -> setting; categories maps subcategory ->
	// category, mirroring the two-level auditpol taxonomy.
	audit      map[string]AuditSetting
	categories map[string]string
	registry   map[string]string
	log        *EventLog
	// rec, when attached, records every read's state key — the dynamic
	// declared-reads oracle (see record.go, fleet.VerifyReads).
	rec *ReadRecorder
}

// Audit-policy taxonomy used by the Windows 10 STIG findings implemented in
// internal/stig.
var win10Subcategories = map[string]string{
	"User Account Management":   "Account Management",
	"Security Group Management": "Account Management",
	"Logon":                     "Logon/Logoff",
	"Logoff":                    "Logon/Logoff",
	"Account Lockout":           "Logon/Logoff",
	"Sensitive Privilege Use":   "Privilege Use",
	"Audit Policy Change":       "Policy Change",
	"Security State Change":     "System",
}

// NewWindows10 returns a host resembling a fresh Windows 10 install: the
// default audit policy audits almost nothing, which is exactly the
// non-compliant state the STIG audit findings address.
func NewWindows10() *Windows {
	w := &Windows{
		audit:      map[string]AuditSetting{},
		categories: map[string]string{},
		registry:   map[string]string{},
		log:        NewEventLog(),
	}
	for sub, cat := range win10Subcategories {
		w.categories[sub] = cat
		w.audit[sub] = AuditSetting{} // No Auditing
	}
	// Windows defaults: success auditing of logon events is on.
	w.audit["Logon"] = AuditSetting{Success: true}
	return w
}

// Log returns the host event log.
func (w *Windows) Log() *EventLog { return w.log }

// Category returns the audit category owning the subcategory.
func (w *Windows) Category(subcategory string) (string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	c, ok := w.categories[subcategory]
	if !ok {
		return "", fmt.Errorf("host: unknown audit subcategory %q", subcategory)
	}
	return c, nil
}

// GetAudit returns the audit setting of a subcategory.
func (w *Windows) GetAudit(subcategory string) (AuditSetting, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rec.observe(AuditKey(subcategory))
	s, ok := w.audit[subcategory]
	if !ok {
		return AuditSetting{}, fmt.Errorf("host: unknown audit subcategory %q", subcategory)
	}
	return s, nil
}

// SetAudit sets the audit setting of a subcategory. An unknown one is
// an error and logs nothing.
func (w *Windows) SetAudit(subcategory string, s AuditSetting) error {
	if _, err := w.Category(subcategory); err != nil {
		return err
	}
	w.write(AuditKey(subcategory), "auditpol.set", subcategory+"="+s.String(), func() {
		w.audit[subcategory] = s
	})
	return nil
}

// Subcategories returns all known subcategories, sorted.
func (w *Windows) Subcategories() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rec.observe(wildcard(KeyAudit))
	out := make([]string, 0, len(w.audit))
	for s := range w.audit {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// SetRegistry sets a registry value (path\name form).
func (w *Windows) SetRegistry(key, value string) {
	w.write(RegistryKey(key), "reg.set", key+"="+value, func() { w.registry[key] = value })
}

// write is the one path by which a Windows host's state changes: under
// the host's lock it applies change, which mutates the slot named by
// key, and logs the keyed event.
func (w *Windows) write(key StateKey, action, detail string, change func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	change()
	w.log.AppendKeyed(action, detail, key)
}

// Registry returns a registry value.
func (w *Windows) Registry(key string) (string, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rec.observe(RegistryKey(key))
	v, ok := w.registry[key]
	return v, ok
}

// AuditPol emulates the auditpol.exe command-line interface that the
// reference AuditPolicyRequirement forks: Run accepts /get and /set
// invocations and produces (respectively parses) the same textual format.
// RQCODE's Windows requirements go through this text interface rather than
// the typed accessors, mirroring the paper's implementation note that
// checking "forks auditpol.exe and manipulates its input and output".
type AuditPol struct {
	W *Windows
}

// Run executes an auditpol-style command line. Supported forms:
//
//	/get /subcategory:"<name>"
//	/set /subcategory:"<name>" /success:enable|disable /failure:enable|disable
func (a AuditPol) Run(args ...string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("auditpol: missing verb")
	}
	switch args[0] {
	case "/get":
		sub, err := argValue(args[1:], "/subcategory:")
		if err != nil {
			return "", err
		}
		s, err := a.W.GetAudit(sub)
		if err != nil {
			return "", err
		}
		cat, _ := a.W.Category(sub)
		// Mirrors the auditpol /get table layout.
		return fmt.Sprintf("Category/Subcategory                      Setting\n%s\n  %-40s%s\n", cat, sub, s), nil
	case "/set":
		sub, err := argValue(args[1:], "/subcategory:")
		if err != nil {
			return "", err
		}
		cur, err := a.W.GetAudit(sub)
		if err != nil {
			return "", err
		}
		if v, err := argValue(args[1:], "/success:"); err == nil {
			cur.Success = v == "enable"
		}
		if v, err := argValue(args[1:], "/failure:"); err == nil {
			cur.Failure = v == "enable"
		}
		if err := a.W.SetAudit(sub, cur); err != nil {
			return "", err
		}
		return "The command was successfully executed.\n", nil
	default:
		return "", fmt.Errorf("auditpol: unknown verb %q", args[0])
	}
}

// ParseSetting extracts the Setting column for a subcategory from an
// auditpol /get output.
func ParseSetting(output, subcategory string) (AuditSetting, error) {
	for _, line := range strings.Split(output, "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, subcategory) {
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(trimmed, subcategory))
		switch rest {
		case "Success and Failure":
			return AuditSetting{Success: true, Failure: true}, nil
		case "Success":
			return AuditSetting{Success: true}, nil
		case "Failure":
			return AuditSetting{Failure: true}, nil
		case "No Auditing":
			return AuditSetting{}, nil
		}
	}
	return AuditSetting{}, fmt.Errorf("auditpol: subcategory %q not found in output", subcategory)
}

func argValue(args []string, prefix string) (string, error) {
	for _, a := range args {
		if strings.HasPrefix(a, prefix) {
			return strings.Trim(strings.TrimPrefix(a, prefix), `"`), nil
		}
	}
	return "", fmt.Errorf("auditpol: missing %s argument", prefix)
}
