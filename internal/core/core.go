// Package core implements the RQCODE ("Requirements as Code") concepts from
// the VeriDevOps project: security requirements represented as first-class
// program values that can be checked against, and enforced upon, a hosting
// environment.
//
// The package mirrors the rqcode.concepts reference specification of
// VeriDevOps deliverable D2.7 (Annex 1): the Checkable and Enforceable
// interfaces, the PASS/FAIL/INCOMPLETE and SUCCESS/FAILURE/INCOMPLETE status
// enumerations, the STIG-finding-shaped Requirement, and their combination
// CheckableEnforceableRequirement.
package core

import "context"

// CheckStatus is the verdict of a requirement check, mirroring the
// rqcode.concepts.Checkable.CheckStatus enumeration.
type CheckStatus int

const (
	// CheckPass means the environment satisfies the requirement.
	CheckPass CheckStatus = iota
	// CheckFail means the environment violates the requirement.
	CheckFail
	// CheckIncomplete means the check could not determine a verdict
	// (for example, the probed subsystem was unreachable).
	CheckIncomplete
	// CheckError means the check itself misbehaved — it panicked or
	// exceeded its time budget — and produced no verdict. The execution
	// engine substitutes this status instead of letting a broken check
	// crash the audit; Report.Counts buckets it with INCOMPLETE.
	CheckError
)

// String returns the STIG-viewer style name of the status.
func (s CheckStatus) String() string {
	switch s {
	case CheckPass:
		return "PASS"
	case CheckFail:
		return "FAIL"
	case CheckIncomplete:
		return "INCOMPLETE"
	case CheckError:
		return "ERROR"
	default:
		return "UNKNOWN"
	}
}

// EnforcementStatus is the verdict of a requirement enforcement, mirroring
// the rqcode.concepts.Enforceable.EnforcementStatus enumeration.
type EnforcementStatus int

const (
	// EnforceSuccess means the environment was modified to satisfy the
	// requirement.
	EnforceSuccess EnforcementStatus = iota
	// EnforceFailure means the modification failed and the environment may
	// still violate the requirement.
	EnforceFailure
	// EnforceIncomplete means enforcement was partially applied or could not
	// be attempted.
	EnforceIncomplete
)

// String returns the name of the status.
func (s EnforcementStatus) String() string {
	switch s {
	case EnforceSuccess:
		return "SUCCESS"
	case EnforceFailure:
		return "FAILURE"
	case EnforceIncomplete:
		return "INCOMPLETE"
	default:
		return "UNKNOWN"
	}
}

// Checkable is a requirement that can be checked programmatically against
// the current environment.
type Checkable interface {
	// Check reports whether the current environment satisfies the
	// requirement.
	Check() CheckStatus
}

// Enforceable is a requirement that can be enforced on the hosting
// environment programmatically.
type Enforceable interface {
	// Enforce modifies the hosting environment to satisfy the requirement.
	Enforce() EnforcementStatus
}

// ContextChecker is an optional extension of Checkable for checks whose
// probes observe a context: the execution engine passes each attempt a
// context that is cancelled when the attempt is abandoned at its timeout
// (engine.AttemptCtx), so a cooperative check can unwind at the next
// probe boundary and release its worker goroutine instead of running to
// completion in the background. Checks that do not implement it are run
// through plain Check and keep the abandon-in-background semantics.
type ContextChecker interface {
	// CheckCtx is Check with cooperative cancellation.
	CheckCtx(ctx context.Context) CheckStatus
}

// CheckFunc adapts an ordinary function to the Checkable interface.
type CheckFunc func() CheckStatus

// Check calls f.
func (f CheckFunc) Check() CheckStatus { return f() }

// EnforceFunc adapts an ordinary function to the Enforceable interface.
type EnforceFunc func() EnforcementStatus

// Enforce calls f.
func (f EnforceFunc) Enforce() EnforcementStatus { return f() }

// CheckBool converts a boolean condition into a CheckStatus.
func CheckBool(ok bool) CheckStatus {
	if ok {
		return CheckPass
	}
	return CheckFail
}

// Predicate adapts a boolean thunk to the Checkable interface.
func Predicate(f func() bool) Checkable {
	return CheckFunc(func() CheckStatus { return CheckBool(f()) })
}

// Const is a Checkable that always returns the given status. It is useful
// for tests and for terminals of pattern compositions.
func Const(s CheckStatus) Checkable {
	return CheckFunc(func() CheckStatus { return s })
}

// Requirement is the STIG-finding-shaped requirement metadata interface. It
// is a direct mapping of the structure of STIG findings as presented on
// stigviewer.com; all member names are self-explanatory.
type Requirement interface {
	FindingID() string
	Version() string
	RuleID() string
	IAControls() string
	Severity() string
	Description() string
	STIG() string
	Date() string
	CheckTextCode() string
	CheckText() string
	FixTextCode() string
	FixText() string
}

// CheckableRequirement is a Requirement augmented with verification means.
type CheckableRequirement interface {
	Requirement
	Checkable
}

// CheckableEnforceableRequirement combines Checkable and Enforceable
// Requirement, mirroring rqcode.concepts.CheckableEnforceableRequirement.
type CheckableEnforceableRequirement interface {
	Requirement
	Checkable
	Enforceable
}

// Finding is a concrete value implementation of Requirement. Embedding a
// Finding into a pattern struct yields the metadata accessors for free, the
// Go analogue of the RQCODE Java inheritance from Requirement. Patterns
// may embed a *Finding that many requirements share (every host's copy
// of one built-in STIG finding points at one value), so a Finding that
// a requirement points at is immutable: build a new one, never write
// its fields.
type Finding struct {
	ID        string // e.g. "V-219157"
	Ver       string // e.g. "Version 1"
	Rule      string // e.g. "SV-109661r1_rule"
	IA        string
	Sev       string // "high" | "medium" | "low"
	Desc      string
	Guide     string // owning STIG, e.g. "Canonical Ubuntu 18.04 LTS STIG"
	Published string // e.g. "2021-06-16"
	CheckCode string
	CheckTxt  string
	FixCode   string
	FixTxt    string
}

// FindingID returns the STIG finding identifier.
func (f Finding) FindingID() string { return f.ID }

// Version returns the finding version string.
func (f Finding) Version() string { return f.Ver }

// RuleID returns the STIG rule identifier.
func (f Finding) RuleID() string { return f.Rule }

// IAControls returns the information-assurance controls field.
func (f Finding) IAControls() string { return f.IA }

// Severity returns the finding severity category.
func (f Finding) Severity() string { return f.Sev }

// Description returns the vulnerability discussion text.
func (f Finding) Description() string { return f.Desc }

// STIG returns the name of the guide the finding belongs to.
func (f Finding) STIG() string { return f.Guide }

// Date returns the publication date of the finding.
func (f Finding) Date() string { return f.Published }

// CheckTextCode returns the check content reference code.
func (f Finding) CheckTextCode() string { return f.CheckCode }

// CheckText returns the manual check procedure text.
func (f Finding) CheckText() string { return f.CheckTxt }

// FixTextCode returns the fix reference code.
func (f Finding) FixTextCode() string { return f.FixCode }

// FixText returns the manual remediation procedure text.
func (f Finding) FixText() string { return f.FixTxt }

// String renders the finding as a plain-text document, a crude parsing of
// the finding specification in the spirit of Requirement.toString of the
// reference specification.
func (f Finding) String() string {
	return "Finding ID: " + f.ID +
		"\nVersion: " + f.Ver +
		"\nRule ID: " + f.Rule +
		"\nIA Controls: " + f.IA +
		"\nSeverity: " + f.Sev +
		"\nSTIG: " + f.Guide +
		"\nDate: " + f.Published +
		"\nDescription: " + f.Desc +
		"\nCheck Text: " + f.CheckTxt +
		"\nFix Text: " + f.FixTxt + "\n"
}
