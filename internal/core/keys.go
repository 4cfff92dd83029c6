package core

import "veridevops/internal/host"

// Push-based incremental evaluation needs to know, before running a
// check, which host-state slots the check reads — so that when a host
// event names the slot it touched (host.StateKey), the fleet streamer
// can map the key through a reverse dependency index to exactly the
// affected checks instead of re-auditing the whole host. KeyReader is
// that declaration seam; it is the static companion of StateDigester
// (which hashes the state's *values* for dedup, where KeyReader names
// the state's *identity* for indexing).

// KeyReader is an optional extension of Checkable for requirements that
// can enumerate the host-state slots their Check reads, each built with
// the host key constructor of its kind (host.PackageKey("telnetd"),
// host.ConfigKey("/etc/login.defs", "ENCRYPT_METHOD"),
// host.AuditKey("Logon")) — the same typed identity the host's
// mutators log, so index lookups compare keys, not strings. The
// declaration must be static and complete: if Check reads a slot the
// requirement does not declare, a change to that slot will not
// re-trigger the check under push evaluation, and no periodic sweep
// re-runs it either. Requirements that cannot enumerate their reads
// simply don't implement the interface and are re-run on every change
// of their host.
// Because declarations are static, consumers read them once per
// catalogue state: DepIndex when it is built, and
// Catalog.KeyDeclarations until the next Register. A declaration that
// changed afterwards would go unseen by both.
type KeyReader interface {
	// CheckStateKeys returns the state keys the Check reads.
	CheckStateKeys() []host.StateKey
}

// CheckKeys returns the state keys a requirement declares it reads, and
// whether the requirement declares any. ok=false — the requirement does
// not implement KeyReader, declares an empty set, or its declaration
// panicked — means the requirement is unindexable and must be re-run on
// every change of its host. Mirrors CheckFingerprint's panic absorption
// so one misbehaving declaration degrades to full re-audits instead of
// crashing the indexer.
func CheckKeys(req Requirement) (keys []host.StateKey, ok bool) {
	kr, is := req.(KeyReader)
	if !is {
		return nil, false
	}
	defer func() {
		if recover() != nil {
			keys, ok = nil, false
		}
	}()
	ks := kr.CheckStateKeys()
	if len(ks) == 0 {
		return nil, false
	}
	return ks, true
}
