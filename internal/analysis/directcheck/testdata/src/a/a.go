// Fixture for the directcheck analyzer: direct contract calls in free
// functions are flagged; methods, engine handoffs and non-contract
// receivers are not.
package a

import (
	"context"
	"fmt"

	"veridevops/internal/core"
	"veridevops/internal/engine"
)

type req struct{}

func (req) Check() core.CheckStatus                     { return core.CheckPass }
func (req) CheckCtx(_ context.Context) core.CheckStatus { return core.CheckPass }
func (req) Enforce() core.EnforcementStatus             { return core.EnforceSuccess }

// Flagged: a free function calling the contract methods directly
// bypasses panic recovery, retries and attempt spans.
func direct(ctx context.Context) {
	var r req
	fmt.Println(r.Check())       // want `direct Check\(\) call on req bypasses the fault-tolerant engine`
	fmt.Println(r.CheckCtx(ctx)) // want `direct CheckCtx\(\) call on req bypasses the fault-tolerant engine`
	fmt.Println(r.Enforce())     // want `direct Enforce\(\) call on req bypasses the fault-tolerant engine`
}

// Clean: methods may compose their own and their components' checks.
type verdict struct{ r req }

func (v verdict) Render() string {
	return fmt.Sprint(v.r.Check())
}

// Clean: handing the method value to the engine is the blessed pattern —
// a method value is not a call.
func blessed(r req) core.CheckStatus {
	st, _ := engine.Attempt(r.Check, nil, nil, engine.Policy{})
	return st
}

// Clean: a Check method on a type that does not implement the contract
// (wrong return type) is somebody else's Check.
type unrelated struct{}

func (unrelated) Check() bool { return true }

func otherCheck(u unrelated) bool {
	return u.Check()
}

// Clean: suppression with a recorded reason.
func suppressedDirect(r req) core.CheckStatus {
	//lint:ignore directcheck bootstrap probe runs before the engine exists
	return r.Check()
}
