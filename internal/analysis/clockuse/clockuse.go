// Package clockuse bans raw clock access where it can silently break
// test determinism: in packages instrumented with internal/telemetry
// (they import it directly), span timings are made deterministic by the
// virtual clock (telemetry.NewVirtualClock) and backoff sleeps by the
// injectable Sleep seams (engine.Policy.Sleep, core.FaultyCheck.Sleep).
// A raw time.Sleep or a test reading time.Now bypasses those seams and
// reintroduces wall-clock flakiness that -race and CI latch onto weeks
// later.
//
// The contract, per file kind:
//
//   - *_test.go files of an instrumented package must not reference
//     time.Now, time.Sleep, time.After, time.Tick, time.NewTicker or
//     time.NewTimer — tests drive virtual time through the clock and
//     sleep seams instead.
//   - non-test files must not reference time.Sleep, time.Tick or
//     time.NewTicker: production sleeps go through an injectable seam so
//     schedulers and tests can virtualise them, and periodic work is
//     caller-cadenced (fleet.Streamer.Flush takes the instant as an
//     argument) so the same code runs on virtual and real time.
//     (time.Now stays legal outside tests: wall-clock measurement is
//     exactly what RunStats/FleetStats exist to report. time.NewTimer
//     also stays legal: a ctx-cancellable one-shot timer, as in
//     core.FaultyCheck's retry backoff, has no seam to bypass.)
//
// Daemon entrypoints are the sanctioned exception to the ticker ban: a
// long-running serve loop (cmd/vdo-serve) is wall-clock cadenced by
// design. Its one ticker steps the same loadgen.Replay that vdo-load
// steps on the virtual clock, and records that design decision as a
// //lint:ignore clockuse suppression with the reason inline.
//
// The seam definitions themselves ("nil means time.Sleep") carry a
// //lint:ignore clockuse directive — they are the one place the real
// clock is allowed to appear. Tests that genuinely measure the real
// clock (pool busy-time accounting, deadlock watchdogs, race-window
// widening) suppress the same way, with the justification on record.
//
// Known limits: the ban is syntactic over the instrumented package's own
// files; a helper package without the telemetry import can still sleep
// on behalf of an instrumented caller.
package clockuse

import (
	"go/ast"
	"go/types"

	"veridevops/internal/analysis"
)

// bannedInTests are the time package members tests of instrumented
// packages may not reference; bannedAlways is the subset that is also
// banned in non-test files.
var (
	bannedInTests = map[string]bool{
		"Now": true, "Sleep": true, "After": true,
		"Tick": true, "NewTicker": true, "NewTimer": true,
	}
	bannedAlways = map[string]bool{"Sleep": true, "Tick": true, "NewTicker": true}
)

// Analyzer is the clockuse pass.
var Analyzer = &analysis.Analyzer{
	Name: "clockuse",
	Doc:  "ban raw time.Now/time.Sleep in telemetry-instrumented packages and their tests in favor of the virtual clock and sleep seams",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !analysis.ImportsPath(pass.Files, analysis.TelemetryPath) {
		return nil, nil
	}
	for _, f := range pass.Files {
		banned := bannedAlways
		where := "telemetry-instrumented package"
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			banned = bannedInTests
			where = "test of a telemetry-instrumented package"
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !banned[fn.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s in a %s: use the virtual clock (telemetry.NewVirtualClock) or an injected Sleep seam",
				fn.Name(), where)
			return true
		})
	}
	return nil, nil
}
