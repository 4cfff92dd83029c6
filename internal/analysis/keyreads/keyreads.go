// Package keyreads verifies the declared-reads contract behind
// push-mode evaluation: every core.KeyReader's CheckStateKeys() must
// cover each host-state slot its Check/CheckCtx body actually reads.
// Since PR 7 the fleet's reverse dependency index (fleet.BuildDepIndex)
// re-evaluates a check only when an event touches one of its declared
// keys — an under-declared read means push-mode verdicts silently go
// stale, the exact unsoundness the sweep-vs-push fuzzer can only catch
// by luck.
//
// For every named type of the package implementing core.Checkable or
// core.ContextChecker (methods declared in this package's non-test
// files), the analyzer compares the interprocedural read-effect summary
// of Check/CheckCtx (analysis.Summarizer: host accessor calls with
// symbolic key terms, helper indirection inlined bottom-up over the
// intra-package call graph) against the key terms CheckStateKeys
// returns. A declared key has one form, a host key-constructor call
// (host.PackageKey(name), host.ConfigKey(file, key), host.NetKey(), …),
// found in composite literals, locals built with append, and
// same-package helper returns followed with argument substitution.
// Verdicts:
//
//   - a provable read no declared key covers → ERROR (push-mode
//     unsoundness);
//   - a whole-inventory read (Packages, Subcategories) by a KeyReader →
//     ERROR (per-key declarations cannot cover it);
//   - a read with a key the analyzer cannot resolve, or a call it
//     cannot follow that receives a host value → warning;
//   - a declared key the body never provably reads → warning
//     (over-declaration: stale fan-out re-runs the check needlessly);
//   - a declared key the analyzer cannot resolve → warning;
//   - a Checkable that reads host state but implements no KeyReader at
//     all → warning (conservative every-delta fan-out, see
//     fleet.DepIndex.Unindexed).
//
// Known limits: the summarizer follows same-package calls only (bounded
// depth); host state reached through function values that close over a
// host, or through helpers in other packages, is invisible — the
// dynamic host.ReadRecorder oracle (make verify-reads) covers that
// hole. Keys read under short-circuit conditions are still required to
// be declared: the index must be sound for every reachable path.
package keyreads

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"veridevops/internal/analysis"
	"veridevops/internal/host"
)

// Analyzer is the keyreads pass.
var Analyzer = &analysis.Analyzer{
	Name: "keyreads",
	Doc:  "CheckStateKeys() must declare every host-state slot Check/CheckCtx reads (push-mode soundness)",
	Run:  run,
}

// keyCtors maps host key-constructor names to the kind they build and
// their arity. A constructor's arguments, joined with ":", form the
// key's name; name is the fixed name of a constructor without any.
var keyCtors = map[string]struct {
	kind string
	args int
	name string
}{
	"PackageKey":  {host.KeyPackage, 1, ""},
	"ServiceKey":  {host.KeyService, 1, ""},
	"ConfigKey":   {host.KeyConfig, 2, ""},
	"AuditKey":    {host.KeyAudit, 1, ""},
	"RegistryKey": {host.KeyRegistry, 1, ""},
	"NetKey":      {host.KeyNet, 0, host.NetKey().Name},
}

func run(pass *analysis.Pass) (any, error) {
	checkable := analysis.InterfaceType(pass.Pkg, analysis.CorePath, "Checkable")
	ctxChecker := analysis.InterfaceType(pass.Pkg, analysis.CorePath, "ContextChecker")
	keyReader := analysis.InterfaceType(pass.Pkg, analysis.CorePath, "KeyReader")
	if checkable == nil || keyReader == nil {
		return nil, nil // package cannot reference the contract
	}
	sum := analysis.NewSummarizer(pass)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if !analysis.ImplementsIface(named, checkable) && !analysis.ImplementsIface(named, ctxChecker) {
			continue
		}
		checkType(pass, sum, named, keyReader)
	}
	return nil, nil
}

// methodDecl resolves the declaration of the named method in the
// receiver type's method set, nil when the method is absent, promoted
// from another package, or declared in a test file.
func methodDecl(pass *analysis.Pass, sum *analysis.Summarizer, named *types.Named, name string) (*types.Func, *ast.FuncDecl) {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, pass.Pkg, name)
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil, nil
	}
	return fn, sum.Decl(fn)
}

func checkType(pass *analysis.Pass, sum *analysis.Summarizer, named *types.Named, keyReader *types.Interface) {
	checkFn, checkDecl := methodDecl(pass, sum, named, "Check")
	ctxFn, ctxDecl := methodDecl(pass, sum, named, "CheckCtx")
	if checkDecl == nil && ctxDecl == nil {
		return // methods promoted, embedded-interface, or test-only: out of scope
	}
	var reads []analysis.Read
	if checkDecl != nil {
		reads = mergeReads(reads, sum.Summarize(checkFn).Reads)
	}
	if ctxDecl != nil {
		reads = mergeReads(reads, sum.Summarize(ctxFn).Reads)
	}
	typeName := named.Obj().Name()

	if !analysis.ImplementsIface(named, keyReader) {
		if len(reads) > 0 {
			decl := checkDecl
			if decl == nil {
				decl = ctxDecl
			}
			pass.Warnf(decl.Name.Pos(),
				"%s reads host state (%s) but implements no core.KeyReader: push-mode evaluation must conservatively re-run it on every event of its host",
				typeName, readList(reads))
		}
		return
	}

	_, keysDecl := methodDecl(pass, sum, named, "CheckStateKeys")
	if keysDecl == nil {
		return // promoted declaration: the defining package's pass verifies it
	}
	declared := declaredKeys(pass, sum, keysDecl, 0)

	declResolved := true
	for _, d := range declared {
		if !d.Resolved() {
			declResolved = false
		}
	}
	readsResolved := true
	for _, r := range reads {
		if !r.Resolved() {
			readsResolved = false
		}
	}

	used := make([]bool, len(declared))
	for _, r := range reads {
		via := ""
		if r.Path != "" {
			via = " (via " + r.Path + ")"
		}
		switch {
		case r.Whole:
			pass.Reportf(r.Pos,
				"%s reads the whole %q inventory%s: no per-key CheckStateKeys declaration can cover it, so push-mode evaluation is unsound for this check",
				typeName, r.Kind, via)
		case r.Opaque && r.Kind == "":
			pass.Warnf(r.Pos,
				"%s may read host state through a call the analyzer cannot follow%s: declared reads cannot be verified statically (run the dynamic oracle: make verify-reads)",
				typeName, via)
		case !r.Resolved():
			pass.Warnf(r.Pos,
				"%s reads a %q key the analyzer cannot resolve (%s)%s: cannot prove it is declared in CheckStateKeys",
				typeName, r.Kind, r.Key(), via)
		default:
			matched := false
			for i, d := range declared {
				if d.Resolved() && r.Matches(d) {
					used[i] = true
					matched = true
				}
			}
			if matched {
				continue
			}
			if declResolved {
				pass.Reportf(r.Pos,
					"%s reads %s%s but CheckStateKeys does not declare it: push-mode evaluation will miss changes to this slot (under-declaration)",
					typeName, r.Key(), via)
			} else {
				pass.Warnf(r.Pos,
					"%s reads %s%s which no resolvable declared key covers",
					typeName, r.Key(), via)
			}
		}
	}
	for i, d := range declared {
		if !d.Resolved() {
			pass.Warnf(d.Pos,
				"%s declares a state key the analyzer cannot resolve (%s): cannot verify it against Check's reads",
				typeName, d.Key())
			continue
		}
		if used[i] || !readsResolved {
			continue
		}
		pass.Warnf(d.Pos,
			"%s declares %s which Check never reads: events on this key re-run the check needlessly (over-declaration)",
			typeName, d.Key())
	}
}

// mergeReads unions summaries, deduplicating structurally equal terms
// (Check delegating to CheckCtx would otherwise double every read).
func mergeReads(dst, src []analysis.Read) []analysis.Read {
	for _, r := range src {
		dup := false
		for _, have := range dst {
			if have.Opaque == r.Opaque && have.Matches(r) {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, r)
		}
	}
	return dst
}

// readList renders distinct read keys for the no-KeyReader warning.
func readList(reads []analysis.Read) string {
	seen := map[string]bool{}
	var keys []string
	for _, r := range reads {
		k := r.Key()
		if r.Opaque && r.Kind == "" {
			k = "unresolvable call"
		}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// maxDeclDepth bounds helper recursion on the declaration side.
const maxDeclDepth = 3

// declaredKeys parses the key terms a CheckStateKeys body returns:
// composite literals (directly, via a local built with append, or via a
// same-package helper call with arguments substituted), each element a
// host key-constructor call. Unparseable shapes degrade to opaque
// terms, never to silence.
func declaredKeys(pass *analysis.Pass, sum *analysis.Summarizer, fd *ast.FuncDecl, depth int) []analysis.Read {
	fr := analysis.NewFrame(pass.TypesInfo, fd)
	var out []analysis.Read
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) != 1 {
			return true
		}
		out = append(out, resultTerms(pass, sum, fd, fr, ret.Results[0], depth)...)
		return true
	})
	return out
}

// resultTerms expands one returned expression into key terms.
func resultTerms(pass *analysis.Pass, sum *analysis.Summarizer, fd *ast.FuncDecl, fr *analysis.Frame, e ast.Expr, depth int) []analysis.Read {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CompositeLit:
		var out []analysis.Read
		for _, elt := range x.Elts {
			out = append(out, keyTerm(pass, sum, fr, elt))
		}
		return out
	case *ast.Ident:
		if pass.TypesInfo.Types[x].IsNil() {
			return nil
		}
		obj := pass.TypesInfo.Uses[x]
		if v, ok := obj.(*types.Var); ok {
			if terms, ok := localSliceTerms(pass, sum, fd, fr, v, depth); ok {
				return terms
			}
		}
	case *ast.CallExpr:
		if callee := analysis.CalleeFunc(pass.TypesInfo, x); callee != nil && callee.Pkg() == pass.Pkg && depth < maxDeclDepth {
			if inner := sum.Decl(callee); inner != nil {
				calleeTerms := declaredKeys(pass, sum, inner, depth+1)
				recvTerm := sum.CallRecvTerm(x, fr)
				var out []analysis.Read
				for _, t := range calleeTerms {
					nt := analysis.Read{Kind: t.Kind, Whole: t.Whole, Opaque: t.Opaque, Pos: e.Pos()}
					for _, p := range t.Parts {
						nt.Parts = append(nt.Parts, sum.SubstituteAtCall(p, x, recvTerm, fr)...)
					}
					nt.Parts = analysis.NormalizeParts(nt.Parts)
					out = append(out, nt)
				}
				return out
			}
		}
	}
	return []analysis.Read{{Opaque: true, Pos: e.Pos()}}
}

// localSliceTerms follows a returned local slice variable: its
// initializing composite literal plus every append(x, ...) element in
// the function body.
func localSliceTerms(pass *analysis.Pass, sum *analysis.Summarizer, fd *ast.FuncDecl, fr *analysis.Frame, v *types.Var, depth int) ([]analysis.Read, bool) {
	var out []analysis.Read
	found := false
	resolvedAll := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 {
			return true
		}
		id, ok := asg.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if pass.TypesInfo.Defs[id] != v && pass.TypesInfo.Uses[id] != v {
			return true
		}
		found = true
		rhs := ast.Unparen(asg.Rhs[0])
		switch r := rhs.(type) {
		case *ast.CompositeLit:
			for _, elt := range r.Elts {
				out = append(out, keyTerm(pass, sum, fr, elt))
			}
		case *ast.CallExpr:
			// append(x, elems...) keeps the accumulator shape; anything
			// else makes the slice unresolvable.
			if fun, ok := r.Fun.(*ast.Ident); ok && fun.Name == "append" && len(r.Args) > 0 && r.Ellipsis == 0 {
				for _, elt := range r.Args[1:] {
					out = append(out, keyTerm(pass, sum, fr, elt))
				}
			} else {
				resolvedAll = false
			}
		default:
			if !pass.TypesInfo.Types[rhs].IsNil() {
				resolvedAll = false
			}
		}
		return true
	})
	if !found {
		return nil, false
	}
	if !resolvedAll {
		out = append(out, analysis.Read{Opaque: true, Pos: fd.Pos()})
	}
	return out, true
}

// keyTerm parses one declared key: a host key-constructor call whose
// arguments become the parts of the key's name. Any other expression is
// an opaque term.
func keyTerm(pass *analysis.Pass, sum *analysis.Summarizer, fr *analysis.Frame, e ast.Expr) analysis.Read {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if ctor := analysis.CalleeFunc(pass.TypesInfo, call); ctor != nil &&
			ctor.Pkg() != nil && ctor.Pkg().Path() == analysis.HostPath {
			if spec, ok := keyCtors[ctor.Name()]; ok && len(call.Args) == spec.args {
				r := analysis.Read{Kind: spec.kind, Parts: []analysis.Part{analysis.ConstPart(spec.name)}, Pos: e.Pos()}
				for i, arg := range call.Args {
					if i > 0 {
						r.Parts = append(r.Parts, analysis.ConstPart(":"))
					}
					r.Parts = append(r.Parts, sum.ExprTerm(arg, fr)...)
				}
				r.Parts = analysis.NormalizeParts(r.Parts)
				return r
			}
		}
	}
	return analysis.Read{Opaque: true, Pos: e.Pos()}
}
