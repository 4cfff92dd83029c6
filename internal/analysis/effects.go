package analysis

// Read-effect summaries: bounded interprocedural support for analyzers
// that reason about which host-state slots a function reads. The
// Summarizer computes, per function, the set of host accessor calls the
// function transitively performs — `host.Linux.Installed(name)`,
// `host.Windows.GetAudit(sub)`, … — with one-level-per-edge constant
// propagation of the key arguments, generalizing reqmeta's call-site
// propagation: at each intra-package call edge, parameter references in
// the callee's summary are substituted with the caller's argument terms
// and receiver-field paths are re-rooted through the caller's receiver
// expression, so helper-method indirection does not blind the analyzer.
//
// A summarized read is a symbolic key term: a Kind (host.KeyPackage &c.)
// plus a sequence of Parts, each a constant string, a field path rooted
// at the summarized function's receiver, a parameter placeholder, or
// opaque. Whole-inventory accessors (Packages, Subcategories) and calls
// the summarizer cannot follow (function values, out-of-package helpers
// that receive a host) surface as Whole/Opaque reads so clients can
// degrade to warnings instead of silently missing state access.
//
// Soundness boundary: host state is only reachable through host-typed
// values (*host.Linux, *host.Windows, host.AuditPol), so unknown calls
// that receive no host-typed value are assumed read-free. Function
// values that close over a host are the one hole; the dynamic
// ReadRecorder oracle covers it.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"veridevops/internal/host"
)

// Part is one symbolic component of a key term.
type Part struct {
	// Const is the literal text when the part is a resolved constant
	// (Param < 0, Fields empty, !Opaque).
	Const string
	// Fields is a field path: rooted at the summarized function's
	// receiver when Param < 0, or at the Param-th flattened parameter
	// otherwise. Compared by field-object identity, which is shared
	// across all methods of the type.
	Fields []*types.Var
	// Param is the flattened parameter index of the summarized function
	// the value flows from, or -1.
	Param int
	// Opaque marks a value the summarizer could not resolve.
	Opaque bool
}

// ConstPart builds a resolved constant part.
func ConstPart(s string) Part { return Part{Const: s, Param: -1} }

// OpaquePart is the unresolvable part.
func OpaquePart() Part { return Part{Param: -1, Opaque: true} }

// Resolved reports whether the part is a provable value: a constant or
// a receiver-field path (field values are fixed for a given receiver, so
// they can be matched against the same path in CheckStateKeys).
func (p Part) Resolved() bool { return !p.Opaque && p.Param < 0 }

// Equal compares parts structurally; field paths compare by object
// identity.
func (p Part) Equal(q Part) bool {
	if p.Opaque != q.Opaque || p.Param != q.Param || p.Const != q.Const || len(p.Fields) != len(q.Fields) {
		return false
	}
	for i := range p.Fields {
		if p.Fields[i] != q.Fields[i] {
			return false
		}
	}
	return true
}

func (p Part) String() string {
	switch {
	case p.Opaque:
		return "<?>"
	case p.Param >= 0 && len(p.Fields) > 0:
		return fmt.Sprintf("<arg%d.%s>", p.Param, fieldPath(p.Fields))
	case p.Param >= 0:
		return fmt.Sprintf("<arg%d>", p.Param)
	case len(p.Fields) > 0:
		return "<." + fieldPath(p.Fields) + ">"
	default:
		return p.Const
	}
}

func fieldPath(fields []*types.Var) string {
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.Name()
	}
	return strings.Join(names, ".")
}

// Read is one summarized host-state access (or one declared key term,
// when built by clients from CheckStateKeys).
type Read struct {
	Kind  string
	Parts []Part
	// Whole marks a whole-inventory access (Packages, Subcategories)
	// that no per-key declaration can cover.
	Whole bool
	// Opaque marks a call that may read host state but could not be
	// summarized.
	Opaque bool
	// Pos is the call position in the outermost summarized function.
	Pos token.Pos
	// Path is the call chain from the summarized function to the access,
	// e.g. "CheckCtx → requireInstalled", empty for direct accesses.
	Path string
}

// Resolved reports whether every part of the term is provable and the
// read is neither whole-inventory nor opaque.
func (r Read) Resolved() bool {
	if r.Whole || r.Opaque {
		return false
	}
	for _, p := range r.Parts {
		if !p.Resolved() {
			return false
		}
	}
	return true
}

// Key renders the term in StateKey notation ("pkg:<.PackageName>",
// "cfg:/etc/ssh/sshd_config:PermitRootLogin") for diagnostics.
func (r Read) Key() string {
	if r.Whole {
		return r.Kind + ":*"
	}
	if r.Opaque && len(r.Parts) == 0 {
		return r.Kind + ":<?>"
	}
	var b strings.Builder
	b.WriteString(r.Kind)
	b.WriteString(":")
	for _, p := range r.Parts {
		b.WriteString(p.String())
	}
	return b.String()
}

// Matches reports whether two resolved terms denote the same key: same
// kind and structurally equal normalized parts.
func (r Read) Matches(d Read) bool {
	if r.Kind != d.Kind || r.Whole != d.Whole {
		return false
	}
	a, b := NormalizeParts(r.Parts), NormalizeParts(d.Parts)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// NormalizeParts merges adjacent constant parts and drops empty
// constants, so "a"+"b" and "ab" compare equal.
func NormalizeParts(parts []Part) []Part {
	var out []Part
	for _, p := range parts {
		if p.Resolved() && len(p.Fields) == 0 {
			if p.Const == "" {
				continue
			}
			if n := len(out); n > 0 && out[n-1].Resolved() && len(out[n-1].Fields) == 0 {
				out[n-1].Const += p.Const
				continue
			}
		}
		out = append(out, p)
	}
	return out
}

// Summary is the read-effect set of one function, in that function's own
// frame: parts may reference its receiver fields and parameters.
type Summary struct {
	Reads []Read
}

// maxSummaryDepth bounds the intra-package call-graph walk; chains
// deeper than this (and cycles) summarize as opaque.
const maxSummaryDepth = 8

// accessorSpec describes one host read accessor: the receiver type name
// in internal/host, the key kind, and which flattened argument indices
// form the key (joined with ":" for multi-part keys like cfg). whole
// marks inventory accessors.
type accessorSpec struct {
	recv  string
	kind  string
	args  []int
	whole bool
}

// hostAccessors maps method name → candidate specs (names are unique
// across host types today, but keep a slice for safety).
var hostAccessors = map[string][]accessorSpec{
	"Installed":        {{recv: "Linux", kind: host.KeyPackage, args: []int{0}}},
	"InstalledCtx":     {{recv: "Linux", kind: host.KeyPackage, args: []int{1}}},
	"Version":          {{recv: "Linux", kind: host.KeyPackage, args: []int{0}}},
	"Packages":         {{recv: "Linux", kind: host.KeyPackage, whole: true}},
	"ServiceActive":    {{recv: "Linux", kind: host.KeyService, args: []int{0}}},
	"ServiceActiveCtx": {{recv: "Linux", kind: host.KeyService, args: []int{1}}},
	"Config":           {{recv: "Linux", kind: host.KeyConfig, args: []int{0, 1}}},
	"ConfigCtx":        {{recv: "Linux", kind: host.KeyConfig, args: []int{1, 2}}},
	"GetAudit":         {{recv: "Windows", kind: host.KeyAudit, args: []int{0}}},
	"Subcategories":    {{recv: "Windows", kind: host.KeyAudit, whole: true}},
	"Registry":         {{recv: "Windows", kind: host.KeyRegistry, args: []int{0}}},
}

// hostTypeNames are the named types through which host state is
// reachable; a call is only suspicious when one of these flows into it.
var hostTypeNames = []string{"Linux", "Windows", "AuditPol"}

// Frame is the symbolic evaluation context of one function: its receiver
// object and the flattened index of each named parameter.
type Frame struct {
	Recv   types.Object
	Params map[types.Object]int
}

// NewFrame builds the frame of a declared function.
func NewFrame(info *types.Info, fd *ast.FuncDecl) *Frame {
	fr := &Frame{Params: map[types.Object]int{}}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		fr.Recv = info.Defs[fd.Recv.List[0].Names[0]]
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				fr.Params[obj] = i
			}
			i++
		}
	}
	return fr
}

// Summarizer computes memoized bottom-up read-effect summaries over the
// intra-package call graph of one pass.
type Summarizer struct {
	pass   *Pass
	decls  map[*types.Func]*ast.FuncDecl
	cache  map[*types.Func]*Summary
	active map[*types.Func]bool
}

// NewSummarizer indexes the function declarations of the pass's non-test
// files. Test-file helpers are invisible: production checks cannot call
// them, and test-only checks are out of scope.
func NewSummarizer(pass *Pass) *Summarizer {
	s := &Summarizer{
		pass:   pass,
		decls:  map[*types.Func]*ast.FuncDecl{},
		cache:  map[*types.Func]*Summary{},
		active: map[*types.Func]bool{},
	}
	for _, f := range pass.Files {
		if IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				s.decls[fn] = fd
			}
		}
	}
	return s
}

// Decl returns the indexed declaration of fn, nil when fn is not a
// non-test function of this package.
func (s *Summarizer) Decl(fn *types.Func) *ast.FuncDecl { return s.decls[fn] }

// Summarize returns fn's read-effect summary in fn's own frame. Unknown
// functions summarize as empty (the host-typed-value heuristic at call
// sites covers them).
func (s *Summarizer) Summarize(fn *types.Func) *Summary {
	if sum, ok := s.cache[fn]; ok {
		return sum
	}
	fd := s.decls[fn]
	if fd == nil {
		return &Summary{}
	}
	if s.active[fn] || len(s.active) >= maxSummaryDepth {
		// Cycle or depth blowout: this frame may read anything.
		return &Summary{Reads: []Read{{Opaque: true, Pos: fd.Pos(), Path: fn.Name()}}}
	}
	s.active[fn] = true
	sum := &Summary{}
	fr := NewFrame(s.pass.TypesInfo, fd)
	// Walk the whole body including FuncLits and defers: a deferred
	// closure's reads happen during the call, in the same frame.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			s.call(call, fr, sum)
		}
		return true
	})
	delete(s.active, fn)
	s.cache[fn] = sum
	return sum
}

// call summarizes one call expression into out, in the caller frame fr.
func (s *Summarizer) call(call *ast.CallExpr, fr *Frame, out *Summary) {
	callee := CalleeFunc(s.pass.TypesInfo, call)
	if callee == nil {
		// Function value, interface method, conversion or builtin. Only
		// suspicious when a host-typed value flows in.
		if s.hostValueFlows(call) {
			out.Reads = append(out.Reads, Read{Opaque: true, Pos: call.Pos()})
		}
		return
	}
	if callee.Pkg() != nil && callee.Pkg().Path() == HostPath {
		s.hostCall(call, callee, fr, out)
		return
	}
	if callee.Pkg() == s.pass.Pkg {
		if inner := s.decls[callee]; inner != nil {
			s.inline(call, callee, fr, out)
			return
		}
	}
	// Out-of-package (or test-file) function: suspicious only if it
	// receives a host-typed value.
	if s.hostValueFlows(call) {
		out.Reads = append(out.Reads, Read{Opaque: true, Pos: call.Pos()})
	}
}

// hostCall maps a call to an internal/host function onto reads. Mutators
// and non-state accessors (Log, Category, ParseSetting, key
// constructors) contribute nothing.
func (s *Summarizer) hostCall(call *ast.CallExpr, callee *types.Func, fr *Frame, out *Summary) {
	recv := callee.Type().(*types.Signature).Recv()
	if recv == nil {
		return // package-level host func (NewUbuntu1804, ParseSetting, …): no reads
	}
	if NamedTypeIs(recv.Type(), HostPath, "AuditPol") && callee.Name() == "Run" {
		out.Reads = append(out.Reads, s.auditPolRun(call, fr))
		return
	}
	for _, spec := range hostAccessors[callee.Name()] {
		if !NamedTypeIs(recv.Type(), HostPath, spec.recv) {
			continue
		}
		if spec.whole {
			out.Reads = append(out.Reads, Read{Kind: spec.kind, Whole: true, Pos: call.Pos()})
			return
		}
		r := Read{Kind: spec.kind, Pos: call.Pos()}
		for i, argIdx := range spec.args {
			if i > 0 {
				r.Parts = append(r.Parts, ConstPart(":"))
			}
			if argIdx < len(call.Args) {
				r.Parts = append(r.Parts, s.ExprTerm(call.Args[argIdx], fr)...)
			} else {
				r.Parts = append(r.Parts, OpaquePart())
			}
		}
		r.Parts = NormalizeParts(r.Parts)
		out.Reads = append(out.Reads, r)
		return
	}
}

// auditPolRun models host.AuditPol.Run: "/get" with a
// "/subcategory:<name>" argument reads that audit slot (auditpol parses
// the flag and calls Windows.GetAudit); "/set" reads-then-writes the
// same slot. The subcategory argument is recognized as a constant
// "/subcategory:..." string or a fmt.Sprintf("/subcategory:%q|%s", x)
// call; anything else is an opaque audit read.
func (s *Summarizer) auditPolRun(call *ast.CallExpr, fr *Frame) Read {
	r := Read{Kind: host.KeyAudit, Pos: call.Pos()}
	for _, arg := range call.Args {
		if c, ok := s.constString(arg); ok {
			if rest, found := strings.CutPrefix(c, "/subcategory:"); found {
				r.Parts = []Part{ConstPart(strings.Trim(rest, `"`))}
				return r
			}
			continue
		}
		if sub, ok := s.sprintfSubcategory(arg, fr); ok {
			r.Parts = NormalizeParts(sub)
			return r
		}
	}
	r.Opaque = true
	return r
}

// sprintfSubcategory matches fmt.Sprintf("/subcategory:%q", x) (or %s)
// and returns the term of x. %q quoting is transparent: auditpol's
// argValue trims quotes before lookup, so the key name is x either way.
func (s *Summarizer) sprintfSubcategory(e ast.Expr, fr *Frame) ([]Part, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || !IsPkgFunc(s.pass.TypesInfo, call, "fmt", "Sprintf") || len(call.Args) != 2 {
		return nil, false
	}
	format, ok := s.constString(call.Args[0])
	if !ok || (format != "/subcategory:%q" && format != "/subcategory:%s") {
		return nil, false
	}
	return s.ExprTerm(call.Args[1], fr), true
}

// inline substitutes callee's summary into the caller frame at one call
// site: parameter placeholders become the argument terms, and
// receiver-field paths are re-rooted through the call's receiver
// expression.
func (s *Summarizer) inline(call *ast.CallExpr, callee *types.Func, fr *Frame, out *Summary) {
	sub := s.Summarize(callee)
	if len(sub.Reads) == 0 {
		return
	}
	recvTerm := s.CallRecvTerm(call, fr)
	for _, r := range sub.Reads {
		nr := Read{Kind: r.Kind, Whole: r.Whole, Opaque: r.Opaque, Pos: call.Pos(), Path: joinPath(callee.Name(), r.Path)}
		for _, p := range r.Parts {
			nr.Parts = append(nr.Parts, s.SubstituteAtCall(p, call, recvTerm, fr)...)
		}
		nr.Parts = NormalizeParts(nr.Parts)
		out.Reads = append(out.Reads, nr)
	}
}

// CallRecvTerm resolves the receiver expression of a method call to a
// single rootable part in the caller frame, nil when the call has no
// receiver or the receiver does not resolve.
func (s *Summarizer) CallRecvTerm(call *ast.CallExpr, fr *Frame) *Part {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	callee := CalleeFunc(s.pass.TypesInfo, call)
	if callee == nil || callee.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := s.ExprTerm(sel.X, fr)
	if len(t) != 1 {
		return nil
	}
	return &t[0]
}

func joinPath(name, rest string) string {
	if rest == "" {
		return name
	}
	return name + " → " + rest
}

// SubstituteAtCall maps one callee-frame part into the caller frame at
// one call site: parameter placeholders become the argument terms,
// receiver-rooted field paths are re-rooted through recvTerm.
func (s *Summarizer) SubstituteAtCall(p Part, call *ast.CallExpr, recvTerm *Part, fr *Frame) []Part {
	switch {
	case p.Opaque:
		return []Part{OpaquePart()}
	case p.Param >= 0:
		if p.Param >= len(call.Args) {
			return []Part{OpaquePart()}
		}
		arg := s.ExprTerm(call.Args[p.Param], fr)
		if len(p.Fields) == 0 {
			return arg
		}
		// Param-rooted field path: the argument term must itself be a
		// single rootable part to append the path onto.
		if len(arg) == 1 && !arg[0].Opaque && arg[0].Const == "" {
			root := arg[0]
			root.Fields = append(append([]*types.Var{}, root.Fields...), p.Fields...)
			return []Part{root}
		}
		return []Part{OpaquePart()}
	case len(p.Fields) > 0:
		// Callee-receiver-rooted path: re-root through the caller's
		// receiver expression.
		if recvTerm == nil || recvTerm.Opaque || recvTerm.Const != "" {
			return []Part{OpaquePart()}
		}
		root := *recvTerm
		root.Fields = append(append([]*types.Var{}, root.Fields...), p.Fields...)
		return []Part{root}
	default:
		return []Part{p}
	}
}

// ExprTerm evaluates an expression to its symbolic parts in frame fr:
// constant folding, string concatenation, parameter references and
// receiver/parameter-rooted field paths; anything else is opaque.
func (s *Summarizer) ExprTerm(e ast.Expr, fr *Frame) []Part {
	e = ast.Unparen(e)
	if c, ok := s.constString(e); ok {
		return []Part{ConstPart(c)}
	}
	switch x := e.(type) {
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			return NormalizeParts(append(s.ExprTerm(x.X, fr), s.ExprTerm(x.Y, fr)...))
		}
	case *ast.Ident:
		obj := s.pass.TypesInfo.Uses[x]
		if obj == nil {
			break
		}
		if fr != nil && obj == fr.Recv && fr.Recv != nil {
			return []Part{{Param: -1}} // the receiver itself: empty field path
		}
		if fr != nil {
			if idx, ok := fr.Params[obj]; ok {
				return []Part{{Param: idx}}
			}
		}
	case *ast.SelectorExpr:
		if path, ok := s.fieldPathTerm(x, fr); ok {
			return []Part{path}
		}
	}
	return []Part{OpaquePart()}
}

// fieldPathTerm resolves expr as a chain of field selections rooted at
// the frame's receiver or a parameter.
func (s *Summarizer) fieldPathTerm(sel *ast.SelectorExpr, fr *Frame) (Part, bool) {
	selInfo, ok := s.pass.TypesInfo.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return Part{}, false
	}
	field, ok := selInfo.Obj().(*types.Var)
	if !ok {
		return Part{}, false
	}
	base := s.ExprTerm(sel.X, fr)
	if len(base) != 1 || base[0].Opaque || base[0].Const != "" {
		return Part{}, false
	}
	root := base[0]
	root.Fields = append(append([]*types.Var{}, root.Fields...), field)
	return root, true
}

func (s *Summarizer) constString(e ast.Expr) (string, bool) {
	tv, ok := s.pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// hostValueFlows reports whether any argument, the receiver, or the
// called expression itself carries a host-typed value into the call.
func (s *Summarizer) hostValueFlows(call *ast.CallExpr) bool {
	exprs := make([]ast.Expr, 0, len(call.Args)+1)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		exprs = append(exprs, sel.X)
	}
	exprs = append(exprs, call.Args...)
	for _, e := range exprs {
		t := s.pass.TypesInfo.Types[e].Type
		if t == nil {
			continue
		}
		for _, name := range hostTypeNames {
			if NamedTypeIs(t, HostPath, name) {
				return true
			}
		}
	}
	return false
}
