package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one type-checked body of code an analyzer runs over: a package
// together with its in-package test files, or a package's external test
// package (the *_test.go files declaring package foo_test). Test files
// are included deliberately — clockuse exists precisely to police tests.
type Unit struct {
	// ImportPath is the package's import path. External test units share
	// the base package's path (their files are all *_test.go, which is how
	// analyzers that exempt tests recognise them).
	ImportPath string
	// Dir is the package directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// listedPackage is the slice of `go list -json` output the loader reads.
type listedPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Incomplete   bool
	Error        *struct{ Err string }
}

// Load enumerates the packages matching patterns (go list syntax, e.g.
// "./...") relative to dir and type-checks each, returning one Unit per
// package plus one per non-empty external test package. All units share
// one FileSet. Load fails on the first package that does not type-check:
// the analyzers assume well-typed input, and the repository gates on
// `go build ./...` anyway.
func Load(dir string, patterns ...string) ([]*Unit, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"list", "-json"}, patterns...)...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}

	fset := token.NewFileSet()
	imp := newChainImporter(fset)
	var units []*Unit
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("analysis: %s: cgo packages are not supported", p.ImportPath)
		}
		if len(p.GoFiles)+len(p.TestGoFiles) > 0 {
			u, err := checkUnit(fset, imp, p.ImportPath, p.Dir, append(p.GoFiles, p.TestGoFiles...))
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
		if len(p.XTestGoFiles) > 0 {
			u, err := checkUnit(fset, imp, p.ImportPath, p.Dir, p.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
	}
	return units, nil
}

// LoadDir parses and type-checks every .go file directly inside dir as a
// single package under the given import path — the fixture loader behind
// analysistest. dir must sit inside the module so imports of real module
// packages resolve.
func LoadDir(dir, importPath string) (*Unit, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	sort.Strings(files)
	fset := token.NewFileSet()
	return checkUnit(fset, newChainImporter(fset), importPath, dir, files)
}

// checkUnit parses the named files from dir and type-checks them as one
// package.
func checkUnit(fset *token.FileSet, imp types.ImporterFrom, importPath, dir string, names []string) (*Unit, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: &srcDirImporter{imp: imp, srcDir: dir},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(importPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: %s does not type-check: %v", importPath, typeErrs[0])
	}
	return &Unit{ImportPath: importPath, Dir: dir, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// chainImporter resolves imports from source via the stdlib "source"
// importer (go/internal/srcimporter), which understands module
// resolution through go/build. One instance is shared across all units
// of a Load so stdlib and module dependencies are type-checked once.
func newChainImporter(fset *token.FileSet) types.ImporterFrom {
	imp := importer.ForCompiler(fset, "source", nil)
	from, ok := imp.(types.ImporterFrom)
	if !ok {
		// The source importer has implemented ImporterFrom since it
		// appeared; this is a belt-and-braces fallback, not a real path.
		return fallbackImporter{imp}
	}
	return from
}

type fallbackImporter struct{ imp types.Importer }

func (f fallbackImporter) Import(path string) (*types.Package, error) { return f.imp.Import(path) }
func (f fallbackImporter) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	return f.imp.Import(path)
}

// srcDirImporter pins the srcDir of every import to the importing
// package's directory, so module-relative resolution works regardless of
// the process working directory (go test runs with the package dir as
// cwd; cmd/vdolint runs from wherever the user invoked it).
type srcDirImporter struct {
	imp    types.ImporterFrom
	srcDir string
}

func (s *srcDirImporter) Import(path string) (*types.Package, error) {
	return s.imp.ImportFrom(path, s.srcDir, 0)
}

// LookupImport returns the named package from pkg's transitive import
// graph, or pkg itself when it has that path. Analyzers use it to fetch
// contract types (core.ContextChecker, telemetry.Span, ...) from the
// same type universe as the code under analysis, which keeps
// types.Implements sound. Returns nil when the package is not imported —
// in which case the contract cannot be referenced and there is nothing
// to check.
func LookupImport(pkg *types.Package, path string) *types.Package {
	if pkg == nil {
		return nil
	}
	if pkg.Path() == path {
		return pkg
	}
	seen := map[*types.Package]bool{pkg: true}
	queue := append([]*types.Package{}, pkg.Imports()...)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if seen[p] {
			continue
		}
		seen[p] = true
		if p.Path() == path {
			return p
		}
		queue = append(queue, p.Imports()...)
	}
	return nil
}
