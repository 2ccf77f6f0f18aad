package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader type-checks module packages from source. Imports of other
// module packages resolve recursively through the loader itself (base
// files only — imported packages never include test files, and Go's
// cycle rules guarantee nothing a package imports can import it back,
// so every import path maps to exactly one types.Package instance);
// everything else (the standard library) resolves through the go/
// importer source importer sharing the same FileSet.
type Loader struct {
	root       string
	modulePath string
	fset       *token.FileSet
	std        types.ImporterFrom
	pkgs       map[string]*types.Package
	loading    map[string]bool
}

// NewLoader opens the module rooted at dir (which must contain go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		root:       root,
		modulePath: modPath,
		fset:       fset,
		pkgs:       make(map[string]*types.Package),
		loading:    make(map[string]bool),
	}
	src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	l.std = src
	return l, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w (mocvet must run at a module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Root returns the absolute module root directory.
func (l *Loader) Root() string { return l.root }

// ModulePath returns the module's import-path prefix.
func (l *Loader) ModulePath() string { return l.modulePath }

// Fset returns the FileSet shared by every loaded package.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom, routing module-local paths
// to source directories and all else to the stdlib source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		return l.importModule(path)
	}
	return l.std.ImportFrom(path, dir, mode)
}

// importModule type-checks (and caches) a module package's base files.
func (l *Loader) importModule(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	files, _, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg, err := l.check(path, files, nil)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// dirFor maps a module import path to its source directory.
func (l *Loader) dirFor(path string) string {
	if path == l.modulePath {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modulePath+"/")))
}

// PathFor maps a directory under the module root to its import path.
func (l *Loader) PathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.root)
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// parseDir parses every .go file in dir (no recursion) that the go
// command would build here — build constraints and GOOS/GOARCH file
// suffixes apply, so a file behind a GOEXPERIMENT tag is analyzed only
// under that experiment — split into base files, in-package test files,
// and external (_test package) test files.
func (l *Loader) parseDir(dir string) (base, intest, xtest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, nil, nil, err
		}
		if match {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var basePkgName string
	for _, n := range names {
		f, perr := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, nil, nil, perr
		}
		switch {
		case !strings.HasSuffix(n, "_test.go"):
			base = append(base, f)
			basePkgName = f.Name.Name
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtest = append(xtest, f)
		default:
			intest = append(intest, f)
		}
	}
	// A directory holding only test files: the in-package split above
	// keyed off the base package name being absent, which is fine —
	// callers treat intest files as part of the base unit.
	_ = basePkgName
	return base, intest, xtest, nil
}

// check runs the type checker over files as package path. info, when
// non-nil, receives the unit's type facts.
func (l *Loader) check(path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	return pkg, nil
}

// Unit is one type-checked body of code an analyzer runs over: a
// package together with its in-package test files, or a directory's
// external _test package.
type Unit struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// newInfo allocates the full types.Info map set.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// LoadDir type-checks the package in dir and returns its analysis
// units: the base package augmented with in-package test files, plus
// (when present) the external test package. Either unit may be absent.
func (l *Loader) LoadDir(dir string) ([]*Unit, error) {
	path, err := l.PathFor(dir)
	if err != nil {
		return nil, err
	}
	base, intest, xtest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var units []*Unit
	if files := append(append([]*ast.File{}, base...), intest...); len(files) > 0 {
		info := newInfo()
		pkg, err := l.check(path, files, info)
		if err != nil {
			return nil, err
		}
		if len(intest) == 0 {
			// Pure base unit: seed the import cache so later imports of
			// this path reuse the very same instance.
			if _, ok := l.pkgs[path]; !ok {
				l.pkgs[path] = pkg
			}
		}
		units = append(units, &Unit{Path: path, Files: files, Pkg: pkg, Info: info})
	}
	if len(xtest) > 0 {
		info := newInfo()
		pkg, err := l.check(path+"_test", xtest, info)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{Path: path + "_test", Files: xtest, Pkg: pkg, Info: info})
	}
	return units, nil
}
