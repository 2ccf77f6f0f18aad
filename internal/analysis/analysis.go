// Package analysis is moc's project-invariant static-analysis
// framework: it loads every package in the module (including test
// files) with go/parser + go/types — no dependencies outside the
// standard library — and runs a registry of analyzers that
// mechanically enforce contracts the storage stack otherwise states
// only in comments: Put does not retain its input, Adopt is the one
// hand-off that does, the cas.Options.Guard RLock/Lock discipline,
// GetBuf/PutBuf pairing, and the ban on wall-clock calls in the
// deterministic packages (the simulated timelines and the seeded
// training stack).
//
// Diagnostics are suppressible per site with a directive comment:
//
//	//moc:allow <analyzer> <reason>
//
// placed on the flagged line, the line above it, or in the doc comment
// of the enclosing function (which suppresses the analyzer for the
// whole function). The reason is mandatory — a bare directive is
// itself a diagnostic — so every suppression documents why the
// invariant does not apply.
//
// The suite is wired into CI and run by cmd/mocvet.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// Analyzer is one project-invariant check. Run inspects a single
// type-checked unit (a package, its in-package test files included, or
// an external _test package) and reports diagnostics through the pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -list output, and
	// //moc:allow directives.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run performs the check.
	Run func(*Pass)
}

// Pass carries one type-checked unit through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// ModulePath is the module's import-path prefix ("moc"), letting
	// analyzers name project packages without hard-coding the module.
	ModulePath string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		pos:      pos,
	})
}

// Diagnostic is one finding. File is reported relative to the module
// root; the JSON field set is the stable `mocvet -json` schema.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`

	// pos is the original token position, kept for suppression-range
	// checks; it is deliberately absent from the JSON schema.
	pos token.Pos
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// relativize rewrites diagnostic file names relative to root.
func relativize(root string, diags []Diagnostic) {
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil {
			diags[i].File = filepath.ToSlash(rel)
		}
	}
}

// Registry returns the full analyzer suite in stable order.
func Registry() []*Analyzer {
	return []*Analyzer{
		WalltimeAnalyzer,
		LockDisciplineAnalyzer,
		BufPoolAnalyzer,
		RetainPutAnalyzer,
		ErrCmpAnalyzer,
		SpanEndAnalyzer,
	}
}

// Lookup returns the registered analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range Registry() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
