package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Config selects what Run checks.
type Config struct {
	// Root is the module root (a directory containing go.mod).
	Root string
	// Patterns are package patterns relative to Root: a directory
	// ("./internal/storage"), or a recursive pattern ("./..." or
	// "./internal/..."). Defaults to "./...". Recursive patterns skip
	// testdata, hidden, and underscore directories — naming a testdata
	// directory explicitly still works, which is how the golden tests
	// target violation fixtures.
	Patterns []string
	// Analyzers defaults to Registry().
	Analyzers []*Analyzer
}

// Run loads every matched package (test files included) and applies
// the analyzer suite, returning suppression-filtered diagnostics
// sorted by position with file paths relative to the module root.
func Run(cfg Config) ([]Diagnostic, error) {
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = []string{"./..."}
	}
	if len(cfg.Analyzers) == 0 {
		cfg.Analyzers = Registry()
	}
	loader, err := NewLoader(cfg.Root)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(loader.Root(), cfg.Patterns)
	if err != nil {
		return nil, err
	}
	var all []Diagnostic
	for _, dir := range dirs {
		units, err := loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			all = append(all, runUnit(loader, u, cfg.Analyzers)...)
		}
	}
	relativize(loader.Root(), all)
	sortDiagnostics(all)
	return all, nil
}

// runUnit applies the analyzers to one unit and filters suppressed
// findings.
func runUnit(loader *Loader, u *Unit, analyzers []*Analyzer) []Diagnostic {
	sup := collectSuppressions(loader.Fset(), u.Files, analyzers)
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       loader.Fset(),
			Files:      u.Files,
			Pkg:        u.Pkg,
			Info:       u.Info,
			ModulePath: loader.ModulePath(),
			diags:      &raw,
		}
		a.Run(pass)
	}
	kept := append([]Diagnostic{}, sup.malformed...)
	for _, d := range raw {
		if !sup.suppressed(d, d.pos) {
			kept = append(kept, d)
		}
	}
	return kept
}

// expandPatterns resolves package patterns to package directories.
func expandPatterns(root string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, base)
		}
		info, err := os.Stat(base)
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("analysis: no such package directory: %s", pat)
		}
		if !recursive {
			if !hasGoFiles(base) {
				return nil, fmt.Errorf("analysis: no Go files in %s", pat)
			}
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains at least one
// buildable .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasPrefix(n, ".") && !strings.HasPrefix(n, "_") {
			return true
		}
	}
	return false
}

// jsonReport is the stable schema emitted by `mocvet -json`: the
// diagnostic list plus its count.
type jsonReport struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	Count       int          `json:"count"`
}

// MarshalJSONReport renders diagnostics in the stable -json schema.
func MarshalJSONReport(diags []Diagnostic) ([]byte, error) {
	rep := jsonReport{Diagnostics: diags, Count: len(diags)}
	if rep.Diagnostics == nil {
		rep.Diagnostics = []Diagnostic{}
	}
	return json.MarshalIndent(rep, "", "  ")
}
