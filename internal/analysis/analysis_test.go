package analysis

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot is the module root relative to this package directory.
const repoRoot = "../.."

// fixtureBase is the golden-fixture tree, relative to the module root.
const fixtureBase = "internal/analysis/testdata/src"

// wantRe matches expectation markers in fixture files: a trailing
// comment `// want:<analyzer>` on the line a diagnostic must anchor to.
var wantRe = regexp.MustCompile(`want:([a-z]+)`)

// wantMarkers scans a fixture directory and returns the expected
// diagnostics keyed "file.go:line:analyzer".
func wantMarkers(t *testing.T, dir string) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if !strings.Contains(text, "// want:") {
				continue
			}
			for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
				want[fmt.Sprintf("%s:%d:%s", e.Name(), line, m[1])] = true
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestGoldenFixtures runs the full registry over every analyzer's
// fixture package and requires the diagnostics to match the `want:`
// markers exactly: each bad.go site fires, each good.go shape stays
// silent, and each allow.go directive suppresses its finding. walltime
// has two packages: the clock calls that fire in its internal/simtime
// stay silent in the out-of-scope package above it.
func TestGoldenFixtures(t *testing.T) {
	fixtures := []string{"walltime", "walltime/internal/simtime", "lockdiscipline", "bufpool", "retainput", "errcmp", "spanend"}
	want := make(map[string]bool)
	var patterns []string
	for _, name := range fixtures {
		patterns = append(patterns, fixtureBase+"/"+name)
		for k := range wantMarkers(t, filepath.Join(repoRoot, fixtureBase, name)) {
			want[k] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("no want: markers found — fixture scan is broken")
	}
	diags, err := Run(Config{Root: repoRoot, Patterns: patterns})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, d := range diags {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(d.File), d.Line, d.Analyzer)] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("expected diagnostic missing: %s", k)
		}
	}
	for _, d := range diags {
		k := fmt.Sprintf("%s:%d:%s", filepath.Base(d.File), d.Line, d.Analyzer)
		if !want[k] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestMalformedDirectives checks that a reasonless //moc:allow is
// reported (and does not suppress), and that an unknown analyzer name
// in a directive is reported.
func TestMalformedDirectives(t *testing.T) {
	diags, err := Run(Config{Root: repoRoot, Patterns: []string{fixtureBase + "/directive"}})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, d := range diags {
		got[fmt.Sprintf("%s:%d", d.Analyzer, d.Line)] = true
	}
	want := []string{
		"directive:14", // //moc:allow errcmp — no reason
		"errcmp:15",    // the finding the bare directive failed to cover
		"directive:20", // //moc:allow nosuchanalyzer
	}
	for _, k := range want {
		if !got[k] {
			t.Errorf("missing %s in %v", k, diags)
		}
	}
	if len(diags) != len(want) {
		t.Errorf("got %d diagnostics, want %d: %v", len(diags), len(want), diags)
	}
}

// TestMiniModule drives the loader end to end over a synthetic module
// in a temp dir — a different module path than moc — and pins the
// -json schema: top-level {diagnostics, count}, each diagnostic
// exactly {analyzer, file, line, col, message}. Its package sits at
// internal/simtime, which the walltime analyzer checks in any module.
func TestMiniModule(t *testing.T) {
	root := t.TempDir()
	pkg := filepath.Join("internal", "simtime")
	if err := os.MkdirAll(filepath.Join(root, pkg), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(root, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module minimod\n\ngo 1.22\n")
	write(filepath.Join(pkg, "main.go"), `package mini

import (
	"errors"
	"time"
)

// ErrGone is a sentinel.
var ErrGone = errors.New("gone")

// Wait violates walltime (line 12) and errcmp (line 13).
func Wait(err error) bool {
	time.Sleep(time.Millisecond)
	return err == ErrGone
}
`)
	// A file the go command would not build is not analyzed either: this
	// one would not type-check.
	write(filepath.Join(pkg, "tagged_test.go"), `//go:build nosuchtag

package mini

import "nosuch/pkg"

func tagged() { pkg.Sleep() }
`)
	diags, err := Run(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	main := filepath.Join(pkg, "main.go")
	if diags[0].Analyzer != "walltime" || diags[0].File != main || diags[0].Line != 13 {
		t.Errorf("first diagnostic: %+v", diags[0])
	}
	if diags[1].Analyzer != "errcmp" || diags[1].File != main || diags[1].Line != 14 {
		t.Errorf("second diagnostic: %+v", diags[1])
	}

	out, err := MarshalJSONReport(diags)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(out, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top["diagnostics"] == nil || top["count"] == nil {
		t.Fatalf("top-level JSON keys changed: %s", out)
	}
	var count int
	if err := json.Unmarshal(top["count"], &count); err != nil || count != 2 {
		t.Fatalf("count = %d (%v)", count, err)
	}
	var list []map[string]json.RawMessage
	if err := json.Unmarshal(top["diagnostics"], &list); err != nil {
		t.Fatal(err)
	}
	for _, d := range list {
		for _, key := range []string{"analyzer", "file", "line", "col", "message"} {
			if d[key] == nil {
				t.Fatalf("diagnostic missing %q: %s", key, out)
			}
		}
		if len(d) != 5 {
			t.Fatalf("diagnostic key set changed (stability contract): %s", out)
		}
	}
}

// TestEmptyJSONReport pins the zero-diagnostic shape: an empty array,
// never null.
func TestEmptyJSONReport(t *testing.T) {
	out, err := MarshalJSONReport(nil)
	if err != nil {
		t.Fatal(err)
	}
	var top struct {
		Diagnostics []Diagnostic `json:"diagnostics"`
		Count       int          `json:"count"`
	}
	if err := json.Unmarshal(out, &top); err != nil {
		t.Fatal(err)
	}
	if top.Count != 0 || top.Diagnostics == nil || len(top.Diagnostics) != 0 {
		t.Fatalf("empty report shape: %s", out)
	}
	if strings.Contains(string(out), "null") {
		t.Fatalf("empty report serializes null: %s", out)
	}
}

// TestRegistryStable pins the analyzer set and its order — mocvet
// -list output and directive names depend on it.
func TestRegistryStable(t *testing.T) {
	var names []string
	for _, a := range Registry() {
		names = append(names, a.Name)
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing doc or run", a.Name)
		}
		if Lookup(a.Name) != a {
			t.Errorf("Lookup(%q) does not round-trip", a.Name)
		}
	}
	want := []string{"walltime", "lockdiscipline", "bufpool", "retainput", "errcmp", "spanend"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("registry = %v, want %v", names, want)
	}
	if Lookup("nosuch") != nil {
		t.Error("Lookup of unknown analyzer returned non-nil")
	}
}
