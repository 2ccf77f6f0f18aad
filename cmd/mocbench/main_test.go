package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestMocbenchFigFilter(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-fig", "10a,13c,15b"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, title := range []string{"[Figure 10(a) completed", "[Figure 13(c) completed", "[Figure 15(b) completed"} {
		if !strings.Contains(out.String(), title) {
			t.Errorf("no %q in output:\n%s", title, out.String())
		}
	}
	if n := strings.Count(out.String(), " completed in "); n != 3 {
		t.Errorf("%d sections printed, want 3", n)
	}
	for _, args := range [][]string{{"-fig", "10a,14z"}, {"-bogus"}, {"extra"}} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// docCommand matches a mocbench command line in a code block.
var docCommand = regexp.MustCompile(`(?m)^\s*(?:go run \./cmd/)?mocbench\s.*$`)

// TestMocbenchDocCommands runs every mocbench command README.md and
// EXPERIMENTS.md show, so a documented command that cannot run fails
// here.
func TestMocbenchDocCommands(t *testing.T) {
	n := 0
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docCommand.FindAllString(string(text), -1) {
			line, _, _ := strings.Cut(m, " #")
			args := strings.Fields(strings.TrimPrefix(strings.TrimSpace(line), "go run ./cmd/"))[1:]
			var out, errOut bytes.Buffer
			if code := run(args, &out, &errOut); code != 0 {
				t.Errorf("%s: %q exits %d: %s", doc, m, code, errOut.String())
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no mocbench commands found in the docs")
	}
}
