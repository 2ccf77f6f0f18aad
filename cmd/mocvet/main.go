// Command mocvet runs moc's project-invariant static-analysis suite:
// the contracts the storage stack states in comments (Put does not
// retain, Adopt hand-off, Guard lock discipline, GetBuf/PutBuf
// pairing, no wall clock in the deterministic packages, errors.Is for
// sentinels) enforced mechanically over every package in the module.
//
// Usage:
//
//	mocvet [-json] [-list] [-root dir] [-run name,name] [packages]
//
// Packages are directory patterns relative to the module root
// ("./...", "./internal/storage", "./internal/..."); the default is
// "./...". Exit codes: 0 clean, 1 diagnostics reported, 2 usage or
// load failure.
//
// Suppress a finding in place, reason required:
//
//	//moc:allow <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"moc/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("mocvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON ({diagnostics: [...], count: n})")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	root := fs.String("root", ".", "module root to analyze (directory containing go.mod)")
	runSel := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.Registry() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := analysis.Registry()
	if *runSel != "" {
		analyzers = nil
		for _, name := range strings.Split(*runSel, ",") {
			name = strings.TrimSpace(name)
			a := analysis.Lookup(name)
			if a == nil {
				fmt.Fprintf(stderr, "mocvet: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	diags, err := analysis.Run(analysis.Config{
		Root:      *root,
		Patterns:  fs.Args(),
		Analyzers: analyzers,
	})
	if err != nil {
		fmt.Fprintf(stderr, "mocvet: %v\n", err)
		return 2
	}
	if *jsonOut {
		out, err := analysis.MarshalJSONReport(diags)
		if err != nil {
			fmt.Fprintf(stderr, "mocvet: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "mocvet: %d invariant violation(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
