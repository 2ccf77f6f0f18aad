// Command mocbench regenerates the tables and figures of the MoC-System
// paper's evaluation, printing EXPERIMENTS.md-style sections: the
// efficiency simulations (Figures 10–13, §6.2.5) followed by the
// real-trainer accuracy experiments (Figure 5, 14, 15; Tables 3, 4).
//
// Usage:
//
//	mocbench                      # every section, full horizons (minutes)
//	mocbench -quick               # shrunken training horizons (tens of seconds)
//	mocbench -fig 10a,13c,14a,t4  # only the named sections
//
// Section keys: 10a 10bcd 11 12 13a–13f overhead faults 5 14a 14b 15a
// 15b t3 t4 ablation. An unknown key exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"moc/internal/experiments"
)

// section is one printable figure or table; quick shrinks the training
// horizons of the real-trainer experiments (the simulations ignore it).
type section struct {
	key, title string
	run        func(quick bool) string
}

// sections lists every section in print order.
func sections() []section {
	out := []section{
		{"10a", "Figure 10(a)", func(bool) string { return experiments.Fig10a() }},
		{"10bcd", "Figure 10(b-d)", func(bool) string { _, o := experiments.Fig10bcd(); return o }},
		{"11", "Figure 11", func(bool) string { _, o := experiments.Fig11(); return o }},
		{"12", "Figure 12", func(bool) string { _, o := experiments.Fig12(); return o }},
	}
	for _, p := range experiments.Fig13Panels() {
		p := p
		out = append(out, section{"13" + p, "Figure 13(" + p + ")", func(bool) string { _, o := experiments.Fig13(p); return o }})
	}
	return append(out,
		section{"overhead", "§6.2.5 overhead model", func(bool) string { return experiments.OverheadModel() }},
		section{"faults", "§6.2.5 end-to-end fault simulation", func(bool) string { return experiments.FaultEndToEnd() }},
		section{"5", "Figure 5", func(q bool) string { _, o := experiments.Fig05PLTGrid(q); return o }},
		section{"14a", "Figure 14(a)", func(q bool) string { _, o := experiments.Fig14a(q); return o }},
		section{"14b", "Figure 14(b)", func(q bool) string { _, o := experiments.Fig14b(q); return o }},
		section{"15a", "Figure 15(a)", func(q bool) string { _, o := experiments.Fig15a(q); return o }},
		section{"15b", "Figure 15(b)", func(bool) string { _, o := experiments.Fig15b(); return o }},
		section{"t3", "Table 3", func(q bool) string { _, o := experiments.Table3(q); return o }},
		section{"t4", "Table 4", func(q bool) string { _, o := experiments.Table4(q); return o }},
		section{"ablation", "Selection ablation", experiments.SelectionAblation},
	)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mocbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "shrink training horizons")
	figs := fs.String("fig", "", "comma-separated section keys (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mocbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	all := sections()
	todo := all
	if *figs != "" {
		byKey := make(map[string]section, len(all))
		keys := make([]string, len(all))
		for i, s := range all {
			byKey[s.key], keys[i] = s, s.key
		}
		todo = nil
		for _, k := range strings.Split(*figs, ",") {
			s, ok := byKey[strings.TrimSpace(k)]
			if !ok {
				fmt.Fprintf(stderr, "mocbench: unknown section %q (keys: %s)\n", k, strings.Join(keys, " "))
				return 2
			}
			todo = append(todo, s)
		}
	}
	fmt.Fprintln(stdout, "MoC-System reproduction — experiment sweep")
	fmt.Fprintln(stdout)
	for _, s := range todo {
		start := time.Now()
		fmt.Fprintln(stdout, s.run(*quick))
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", s.title, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
