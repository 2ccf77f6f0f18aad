package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// WalltimeAnalyzer keeps the wall clock out of the deterministic packages
// (walltimeScope), whose output must repeat per seed: a stray time.Now or
// time.Sleep there would make a figure or a trained model depend on the
// host. Every other package calls the time package directly.
var WalltimeAnalyzer = &Analyzer{
	Name: "walltime",
	Doc: "flags wall-clock and timer calls (time.Now, time.Sleep, time.After, " +
		"time.NewTimer, ...) in the deterministic packages, whose output must repeat per seed",
	Run: runWalltime,
}

// walltimeScope lists the deterministic packages, relative to the module
// root. A package is in scope when its import path ends in one of them,
// so a fixture that mirrors one (testdata/src/walltime/internal/simtime)
// is checked as the package itself is.
var walltimeScope = []string{
	// The simulated timelines and the figure runners.
	"internal/simtime", "internal/perf", "internal/cluster", "internal/experiments", "internal/report",
	// The seeded training stack.
	"internal/train", "internal/moe", "internal/model", "internal/fault", "internal/rng",
	"internal/tensor", "internal/data", "internal/eval",
}

// walltimeBanned is the set of time-package functions that read the
// clock or schedule real timers. Duration arithmetic and time.Time
// formatting stay legal — only acquiring "now" or sleeping is fenced.
var walltimeBanned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

func inWalltimeScope(pkgPath string) bool {
	for _, p := range walltimeScope {
		if pkgPath == p || strings.HasSuffix(pkgPath, "/"+p) {
			return true
		}
	}
	return false
}

func runWalltime(pass *Pass) {
	if !inWalltimeScope(pass.Pkg.Path()) {
		return
	}
	for _, fb := range functionBodies(pass.Files) {
		walkBody(fb.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(pass.Info, call)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			// Package-level functions only: time.Time methods like
			// t.After(u) are pure arithmetic on an already-read clock.
			fn, ok := obj.(*types.Func)
			if !ok {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			if walltimeBanned[obj.Name()] {
				pass.Reportf(call.Pos(),
					"time.%s in %s, whose output must repeat per seed: take durations and "+
						"instants from the simulated timeline, or annotate a deliberate "+
						"exception with //moc:allow walltime <reason>",
					obj.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
}
