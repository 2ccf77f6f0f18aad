// Package experiments implements one runner per table and figure of the
// paper's evaluation (§6). Runners return both structured results and a
// formatted table, and are shared by cmd/mocbench (one -fig key each)
// and the benchmark harness (bench_test.go).
//
// Efficiency experiments (Figures 10–13) run on the analytic cost models
// and the discrete-event simulator; accuracy experiments (Figure 5, 14,
// 15; Tables 3, 4) run the real trainer. The Quick flag shrinks the
// training horizons so the full suite executes in seconds (used by tests
// and benchmarks); cmd tools run the full horizons.
package experiments

import (
	"fmt"
	"strings"

	"moc/internal/cluster"
	"moc/internal/core"
	"moc/internal/fault"
	"moc/internal/model"
	"moc/internal/perf"
	"moc/internal/report"
	"moc/internal/simtime"
)

func caseTopos() []cluster.Topology { return cluster.Cases() }

func caseWorkload(topo cluster.Topology, gpu perf.GPUProfile) perf.Workload {
	return perf.Workload{
		Model:       model.GPT350M16E(),
		Topo:        topo,
		GPU:         gpu,
		Storage:     perf.DefaultStorage(),
		GlobalBatch: 256,
	}
}

// Fig10a reproduces Figure 10(a): total checkpoint size versus K_pec for
// GPT-350M-16E, under both the paper-calibrated measured composition
// (matches the published bars exactly) and the analytic Eq. 6 composition.
func Fig10a() string {
	cfg := model.GPT350M16E()
	calibrated := core.Composition{ExpertShare: core.PaperMeasuredExpertShare}
	analytic := core.CompositionFromConfig(cfg)
	fullGB := float64(cfg.FullCheckpointBytes()) / 1e9
	t := report.NewTable("Figure 10(a): total checkpoint size vs K_pec (GPT-350M-16E)",
		"K_pec", "paper %", "calibrated %", "calibrated GB", "analytic Eq.6 %")
	paper := map[int]string{16: "100%", 8: "69.2%", 4: "53.8%", 2: "46.1%", 1: "42.3%"}
	for _, k := range []int{16, 8, 4, 2, 1} {
		c := calibrated.PECRatio(k, 16)
		a := analytic.PECRatio(k, 16)
		t.Row(fmt.Sprintf("%d", k), paper[k], report.Pct(c),
			fmt.Sprintf("%.1f", fullGB*c), report.Pct(a))
	}
	return t.String()
}

// Fig10bcdResult is one bar of Figure 10(b–d).
type Fig10bcdResult struct {
	Case       string
	Strategy   core.Strategy
	Kpec       int // 0 = full
	Bottleneck int64
}

// Fig10bcd reproduces Figure 10(b–d): the bottleneck rank's checkpoint
// workload across the Table 2 cases, sharding strategies, and full vs
// K_pec = 1 saving.
func Fig10bcd() ([]Fig10bcdResult, string) {
	cfg := model.GPT350M16E()
	var results []Fig10bcdResult
	var b strings.Builder
	for _, topo := range caseTopos() {
		t := report.NewTable(
			fmt.Sprintf("Figure 10(%c): bottleneck-rank checkpoint size, %s (DP=%d EP=%d)",
				'b'+byte(topoIndex(topo)), topo.Name, topo.DP, topo.EP),
			"Method", "Full", "K_pec=1")
		for _, strat := range core.Strategies() {
			row := []string{strat.String()}
			for _, k := range []int{0, 1} {
				var sel *core.Selection
				if k > 0 {
					sel = core.NewSequentialSelector(cfg.NumMoELayers(), cfg.NumExperts).Select(0, k)
				}
				plan, err := core.PlanCheckpoint(topo, cfg, sel, strat)
				if err != nil {
					panic(err)
				}
				bn, _ := plan.Bottleneck()
				results = append(results, Fig10bcdResult{
					Case: topo.Name, Strategy: strat, Kpec: k, Bottleneck: bn,
				})
				row = append(row, report.GB(bn))
			}
			t.Row(row...)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return results, b.String()
}

func topoIndex(t cluster.Topology) int {
	switch t.Name {
	case "Case1":
		return 0
	case "Case2":
		return 1
	default:
		return 2
	}
}

// Fig11Row is one bar group of Figure 11.
type Fig11Row struct {
	Case      string
	Method    string
	Breakdown simtime.Breakdown
}

// Fig11 reproduces Figure 11: the duration of each process (F&B, update,
// snapshot, persist) in a checkpointing iteration, for the baseline and
// fully sharded two-level PEC at K ∈ {16, 8, 4, 2, 1}, across the Table 2
// cases.
func Fig11() ([]Fig11Row, string) {
	var rows []Fig11Row
	var b strings.Builder
	for _, topo := range caseTopos() {
		s := simtime.Scenario{W: caseWorkload(topo, perf.A800())}
		t := report.NewTable(
			fmt.Sprintf("Figure 11 (%s): per-process durations in a checkpointing iteration", topo.Name),
			"Method", "F&B", "Update", "Snapshot", "Persist", "IterTime", "Overlapped")
		methods := []simtime.Method{simtime.BaselineMethod()}
		for _, k := range []int{16, 8, 4, 2, 1} {
			methods = append(methods, simtime.ShardedMethod(k, false))
		}
		for _, m := range methods {
			bd, err := s.Evaluate(m)
			if err != nil {
				panic(err)
			}
			rows = append(rows, Fig11Row{Case: topo.Name, Method: m.Name, Breakdown: bd})
			overlapped := "yes"
			if m.Blocking {
				overlapped = "no (blocking)"
			} else if bd.Snapshot > bd.FB {
				overlapped = "no (stall)"
			}
			t.Row(m.Name, report.Secs(bd.FB), report.Secs(bd.Update),
				report.Secs(bd.Snapshot), report.Secs(bd.Persist),
				report.Secs(bd.IterTime()), overlapped)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return rows, b.String()
}

// Fig12Row is one case of Figure 12.
type Fig12Row struct {
	Case           string
	BaselineIter   float64
	BaseAsyncIter  float64
	MoCAsyncIter   float64
	OSaveReduction float64 // MoC-Async vs baseline
	Speedup        float64 // baseline / MoC-Async
}

// Fig12 reproduces Figure 12: duration of a checkpointing iteration for
// Baseline, Base-Async, and MoC-Async, with O_save reduction and speedup.
func Fig12() ([]Fig12Row, string) {
	var rows []Fig12Row
	t := report.NewTable("Figure 12: checkpointing-iteration duration and overheads",
		"Case", "Baseline", "Base-Async", "MoC-Async", "O_save reduction", "Speedup")
	for _, topo := range caseTopos() {
		s := simtime.Scenario{W: caseWorkload(topo, perf.A800())}
		base, err := s.Evaluate(simtime.BaselineMethod())
		if err != nil {
			panic(err)
		}
		ba, err := s.Evaluate(simtime.BaseAsyncMethod())
		if err != nil {
			panic(err)
		}
		mocM, err := s.Evaluate(simtime.MoCAsyncMethod(4, 1))
		if err != nil {
			panic(err)
		}
		row := Fig12Row{
			Case:          topo.Name,
			BaselineIter:  base.IterTime(),
			BaseAsyncIter: ba.IterTime(),
			MoCAsyncIter:  mocM.IterTime(),
			Speedup:       base.IterTime() / mocM.IterTime(),
		}
		if base.OSave() > 0 {
			row.OSaveReduction = 1 - mocM.OSave()/base.OSave()
		}
		rows = append(rows, row)
		t.Row(topo.Name, report.Secs(row.BaselineIter), report.Secs(row.BaseAsyncIter),
			report.Secs(row.MoCAsyncIter), report.Pct(row.OSaveReduction),
			fmt.Sprintf("%.2fx", row.Speedup))
	}
	return rows, t.String()
}

// Fig13Row is one point of a Figure 13 panel.
type Fig13Row struct {
	Panel    string
	X        string // GPUs / seq length / model size
	Method   string
	IterTime float64
	FB       float64
	Snapshot float64
	// PersistTotalGB is used by panel (f).
	PersistTotalGB float64
}

// Fig13 reproduces Figure 13's six panels: scaling the GPU count under
// DP+EP (a) and DP+EP+TP (b) on A800, DP+EP on H100 (c), sequence-length
// (d) and model-size (e) generality, and the cluster-wide persist volume
// (f). The LLaMA-like MoE model assigns one expert per GPU per layer.
func Fig13(panel string) ([]Fig13Row, string) {
	gpus := []int{32, 64, 128, 256, 512, 1024}
	methods := func(s simtime.Scenario, nExperts int) []struct {
		name string
		m    simtime.Method
	} {
		return []struct {
			name string
			m    simtime.Method
		}{
			{"Baseline", simtime.BaselineMethod()},
			{"Base-Async", simtime.BaseAsyncMethod()},
			{"MoC-Async", simtime.MoCAsyncMethod(maxi(1, nExperts/8), maxi(1, nExperts/8))},
		}
	}
	var rows []Fig13Row
	var t *report.Table
	add := func(x string, s simtime.Scenario, nExperts int) {
		for _, mm := range methods(s, nExperts) {
			bd, err := s.Evaluate(mm.m)
			if err != nil {
				panic(err)
			}
			rows = append(rows, Fig13Row{Panel: panel, X: x, Method: mm.name,
				IterTime: bd.IterTime(), FB: bd.FB, Snapshot: bd.Snapshot,
				PersistTotalGB: float64(bd.TotalPersist) / 1e9})
			t.Row(x, mm.name, report.Secs(bd.FB), report.Secs(bd.Snapshot),
				report.Secs(bd.IterTime()))
		}
	}
	scen := func(gpuCount, tp int, gpu perf.GPUProfile, size model.LLaMAMoESize, seq int) simtime.Scenario {
		topo := cluster.Scaled(gpuCount, tp)
		return simtime.Scenario{W: perf.Workload{
			Model:       model.LLaMAMoE(size, topo.DP, seq),
			Topo:        topo,
			GPU:         gpu,
			Storage:     perf.DefaultStorage(),
			GlobalBatch: 2 * topo.DP,
		}}
	}
	switch panel {
	case "a", "b", "c":
		gpu, tp, label := perf.A800(), 1, "DP+EP (A800)"
		if panel == "b" {
			tp, label = 4, "DP+EP+TP4 (A800)"
		}
		if panel == "c" {
			gpu, label = perf.H100(), "DP+EP (H100)"
		}
		t = report.NewTable("Figure 13("+panel+"): scaling GPUs, "+label,
			"GPUs", "Method", "F&B", "Snapshot", "IterTime")
		for _, g := range gpus {
			if g/tp < 8 {
				continue
			}
			s := scen(g, tp, gpu, model.LLaMAMoEMedium, 1024)
			add(fmt.Sprintf("%d", g), s, s.W.Topo.DP)
		}
	case "d":
		t = report.NewTable("Figure 13(d): sequence-length generality (256 A800 GPUs)",
			"SeqLen", "Method", "F&B", "Snapshot", "IterTime")
		for _, seq := range []int{512, 1024, 2048, 4096} {
			s := scen(256, 1, perf.A800(), model.LLaMAMoEMedium, seq)
			add(fmt.Sprintf("%d", seq), s, s.W.Topo.DP)
		}
	case "e":
		t = report.NewTable("Figure 13(e): model-size generality (256 A800 GPUs)",
			"Size", "Method", "F&B", "Snapshot", "IterTime")
		for _, size := range []model.LLaMAMoESize{model.LLaMAMoESmall, model.LLaMAMoEMedium, model.LLaMAMoELarge} {
			s := scen(256, 1, perf.A800(), size, 1024)
			add(size.String(), s, s.W.Topo.DP)
		}
	case "f":
		t = report.NewTable("Figure 13(f): cluster-wide persist volume per checkpoint",
			"GPUs", "Method", "Persist total")
		for _, g := range gpus {
			topo := cluster.Scaled(g, 1)
			s := simtime.Scenario{W: perf.Workload{
				Model: model.LLaMAMoE(model.LLaMAMoEMedium, topo.DP, 1024),
				Topo:  topo, GPU: perf.A800(), Storage: perf.DefaultStorage(),
				GlobalBatch: 2 * topo.DP,
			}}
			for _, mm := range []struct {
				name string
				m    simtime.Method
			}{
				{"Base-Persist", simtime.BaseAsyncMethod()},
				{"MoC-Persist", simtime.MoCAsyncMethod(maxi(1, topo.DP/8), maxi(1, topo.DP/8))},
			} {
				bd, err := s.Evaluate(mm.m)
				if err != nil {
					panic(err)
				}
				rows = append(rows, Fig13Row{Panel: panel, X: fmt.Sprintf("%d", g),
					Method: mm.name, PersistTotalGB: float64(bd.TotalPersist) / 1e9})
				t.Row(fmt.Sprintf("%d", g), mm.name,
					fmt.Sprintf("%.0f GB", float64(bd.TotalPersist)/1e9))
			}
		}
	default:
		panic("experiments: unknown Fig13 panel " + panel)
	}
	return rows, t.String()
}

// Fig13Panels lists the panel identifiers.
func Fig13Panels() []string { return []string{"a", "b", "c", "d", "e", "f"} }

// OverheadModel demonstrates §6.2.5's Eqs. 12–16 numerically: total
// fault-tolerance overhead of full checkpointing versus MoC under the two
// interval strategies.
func OverheadModel() string {
	s := simtime.Scenario{W: caseWorkload(cluster.Case2(), perf.A800())}
	full, err := s.Evaluate(simtime.ShardedMethod(16, false))
	if err != nil {
		panic(err)
	}
	mocB, err := s.Evaluate(simtime.MoCAsyncMethod(4, 1))
	if err != nil {
		panic(err)
	}
	iterTime := full.FB + full.Update
	const lambda = 1e-5 // faults per iteration
	const itotal = 500_000
	t := report.NewTable("§6.2.5 overhead model (Case2, λ=1e-5/iter, 500k iters)",
		"Method", "O_save", "I_ckpt", "Total overhead (s)", "MoC wins (Eq.16)")
	for _, iv := range []int{int(full.MinInterval()) + 1, 50, 200} {
		pFull := core.OverheadParams{OSave: full.OSave() + full.Persist/float64(iv),
			ORestart: 120, IterTime: iterTime, Lambda: lambda, ITotal: itotal}
		pMoC := core.OverheadParams{OSave: mocB.OSave(), ORestart: 120,
			IterTime: iterTime, Lambda: lambda, ITotal: itotal}
		ivMoC := maxi(1, iv/2) // MoC halves the achievable interval (§6.2.3)
		wins := core.MoCBeatsFull(pMoC.OSave, ivMoC, pFull.OSave, iv, lambda, iterTime)
		t.Row(fmt.Sprintf("Full@I=%d vs MoC@I=%d", iv, ivMoC),
			fmt.Sprintf("%.2f / %.2f", pFull.OSave, pMoC.OSave),
			fmt.Sprintf("%d / %d", iv, ivMoC),
			fmt.Sprintf("%.0f / %.0f", pFull.TotalOverhead(iv), pMoC.TotalOverhead(ivMoC)),
			fmt.Sprintf("%v", wins))
	}
	return t.String()
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FaultEndToEnd runs the measured counterpart of the §6.2.5 analysis: a
// discrete-event simulation of 20k Case2 iterations under a Poisson fault
// process, comparing the total fault-tolerance overhead O_ckpt (Eq. 3) of
// blocking full checkpointing, Base-Async, and MoC-Async, each at its
// feasible checkpoint interval.
func FaultEndToEnd() string {
	s := simtime.Scenario{W: caseWorkload(cluster.Case2(), perf.A800())}
	const (
		iters  = 20000
		lambda = 5e-4 // faults per iteration
	)
	plan := fault.Poisson(lambda, iters, 12)
	t := report.NewTable(
		fmt.Sprintf("§6.2.5 end-to-end: measured O_ckpt over %d Case2 iterations (%d faults)",
			iters, plan.Count()),
		"Method", "I_ckpt", "O_save/ckpt", "Lost iters", "Total overhead")
	type mrow struct {
		name     string
		m        simtime.Method
		interval int
	}
	rows := []mrow{
		{"Baseline", simtime.BaselineMethod(), 100},
		{"Base-Async", simtime.BaseAsyncMethod(), 10},
		{"MoC-Async", simtime.MoCAsyncMethod(4, 1), 5},
	}
	for _, r := range rows {
		bd, err := s.Evaluate(r.m)
		if err != nil {
			panic(err)
		}
		res, err := simtime.RunWithFaults(simtime.FaultConfig{
			Config: simtime.Config{
				FB: bd.FB, Update: bd.Update,
				Snapshot: bd.Snapshot, Persist: bd.Persist,
				Interval: r.interval, Iterations: iters,
				Buffers: 3, Blocking: r.m.Blocking,
			},
			Restart: 120,
			Faults:  plan,
		})
		if err != nil {
			panic(err)
		}
		t.Row(r.name, fmt.Sprintf("%d", r.interval),
			report.Secs(res.OSavePerCkpt),
			fmt.Sprintf("%d", res.LostIterations),
			fmt.Sprintf("%.0fs", res.OverheadTotal))
	}
	return t.String()
}
