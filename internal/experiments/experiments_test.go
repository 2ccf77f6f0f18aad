package experiments

import (
	"strings"
	"testing"
)

// The experiment runners double as integration tests: each must execute in
// quick mode and reproduce the paper's qualitative shape. The six
// training-shape tests (Figs. 5, 14a, 14b, 15a, Tables 3 and 4) run in
// parallel: each trains its own Systems over its own stores, and the
// package-level state they reach (the obs registry, the buffer pools,
// the writer sequence) is safe for concurrent use. Under -race they take
// minutes each.

func TestFig10aTable(t *testing.T) {
	out := Fig10a()
	for _, want := range []string{"42.3%", "69.2%", "Figure 10(a)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig10a output missing %q:\n%s", want, out)
		}
	}
}

func TestFig10bcdShape(t *testing.T) {
	results, out := Fig10bcd()
	if len(results) != 3*4*2 {
		t.Fatalf("expected 24 bars, got %d", len(results))
	}
	byKey := map[string]int64{}
	for _, r := range results {
		byKey[r.Case+"/"+r.Strategy.String()+"/"+itoa(r.Kpec)] = r.Bottleneck
	}
	for _, c := range []string{"Case1", "Case2", "Case3"} {
		if byKey[c+"/EE+EN/0"] >= byKey[c+"/Baseline/0"] {
			t.Errorf("%s: EE+EN full not below baseline\n%s", c, out)
		}
		if byKey[c+"/EE+AN/1"] > byKey[c+"/EE+EN/1"] {
			t.Errorf("%s: adaptive not ≤ equal under PEC", c)
		}
	}
	// EE alone only helps with multiple EP groups (Case3).
	if byKey["Case1/EE/0"] != byKey["Case1/Baseline/0"] {
		t.Error("Case1: EE changed the bottleneck with one EP group")
	}
	if byKey["Case3/EE/0"] >= byKey["Case3/Baseline/0"] {
		t.Error("Case3: EE did not reduce the bottleneck")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	return "1"
}

func TestFig11Shape(t *testing.T) {
	rows, out := Fig11()
	if len(rows) != 3*6 {
		t.Fatalf("expected 18 rows, got %d\n%s", len(rows), out)
	}
	// Snapshot durations shrink monotonically with K within each case.
	for _, c := range []string{"Case1", "Case2", "Case3"} {
		var prev float64 = -1
		for _, r := range rows {
			if r.Case != c || r.Method == "Baseline" {
				continue
			}
			if prev >= 0 && r.Breakdown.Snapshot >= prev {
				t.Errorf("%s %s: snapshot %.2f not below previous %.2f",
					c, r.Method, r.Breakdown.Snapshot, prev)
			}
			prev = r.Breakdown.Snapshot
		}
	}
}

func TestFig12Headline(t *testing.T) {
	rows, out := Fig12()
	for _, r := range rows {
		if r.OSaveReduction < 0.95 {
			t.Errorf("%s: O_save reduction %.3f < 0.95\n%s", r.Case, r.OSaveReduction, out)
		}
		if r.Speedup < 2.5 || r.Speedup > 8 {
			t.Errorf("%s: speedup %.2f outside the 3–5x band\n%s", r.Case, r.Speedup, out)
		}
		if r.MoCAsyncIter > r.BaseAsyncIter {
			t.Errorf("%s: MoC-Async slower than Base-Async", r.Case)
		}
	}
}

func TestFig13Panels(t *testing.T) {
	for _, panel := range Fig13Panels() {
		rows, out := Fig13(panel)
		if len(rows) == 0 {
			t.Fatalf("panel %s empty\n%s", panel, out)
		}
	}
	// Panel (a): F&B grows with GPUs and MoC-Async ≤ Base-Async.
	rows, _ := Fig13("a")
	var fbPrev float64 = -1
	for _, r := range rows {
		if r.Method != "MoC-Async" {
			continue
		}
		if fbPrev >= 0 && r.FB <= fbPrev {
			t.Errorf("panel a: F&B at %s GPUs did not grow", r.X)
		}
		fbPrev = r.FB
	}
	// Panel (f): MoC-Persist far below Base-Persist.
	rowsF, _ := Fig13("f")
	base := map[string]float64{}
	for _, r := range rowsF {
		if r.Method == "Base-Persist" {
			base[r.X] = r.PersistTotalGB
		}
	}
	for _, r := range rowsF {
		if r.Method == "MoC-Persist" && r.PersistTotalGB > 0.6*base[r.X] {
			t.Errorf("panel f @%s GPUs: MoC persist %.0f GB not well below base %.0f GB",
				r.X, r.PersistTotalGB, base[r.X])
		}
	}
}

func TestFig05QuickShape(t *testing.T) {
	t.Parallel()
	cells, out := Fig05PLTGrid(true)
	if len(cells) == 0 {
		t.Fatalf("no cells\n%s", out)
	}
	// PLT falls with K at fixed interval (Fig. 5's dominant trend), every
	// PLT is a valid proportion, and low-PLT cells stay near the
	// non-fault loss.
	byCell := map[[2]int]Fig05Cell{}
	for _, c := range cells {
		byCell[[2]int{c.Kpec, c.Ickpt}] = c
		if c.PLT < 0 || c.PLT > 1 {
			t.Fatalf("PLT out of range: %+v", c)
		}
		if c.PLT < 0.02 {
			if d := c.ValLoss - c.BaselineLoss; d > 0.15 || d < -0.15 {
				t.Errorf("low-PLT cell %+v deviates %.4f from non-fault loss", c, d)
			}
		}
	}
	for _, iv := range []int{4, 16, 32} {
		lo, okLo := byCell[[2]int{1, iv}]
		hi, okHi := byCell[[2]int{4, iv}]
		if okLo && okHi && hi.PLT > lo.PLT {
			t.Errorf("I=%d: PLT(K=4)=%.4f not below PLT(K=1)=%.4f", iv, hi.PLT, lo.PLT)
		}
	}
}

func TestFig14aQuickShape(t *testing.T) {
	t.Parallel()
	series, out := Fig14a(true)
	if len(series) != 5 {
		t.Fatalf("want 5 variants, got %d\n%s", len(series), out)
	}
	base := series[0]
	if base.PLT != 0 {
		t.Errorf("baseline (full) PLT = %.4f, want 0", base.PLT)
	}
	for _, s := range series[1:] {
		// PEC variants stay in the vicinity of the baseline loss curve.
		if s.FinalLoss > base.FinalLoss*1.25 {
			t.Errorf("%s final loss %.4f far above baseline %.4f\n%s",
				s.Variant, s.FinalLoss, base.FinalLoss, out)
		}
	}
	// WO-2L two-level recovery loses no more than WO storage recovery.
	var wo, wo2l float64
	for _, s := range series {
		if s.Variant == "WO" {
			wo = s.PLT
		}
		if s.Variant == "WO-2L" {
			wo2l = s.PLT
		}
	}
	if wo2l > wo {
		t.Errorf("WO-2L PLT %.4f exceeds WO %.4f", wo2l, wo)
	}
}

func TestFig14bQuickShape(t *testing.T) {
	t.Parallel()
	series, out := Fig14b(true)
	if len(series) != 3 {
		t.Fatalf("want 3 methods\n%s", out)
	}
	for _, s := range series {
		last := s.Accuracies[len(s.Accuracies)-1]
		first := s.Accuracies[0]
		if last <= first {
			t.Errorf("%s: accuracy did not improve (%.3f -> %.3f)", s.Method, first, last)
		}
	}
	// Sequential and load-aware end within a small gap of the baseline.
	base := series[0].Accuracies[len(series[0].Accuracies)-1]
	for _, s := range series[1:] {
		last := s.Accuracies[len(s.Accuracies)-1]
		if base-last > 0.1 {
			t.Errorf("%s final accuracy %.3f far below baseline %.3f", s.Method, last, base)
		}
	}
}

func TestFig15aQuickShape(t *testing.T) {
	t.Parallel()
	pts, out := Fig15a(true)
	if len(pts) != 4 {
		t.Fatalf("want 4 points\n%s", out)
	}
	for _, p := range pts {
		if p.TwoLevelPLT > p.StoragePLT {
			t.Errorf("(Ks=%d): two-level PLT %.4f above storage %.4f\n%s",
				p.KSnapshot, p.TwoLevelPLT, p.StoragePLT, out)
		}
	}
	// Larger K_snapshot reduces two-level PLT (more experts recoverable
	// from fresh snapshots).
	if pts[len(pts)-1].TwoLevelPLT > pts[0].TwoLevelPLT {
		t.Errorf("two-level PLT did not shrink with K_snapshot\n%s", out)
	}
}

func TestFig15bShape(t *testing.T) {
	pts, out := Fig15b()
	if len(pts) != 6 {
		t.Fatalf("want 6 fault counts\n%s", out)
	}
	last := pts[len(pts)-1]
	if last.FixedPLT <= last.DynamicPLT {
		t.Errorf("at 32 faults fixed PLT %.4f should exceed dynamic %.4f\n%s",
			last.FixedPLT, last.DynamicPLT, out)
	}
	if last.DynamicK < 2 {
		t.Errorf("Dynamic-K never escalated: %+v", last)
	}
	if last.DynamicPLT > 0.08 {
		t.Errorf("dynamic PLT %.4f strays far above the 3.75%% threshold", last.DynamicPLT)
	}
	if last.FixedPLT < 2*last.DynamicPLT {
		t.Errorf("Dynamic-K should cut cumulative PLT at least 2x: fixed %.4f vs dynamic %.4f",
			last.FixedPLT, last.DynamicPLT)
	}
	// Fixed K grows roughly linearly with fault count.
	if pts[5].FixedPLT < 4*pts[0].FixedPLT {
		t.Errorf("fixed-K PLT not growing linearly: %+v", pts)
	}
}

func TestTable3QuickShape(t *testing.T) {
	t.Parallel()
	rows, out := Table3(true)
	if len(rows) != 5 {
		t.Fatalf("want 5 methods\n%s", out)
	}
	base := rows[0]
	if base.CkptSize != 1 {
		t.Errorf("baseline relative size %.2f", base.CkptSize)
	}
	for _, r := range rows[1:] {
		if r.CkptSize >= 1 {
			t.Errorf("%s relative checkpoint size %.2f not below 1", r.Method, r.CkptSize)
		}
		// Lossy variants recover to the baseline's neighbourhood.
		if base.Average-r.Average > 0.08 {
			t.Errorf("%s avg %.3f far below baseline %.3f\n%s", r.Method, r.Average, base.Average, out)
		}
		if len(r.Scores) != 8 {
			t.Errorf("%s has %d task scores", r.Method, len(r.Scores))
		}
	}
	// Size ordering: WO < O < W < baseline.
	if !(rows[3].CkptSize < rows[2].CkptSize && rows[2].CkptSize < rows[1].CkptSize) {
		t.Errorf("size ordering wrong: %+v", rows)
	}
}

func TestTable4QuickShape(t *testing.T) {
	t.Parallel()
	rows, out := Table4(true)
	if len(rows) != 4 {
		t.Fatalf("want 4 methods\n%s", out)
	}
	base := rows[0]
	for _, r := range rows[1:] {
		// Fine-tuned variants improve on (or at worst match, within
		// noise at this scale) the un-tuned base.
		if r.FinetuneAcc < base.FinetuneAcc-0.01 {
			t.Errorf("%s FT accuracy %.3f below base %.3f\n%s",
				r.Method, r.FinetuneAcc, base.FinetuneAcc, out)
		}
	}
	var ftFull, ftPEC float64
	for _, r := range rows {
		if r.Method == "FT-Full" {
			ftFull = r.FinetuneAcc
		}
		if r.Method == "FT-PEC" {
			ftPEC = r.FinetuneAcc
		}
	}
	if ftFull-ftPEC > 0.05 {
		t.Errorf("FT-PEC %.3f far below FT-Full %.3f\n%s", ftPEC, ftFull, out)
	}
	if ftPEC <= base.FinetuneAcc-0.01 {
		t.Errorf("FT-PEC %.3f did not retain fine-tuning gains over base %.3f\n%s",
			ftPEC, base.FinetuneAcc, out)
	}
}

func TestOverheadModelTable(t *testing.T) {
	out := OverheadModel()
	if !strings.Contains(out, "MoC wins") || !strings.Contains(out, "true") {
		t.Fatalf("overhead model should show MoC winning in at least one regime:\n%s", out)
	}
}

func TestSelectionAblation(t *testing.T) {
	out := SelectionAblation(true)
	if !strings.Contains(out, "sequential") || !strings.Contains(out, "load-aware") {
		t.Fatalf("ablation output malformed:\n%s", out)
	}
}

func TestFaultEndToEnd(t *testing.T) {
	out := FaultEndToEnd()
	if !strings.Contains(out, "MoC-Async") || !strings.Contains(out, "Baseline") {
		t.Fatalf("malformed end-to-end table:\n%s", out)
	}
}
