package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the benchmark contract measures spread with.
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	m := len(x)
	if m < 2 {
		if m == 1 {
			return x[0], x[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := max(1, min(i*(m+1)/4, m-1))
		delta := i*(m+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worsening(d MetricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// exactTolerance is how far an exact metric may differ between runs of
// one seed. Stored bytes include manifests' writer ids and job records'
// lease timestamps, whose lengths vary by a digit; physical bytes on the
// fleet depend on which of two jobs persisting the same chunk at once
// writes it first (both may). Logical bytes and kept tokens are exact.
var exactTolerance = map[string]float64{
	"ckpt_bytes_per_round":       1e-3,
	"store_bytes_per_model_byte": 1e-3,
}

// AA runs two interleaved sets of n end-to-end runs per workload with one
// seed (A, B, A, B, ...) and prints, per metric, both medians and
// quartiles, their disagreement and the bound. It returns an error if any
// disagreement exceeds its bound, if an exact metric differs between any
// two runs, or if a run fails a correctness check — the benchmark's own
// test that its numbers repeat on this machine.
func AA(out io.Writer, n int, seed uint64, seconds int, only string) error {
	if only != "" {
		if _, err := Lookup(only); err != nil {
			return err
		}
	}
	var violations []string
	for _, spec := range Workloads {
		if only != "" && only != spec.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			res, err := Run(Options{Workload: spec.Name, Seed: seed, Seconds: seconds})
			if err != nil {
				return err
			}
			if res.OpsFailed != 0 {
				violations = append(violations, fmt.Sprintf("%s run %d: %d of %d operations failed: %v",
					spec.Name, i, res.OpsFailed, res.OpsTotal, res.Failures))
			}
			for name, v := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
			fmt.Fprintf(out, "# %s run %d/%d (set %c) done in %.1f s\n", spec.Name, i+1, 2*n, 'A'+rune(i%2), res.Diag["run_s"])
		}
		fmt.Fprintf(out, "\n%s, seed %d, %d s, %d runs per set\n", spec.Name, seed, seconds, n)
		fmt.Fprintf(out, "%-30s %12s %25s %12s %25s %8s %6s\n", "metric", "median A", "quartiles A", "median B", "quartiles B", "B worse", "bound")
		for _, d := range EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			worse := worsening(d, ma, mb)
			flag := ""
			if math.Abs(worse) > d.Bound {
				flag = "  VIOLATION"
				violations = append(violations, fmt.Sprintf("%s %s: medians %g and %g disagree by %.1f%%, bound %.0f%%",
					spec.Name, d.Name, ma, mb, 100*worse, 100*d.Bound))
			}
			fmt.Fprintf(out, "%-30s %12.6g %12.6g-%-12.6g %12.6g %12.6g-%-12.6g %+7.1f%% %5.0f%%%s\n",
				d.Name, ma, a1, a3, mb, b1, b3, 100*worse, 100*d.Bound, flag)
		}
		for _, name := range ExactMetrics {
			all := append(append([]float64(nil), sets[0][name]...), sets[1][name]...)
			lo, hi := all[0], all[0]
			for _, x := range all {
				lo, hi = min(lo, x), max(hi, x)
			}
			if hi-lo > exactTolerance[name]*math.Abs(lo) {
				violations = append(violations, fmt.Sprintf("%s %s: not identical across runs of one seed (%v to %v)", spec.Name, name, lo, hi))
			}
		}
		fmt.Fprintln(out)
	}
	for _, v := range violations {
		fmt.Fprintln(out, "VIOLATION:", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("bench: A/A found %d violations", len(violations))
	}
	fmt.Fprintln(out, "A/A: both sets agree within every bound; exact metrics identical across all runs")
	return nil
}
