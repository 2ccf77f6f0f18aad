package bench

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json is what the driver reads; the lists in this package are
// what a run reports. They must say the same thing.
func TestBenchmarkFileMatchesDefinitions(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(blob, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, package %d", len(f.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %q/%q, package %q/%q", i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(f.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, package %d", len(f.EndToEnd), len(EndToEnd))
	}
	setup := false
	for i, d := range EndToEnd {
		got := f.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: file has %+v, package %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, other := range EndToEnd {
				if other.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", other.Name, other.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(f.PerLayer) != len(PerLayer) || len(PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, package %d (limit 128)", len(f.PerLayer), len(PerLayer))
	}
	for i, d := range PerLayer {
		got := f.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: file has %+v, package %+v", i, got, d)
		}
	}
	if f.RunSeconds != RunSeconds {
		t.Errorf("run_seconds = %d, the workloads are sized for %d", f.RunSeconds, RunSeconds)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(f.Paths, want) {
		t.Errorf("paths = %v, want %v", f.Paths, want)
	}
}

// smoke is the 2-cycle scale the tests run at: every slice runs, nothing
// is long enough to time.
func smoke(workload string, seed uint64) Options {
	return Options{Workload: workload, Seed: seed, Cycles: 2, Smoke: true}
}

// Two runs of one seed must agree on every count. The workloads run in
// parallel subtests to keep tier-1 fast; timings are not looked at.
func TestSeedRepeatsCounts(t *testing.T) {
	t.Parallel()
	for _, spec := range Workloads {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			var runs [2]*Result
			for i := range runs {
				res, err := Run(smoke(spec.Name, 7))
				if err != nil {
					t.Fatal(err)
				}
				if res.OpsFailed != 0 {
					t.Fatalf("%d of %d operations failed: %v", res.OpsFailed, res.OpsTotal, res.Failures)
				}
				if len(res.Metrics) != len(EndToEnd) {
					t.Fatalf("run reports %d metrics, want %d", len(res.Metrics), len(EndToEnd))
				}
				runs[i] = res
			}
			if runs[0].OpsTotal != runs[1].OpsTotal {
				t.Errorf("ops_total %d then %d", runs[0].OpsTotal, runs[1].OpsTotal)
			}
			for _, name := range ExactMetrics {
				a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
				if math.Abs(a-b) > exactTolerance[name]*math.Abs(a) {
					t.Errorf("%s: %v then %v for one seed", name, a, b)
				}
				if a == 0 {
					t.Errorf("%s is 0", name)
				}
			}
			if spec.Name == "full_persist" {
				// Another seed is another input: the model it initialises
				// persists other bytes.
				other, err := Run(smoke(spec.Name, 8))
				if err != nil {
					t.Fatal(err)
				}
				if a, b := runs[0].Metrics["ckpt_bytes_per_round"].Value, other.Metrics["ckpt_bytes_per_round"].Value; a == b {
					t.Errorf("seeds 7 and 8 persist identical bytes per round (%v)", a)
				}
			}
			for _, k := range []string{"steps", "stalls", "durable_rounds", "recovers", "resumes", "restore_batches", "rounds"} {
				if runs[0].Diag[k] != runs[1].Diag[k] || runs[0].Diag[k] == 0 {
					t.Errorf("sample count %s: %v then %v", k, runs[0].Diag[k], runs[1].Diag[k])
				}
			}
		})
	}
}

// A traced run reports every per-layer metric, layers outside the
// workload's stack read 0, and the spans account for the cycle. And the
// traced stack must do the program's work, not a fallback's: with
// spanStores between the tiers, cas and the backends see exactly the
// operations they see bare.
func TestTraceReportsLayers(t *testing.T) {
	t.Parallel()
	for _, spec := range Workloads {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			opts := smoke(spec.Name, 7)
			opts.OutDir = t.TempDir()
			var sums [2]walkSummary
			res, err := trace(opts, &sums)
			if err != nil {
				t.Fatal(err)
			}
			if sums[0] != sums[1] {
				t.Errorf("bare stack:   %+v\ntraced stack: %+v", sums[0], sums[1])
			}
			if sums[0].Cas.ChunksHashed == 0 || sums[0].LeafPuts == 0 {
				t.Errorf("walk wrote nothing: %+v", sums[0])
			}
			if res.OpsFailed != 0 {
				t.Fatalf("%d operations failed: %v", res.OpsFailed, res.Failures)
			}
			if len(res.Metrics) != len(PerLayer) {
				t.Fatalf("trace reports %d metrics, want %d", len(res.Metrics), len(PerLayer))
			}
			if _, err := os.Stat(filepath.Join(opts.OutDir, spec.Name+".spans.jsonl")); err != nil {
				t.Error(err)
			}
			// Full-size runs cover 91-99 %; at smoke scale the slices are
			// so short that the driver's own bookkeeping weighs more.
			if c := res.Diag["span_coverage_pct"]; c < 75 {
				t.Errorf("spans cover %.1f%% of cycle wall time, want >= 75%% at smoke scale", c)
			}
			present := map[string]bool{
				"remote.gets_per_resume":     spec.Name == "cold_recover",
				"cache.hit_pct":              spec.Name == "cold_recover",
				"replica.put_fanout":         spec.Name == "fleet_mixed",
				"shard.balance_factor":       spec.Name == "fleet_mixed",
				"fleet.retain_ms_p50":        spec.Name == "fleet_mixed",
				"readserve.l1_hit_pct":       spec.Name == "fleet_mixed",
				"train.step_ms_p50":          true,
				"cas.write_round_ms_p50":     true,
				"storage.backend_put_ops":    true,
				"core.recover_self_ms_p50":   true,
				"readserve.pool_self_ms_p50": true,
			}
			for name, want := range present {
				if got := res.Metrics[name].Value != 0; got != want {
					t.Errorf("%s = %v on %s", name, res.Metrics[name].Value, spec.Name)
				}
			}
		})
	}
}

// A mistyped workload must not read as an A/A pass.
func TestAARejectsUnknownWorkload(t *testing.T) {
	if err := AA(io.Discard, 1, 1, 1, "pec_trian"); err == nil {
		t.Error("A/A over an unknown workload returned no error")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v, want 1, 3", q1, q3)
	}
}

func TestUnionLenCountsOverlapOnce(t *testing.T) {
	got := unionLen([]interval{{10, 20}, {0, 5}, {15, 30}, {4, 5}})
	if got != 25 {
		t.Errorf("unionLen = %d, want 25", got)
	}
}
