package bench

import (
	"math"
	"sort"
)

// MetricDef names one benchmark metric. The lists below are the single
// source of truth: BENCHMARK.json mirrors them (a test keeps the two in
// step) and every run reports exactly these names.
type MetricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // allowed worsening as a share of the parent's median (end-to-end only)
}

// EndToEnd is what a user of the system sees. Every workload reports all
// of them. The bounds come from measurement on the 2-core reference VM
// (README.md has the tables): its host flips between speed regimes ~20 %
// apart for memory-bound work, so every timing carries the largest bound
// the benchmark contract allows; the counts carry about three times
// their spread across seeds, up to the same cap (the seed initialises the
// model, so bytes after dedup and lost tokens differ from seed to seed,
// though never between two runs of one seed).
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"train_iters_per_s", "1/s", "higher", 0.25},
	{"ckpt_stall_ms_p50", "ms", "lower", 0.25},
	{"ckpt_durable_ms_p50", "ms", "lower", 0.25},
	{"recover_ms_p50", "ms", "lower", 0.25},
	{"resume_ms_p50", "ms", "lower", 0.25},
	{"restore_ms_p50", "ms", "lower", 0.25},
	{"cpu_ms_per_iter", "ms", "lower", 0.25},
	{"alloc_mb_per_iter", "MB", "lower", 0.10},
	{"host_mem_mb", "MB", "lower", 0.10},
	{"ckpt_logical_bytes_per_round", "B", "lower", 0.01},
	{"ckpt_bytes_per_round", "B", "lower", 0.25},
	{"store_bytes_per_model_byte", "B/B", "lower", 0.05},
	{"tokens_kept_pct", "%", "higher", 0.03},
}

// ExactMetrics are the end-to-end metrics that are counts, not timings:
// for one seed they must be identical on every run (to exactTolerance).
var ExactMetrics = []string{
	"ckpt_logical_bytes_per_round",
	"ckpt_bytes_per_round",
	"store_bytes_per_model_byte",
	"tokens_kept_pct",
}

// PerLayer is the traced walk's output; layer = package name. A metric
// whose layer is not in a workload's stack reads 0 there (README.md has
// the table of which layer sits in which workload, and which end-to-end
// metric each of these should move).
var PerLayer = []MetricDef{
	{"train.step_ms_p50", "ms", "lower", 0},
	{"train.capture_ms_p50", "ms", "lower", 0},
	{"train.capture_mb", "MB", "lower", 0},
	{"train.restore_ms_p50", "ms", "lower", 0},
	{"train.final_loss", "nats", "lower", 0},

	{"core.snapshot_wait_ms_per_round", "ms", "lower", 0},
	{"core.skipped_triggers", "count", "lower", 0},
	{"core.recover_self_ms_p50", "ms", "lower", 0},
	{"core.snapshot_served_pct", "%", "higher", 0},
	{"core.select_us_p50", "us", "lower", 0},
	{"core.plt_pct", "%", "lower", 0},

	{"storage.snapshot_put_ms_p50", "ms", "lower", 0},
	{"storage.memcpy_floor_ratio", "x", "lower", 0},
	{"storage.backend_put_ops", "count", "lower", 0},
	{"storage.backend_get_ops", "count", "lower", 0},
	{"storage.backend_put_ms", "ms", "lower", 0},
	{"storage.backend_get_ms", "ms", "lower", 0},
	{"storage.backend_bytes_put", "B", "lower", 0},
	{"storage.backend_bytes_get", "B", "lower", 0},
	{"storage.pool_allocs_per_round", "count", "lower", 0},

	{"cas.write_round_ms_p50", "ms", "lower", 0},
	{"cas.write_round_self_ms_p50", "ms", "lower", 0},
	{"cas.hash_floor_ratio", "x", "lower", 0},
	{"cas.chunks_hashed_per_round", "count", "lower", 0},
	{"cas.modules_unchanged_per_round", "count", "higher", 0},
	{"cas.dedup_pct", "%", "higher", 0},
	{"cas.manifest_bytes_per_round", "B", "lower", 0},
	{"cas.read_round_ms_p50", "ms", "lower", 0},
	{"cas.open_ms_p50", "ms", "lower", 0},
	{"cas.retain_ms_p50", "ms", "lower", 0},
	{"cas.retain_removed", "count", "higher", 0},
	{"cas.allocs_per_round", "count", "lower", 0},

	{"cache.hit_pct", "%", "higher", 0},
	{"cache.miss_bytes", "B", "lower", 0},
	{"cache.evictions", "count", "lower", 0},
	{"cache.coalesced", "count", "higher", 0},

	{"remote.gets_per_resume", "count", "lower", 0},
	{"remote.puts_per_round", "count", "lower", 0},
	{"remote.sim_s_per_resume", "s", "lower", 0},
	{"remote.sim_s_per_round", "s", "lower", 0},
	{"remote.multipart_puts", "count", "lower", 0},
	{"remote.repeat_gets", "count", "lower", 0},
	{"remote.retries", "count", "lower", 0},

	{"replica.put_fanout", "x", "lower", 0},
	{"replica.read_repairs", "count", "lower", 0},
	{"replica.slow_skips", "count", "lower", 0},
	{"replica.sync_copies", "count", "lower", 0},

	{"shard.balance_factor", "x", "lower", 0},
	{"shard.put_ops_max_over_mean", "x", "lower", 0},
	{"shard.route_self_ms", "ms", "lower", 0},

	{"readserve.l1_hit_pct", "%", "higher", 0},
	{"readserve.l2_hit_pct", "%", "higher", 0},
	{"readserve.backend_gets_per_batch", "count", "lower", 0},
	{"readserve.coalesced", "count", "higher", 0},
	{"readserve.pool_self_ms_p50", "ms", "lower", 0},

	{"fleet.cross_job_dedup_pct", "%", "higher", 0},
	{"fleet.retain_ms_p50", "ms", "lower", 0},
	{"fleet.scrub_ms_p50", "ms", "lower", 0},
	{"fleet.scrub_chunks_verified", "count", "higher", 0},
	{"fleet.fence_gets_per_commit", "count", "lower", 0},

	{"simtime.stall_pred_ratio", "x", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// samples is a fixed-capacity sample buffer: allocated once at set-up so
// that recording a sample inside a measured slice never allocates.
type samples struct{ v []float64 }

func newSamples(capacity int) *samples { return &samples{v: make([]float64, 0, capacity)} }

func (s *samples) add(x float64) { s.v = append(s.v, x) }

func (s *samples) n() int { return len(s.v) }

func (s *samples) median() float64 { return median(s.v) }

// cycleMedian is the median over cycles of the mean of the cycle's
// samples (every cycle adds the same number). It is the p50 of the gated
// timings: operations of one slice differ by position — recoveries
// alternate between the node that held a module's snapshot and the one
// that did not, every fourth stall on cold_recover waits for a buffer, the
// later rounds of a slice meet the garbage of the earlier ones — and the
// median over single operations of two equal modes falls between them and
// jumps with the smallest drift. A cycle's mean covers every position; the
// median over cycles still sheds the cycles the machine disturbed.
func (s *samples) cycleMedian(cycles int) float64 {
	per := len(s.v) / cycles
	if per == 0 || per*cycles != len(s.v) {
		return 0
	}
	means := make([]float64, cycles)
	for c := range means {
		for _, x := range s.v[c*per : (c+1)*per] {
			means[c] += x / float64(per)
		}
	}
	return median(means)
}

// p90 is the nearest-rank 90th percentile (0 for no samples): an ungated
// diagnostic, printed beside the sample count.
func (s *samples) p90() float64 {
	if len(s.v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.v...)
	sort.Float64s(sorted)
	return sorted[int(math.Ceil(0.9*float64(len(sorted))))-1]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	if n := len(sorted); n%2 == 0 {
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return sorted[len(sorted)/2]
}
