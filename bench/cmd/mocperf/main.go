// Command mocperf runs one workload of the MoC benchmark and prints its
// metrics; see bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"moc/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name: pec_train, full_persist, cold_recover, fleet_mixed")
		seed     = flag.Uint64("seed", 1, "seed of every random choice (model init, corpora, Zipf restore picks)")
		seconds  = flag.Int("seconds", bench.RunSeconds, "run length: sets the cycle count, about this many seconds of measured work")
		trace    = flag.Int("trace", 0, "1 runs the per-layer traced walk instead of the end-to-end run")
		aa       = flag.Int("aa", 0, "A/A mode: two interleaved sets of N end-to-end runs per workload, exit 1 on disagreement beyond a bound")
	)
	flag.Parse()
	if *aa > 0 {
		if err := bench.AA(os.Stdout, *aa, *seed, *seconds, *workload); err != nil {
			fmt.Fprintln(os.Stderr, "mocperf:", err)
			os.Exit(1)
		}
		return
	}
	opts := bench.Options{Workload: *workload, Seed: *seed, Seconds: *seconds}
	run := bench.Run
	if *trace != 0 {
		run = bench.Trace
	}
	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mocperf:", err)
		os.Exit(1)
	}
	// Human-readable context first; the contract's JSON object is the
	// last line of standard output.
	names := make([]string, 0, len(res.Diag))
	for k := range res.Diag {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d cycles=%d ops_total=%d ops_failed=%d\n", res.Workload, res.Seed, res.Cycles, res.OpsTotal, res.OpsFailed)
	for _, k := range names {
		fmt.Printf("# %s %g\n", k, res.Diag[k])
	}
	for _, f := range res.Failures {
		fmt.Printf("# FAILED %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]bench.Value `json:"metrics"`
	}{res.OpsFailed == 0, res.OpsTotal, res.OpsFailed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mocperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if res.OpsFailed != 0 {
		os.Exit(1)
	}
}
