package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"moc"
	"moc/internal/obs"
	"moc/internal/simtime"
	"moc/internal/storage/cache"
	"moc/internal/storage/cas"
)

// runTop enables the metrics layer (internal/obs), rebuilds the stats
// storage stack — the directory behind the object-store cost model
// behind the LRU chunk cache — and replays reads through it so every
// tier's gauges have something to report. One-shot it prints the
// name-sorted registry snapshot; under -watch a background replay loop
// drives load while it samples the registry -ticks times, printing the
// delta rate of every metric that moved between samples.
func runTop(c *cli) error {
	if c.intervalS <= 0 || c.ticks <= 0 {
		return errors.New("top: -interval and -ticks must be positive")
	}
	obs.Enable(obs.DefaultRingSize)
	defer obs.Disable()
	rs, err := c.remote(0)
	if err != nil {
		return err
	}
	cs, err := cache.New(rs, int64(c.cacheMB)<<20)
	if err != nil {
		return err
	}
	store, err := cas.Open(cs, cas.Options{})
	if err != nil {
		return err
	}
	manifests := store.Manifests()
	if len(manifests) == 0 {
		return fmt.Errorf("top: no checkpoints in the store")
	}
	if !c.watch {
		if err := replay(store, manifests); err != nil {
			return err
		}
		printSnapshot(c.out, obs.Metrics().Snapshot())
		return nil
	}

	var stop atomic.Bool
	done := make(chan error, 1) // the replay loop's exit: an error, or nil once stopped
	go func() {
		var err error
		for err == nil && !stop.Load() {
			err = replay(store, manifests)
		}
		done <- err
	}()
	prev, prevAt := pointValues(obs.Metrics().Snapshot()), simtime.WallNow()
	interval := time.Duration(c.intervalS * float64(time.Second))
	for i := 0; i < c.ticks; i++ {
		simtime.SleepWall(interval)
		select {
		case err := <-done:
			return err
		default:
		}
		cur, at := pointValues(obs.Metrics().Snapshot()), simtime.WallNow()
		printRates(c.out, i+1, prev, cur, at.Sub(prevAt).Seconds())
		prev, prevAt = cur, at
	}
	stop.Store(true)
	return <-done
}

// printSnapshot renders the full registry, histograms flattened to
// count/sum/quantiles.
func printSnapshot(w io.Writer, points []obs.Point) {
	fmt.Fprintf(w, "%-42s %-10s %s\n", "metric", "kind", "value")
	for _, p := range points {
		if p.Hist == nil {
			fmt.Fprintf(w, "%-42s %-10s %s\n", p.Name, p.Kind, fmtMetric(p.Value))
			continue
		}
		fmt.Fprintf(w, "%-42s %-10s count=%d sum=%.4fs", p.Name, p.Kind, p.Hist.Count, p.Hist.Sum)
		if p.Hist.Count > 0 {
			fmt.Fprintf(w, " p50=%.2fms p95=%.2fms p99=%.2fms",
				p.Hist.Quantile(0.50)*1000, p.Hist.Quantile(0.95)*1000, p.Hist.Quantile(0.99)*1000)
		}
		fmt.Fprintln(w)
	}
}

// pointValues flattens a snapshot into name → value (histograms report
// their observation count, so rates mean observations/s).
func pointValues(points []obs.Point) map[string]float64 {
	out := make(map[string]float64, len(points))
	for _, p := range points {
		if p.Hist != nil {
			out[p.Name] = float64(p.Hist.Count)
		} else {
			out[p.Name] = p.Value
		}
	}
	return out
}

// printRates prints one watch sample: every metric that moved since the
// previous sample, grouped by tier (the name's first dotted segment),
// with its delta rate per second.
func printRates(w io.Writer, tick int, prev, cur map[string]float64, elapsed float64) {
	if elapsed <= 0 {
		return
	}
	names := make([]string, 0, len(cur))
	for name := range cur {
		if cur[name] != prev[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "--- sample %d (%.1fs) ---\n", tick, elapsed)
	if len(names) == 0 {
		fmt.Fprintln(w, "(no movement)")
		return
	}
	lastTier := ""
	for _, name := range names {
		tier := name
		if i := strings.IndexByte(name, '.'); i > 0 {
			tier = name[:i]
		}
		if tier != lastTier {
			fmt.Fprintf(w, "%s:\n", tier)
			lastTier = tier
		}
		fmt.Fprintf(w, "  %-40s %14s %12s/s\n",
			name, fmtMetric(cur[name]), fmtMetric((cur[name]-prev[name])/elapsed))
	}
}

// fmtMetric renders a value compactly: integers without decimals,
// everything else with four significant decimals.
func fmtMetric(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}

// runTrace is the `mocckpt trace` entry: the persist/restore probe
// under span tracing (moc.RunTraceProbe), with its own flag set since
// it needs no checkpoint directory.
func runTrace(c *cli) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	rounds := fs.Int("rounds", 4, "persist+restore cycles")
	modules := fs.Int("modules", 8, "modules per round")
	moduleKB := fs.Int("module-kb", 64, "payload KiB per module")
	faultStart := fs.Int("fault-start", 1, "first round of the remote degradation window (-1 disables)")
	faultEnd := fs.Int("fault-end", 2, "first round past the degradation window")
	out := fs.String("o", "trace.json", "Chrome trace-event output path")
	spanOut := fs.String("spans", "", "optional JSONL span dump path")
	if err := fs.Parse(c.args); err != nil {
		return usageError{err}
	}
	rep, err := moc.RunTraceProbe(moc.TraceProbeConfig{
		Rounds:      *rounds,
		Modules:     *modules,
		ModuleBytes: *moduleKB << 10,
		FaultStart:  *faultStart,
		FaultEnd:    *faultEnd,
		TracePath:   *out,
		SpanPath:    *spanOut,
	})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(c.out, "trace probe: %d rounds, %d spans, %d instants (%d fault-window annotations)\n",
		rep.Rounds, rep.Spans, rep.Instants, rep.FaultWindows)
	fmt.Fprintf(c.out, "wall %.4fs, span-covered %.4fs, coverage %.1f%%\n",
		rep.WallSeconds, rep.SpanSeconds, rep.Coverage*100)
	fmt.Fprintf(c.out, "wrote %s", *out)
	if *spanOut != "" {
		fmt.Fprintf(c.out, " and %s", *spanOut)
	}
	fmt.Fprintln(c.out, " — load in ui.perfetto.dev or chrome://tracing")
	return nil
}
