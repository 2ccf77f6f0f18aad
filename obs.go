package moc

// Public API for the unified observability layer: one process-wide
// span tracer and metrics registry (internal/obs) that every storage
// component reports into. Tracing is off by default and costs one
// atomic load per instrumentation site while off; enabling it turns on
// ring-buffered span capture across the persist pipeline, the recovery
// fan-out, the read-serving tiers, replica/shard maintenance, and the
// fleet daemon, exportable as a Chrome trace-event timeline (Perfetto)
// or JSONL. The metrics registry is always live: counters and latency
// histograms accumulate regardless, and component gauges re-export
// their stats under stable dotted names while tracing is enabled at
// construction time.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"moc/internal/fault"
	"moc/internal/obs"
	"moc/internal/simtime"
	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/readserve"
	"moc/internal/storage/remote"
)

// ObsConfig enables the observability layer for a System or Fleet.
type ObsConfig struct {
	// Enable turns on span tracing (and component gauge registration)
	// before the stack is constructed.
	Enable bool
	// RingSize is the span ring capacity in records (default 4096).
	// The ring keeps the newest records; older spans are dropped, not
	// blocked on.
	RingSize int
	// ExportPath, when set, writes a Chrome trace-event file there on
	// Close — load it in Perfetto (ui.perfetto.dev) or
	// chrome://tracing.
	ExportPath string
}

// apply enables the process-wide tracer if asked. An already-enabled
// tracer is left alone so a second System does not discard the spans
// recorded so far.
func (c ObsConfig) apply() {
	if c.Enable && !obs.Enabled() {
		obs.Enable(c.RingSize)
	}
}

// EnableObs turns on process-wide span tracing. Components constructed
// after this call also register their stat gauges with the metrics
// registry. A zero config uses the default ring size.
func EnableObs(cfg ObsConfig) { obs.Enable(cfg.RingSize) }

// DisableObs turns span tracing back off, discarding the current ring.
// Metrics counters and histograms keep accumulating.
func DisableObs() { obs.Disable() }

// ObsEnabled reports whether span tracing is on.
func ObsEnabled() bool { return obs.Enabled() }

// WriteTraceFile snapshots the span ring and writes it as a Chrome
// trace-event file (one track per component/worker lane, fault windows
// as instant events).
func WriteTraceFile(path string) error { return obs.DumpTrace(path) }

// WriteSpanFile snapshots the span ring and writes it as JSONL, one
// record per line.
func WriteSpanFile(path string) error { return obs.DumpSpans(path) }

// MetricsText renders the process-wide metrics registry as a
// Prometheus-style text snapshot.
func MetricsText() string {
	var buf bytes.Buffer
	_ = obs.Metrics().WriteProm(&buf)
	return buf.String()
}

// MetricPoint is one flattened metric value: counters and gauges map
// one-to-one; each histogram expands to .count, .sum, .p50, .p95, and
// .p99 points.
type MetricPoint struct {
	Name  string
	Kind  string // "counter", "gauge", "histogram"
	Value float64
}

// MetricsPoints snapshots the process-wide registry as a flat,
// name-sorted point list.
func MetricsPoints() []MetricPoint {
	raw := obs.Metrics().Snapshot()
	out := make([]MetricPoint, 0, len(raw))
	for _, p := range raw {
		if p.Hist == nil {
			out = append(out, MetricPoint{Name: p.Name, Kind: p.Kind, Value: p.Value})
			continue
		}
		h := p.Hist
		out = append(out,
			MetricPoint{Name: p.Name + ".count", Kind: p.Kind, Value: float64(h.Count)},
			MetricPoint{Name: p.Name + ".sum", Kind: p.Kind, Value: h.Sum})
		if h.Count > 0 {
			for _, q := range [...]struct {
				suffix string
				q      float64
			}{{".p50", 0.50}, {".p95", 0.95}, {".p99", 0.99}} {
				v := h.Quantile(q.q)
				if !math.IsNaN(v) {
					out = append(out, MetricPoint{Name: p.Name + q.suffix, Kind: p.Kind, Value: v})
				}
			}
		}
	}
	return out
}

// TraceProbeConfig shapes RunTraceProbe's persist/restore workload.
// Zero values take defaults.
type TraceProbeConfig struct {
	// Rounds is the number of persist+restore cycles (default 4).
	Rounds int
	// Modules and ModuleBytes shape each round's checkpoint payload
	// (defaults 8 modules × 64 KiB).
	Modules     int
	ModuleBytes int
	// FaultStart/FaultEnd bound the simulated remote-degradation window
	// in rounds [FaultStart, FaultEnd): the probe's object store runs
	// with stretched latency and bandwidth across those rounds,
	// annotating the trace with degrade/heal instants. Defaults to
	// round [1, 2) when Rounds ≥ 2; FaultStart < 0 disables.
	FaultStart int
	FaultEnd   int
	// RingSize overrides the span ring capacity (default 4096).
	RingSize int
	// TracePath / SpanPath, when set, receive the Chrome trace-event
	// file and the JSONL span dump.
	TracePath string
	SpanPath  string
}

// TraceProbeReport summarizes one probe run.
type TraceProbeReport struct {
	Rounds   int
	Spans    int // span records captured
	Instants int // instant annotations captured
	// FaultWindows counts remote degrade annotations in the trace.
	FaultWindows int
	// WallSeconds is the probe's elapsed wall time; SpanSeconds the
	// time covered by the probe's top-level round spans; Coverage the
	// ratio (≈1 when the trace accounts for the whole run).
	WallSeconds float64
	SpanSeconds float64
	Coverage    float64
}

// RunTraceProbe exercises the full persist/restore stack — simulated
// object store, content-addressed checkpoint store, read-serving
// restore pool — under span tracing and a timed fault window, then
// exports the timeline. It is the `mocckpt trace` workhorse and a
// self-check that the tracer accounts for the stack's wall time.
//
// The probe force-enables tracing with a fresh ring for its duration;
// if tracing was off beforehand it is turned back off on return.
func RunTraceProbe(cfg TraceProbeConfig) (TraceProbeReport, error) {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 4
	}
	if cfg.Modules <= 0 {
		cfg.Modules = 8
	}
	if cfg.ModuleBytes <= 0 {
		cfg.ModuleBytes = 64 << 10
	}
	if cfg.FaultStart == 0 && cfg.FaultEnd == 0 && cfg.Rounds >= 2 {
		cfg.FaultStart, cfg.FaultEnd = 1, 2
	}
	wasEnabled := obs.Enabled()
	obs.Enable(cfg.RingSize)
	if !wasEnabled {
		defer obs.Disable()
	}

	var sched fault.Schedule
	if cfg.FaultStart >= 0 && cfg.FaultEnd > cfg.FaultStart {
		var err error
		sched, err = fault.NewSchedule(fault.Event{
			Kind: fault.Straggle, Start: cfg.FaultStart, End: cfg.FaultEnd,
		})
		if err != nil {
			return TraceProbeReport{}, fmt.Errorf("moc: trace probe fault window: %w", err)
		}
	}

	rs, err := remote.New(remote.Config{Inner: storage.NewMemStore()})
	if err != nil {
		return TraceProbeReport{}, fmt.Errorf("moc: trace probe remote: %w", err)
	}
	st, err := cas.Open(rs, cas.Options{Writer: "trace-probe"})
	if err != nil {
		return TraceProbeReport{}, fmt.Errorf("moc: trace probe store: %w", err)
	}
	pool, err := readserve.NewPool(st)
	if err != nil {
		return TraceProbeReport{}, fmt.Errorf("moc: trace probe pool: %w", err)
	}

	rng := rand.New(rand.NewSource(1))
	modules := make(map[string][]byte, cfg.Modules)
	for m := 0; m < cfg.Modules; m++ {
		buf := make([]byte, cfg.ModuleBytes)
		rng.Read(buf)
		modules[fmt.Sprintf("module-%02d", m)] = buf
	}

	var rep TraceProbeReport
	rep.Rounds = cfg.Rounds
	var spanNs int64
	start := simtime.WallNow()
	for r := 0; r < cfg.Rounds; r++ {
		if len(sched.Starting(r)) > 0 {
			if err := rs.Degrade(6, 6); err != nil {
				return rep, fmt.Errorf("moc: trace probe degrade: %w", err)
			}
		}
		if len(sched.Ending(r)) > 0 {
			rs.ClearDegrade()
		}
		rsp := obs.Start("probe", "round").AttrInt("round", int64(r))
		// Mutate a quarter of each module in place so successive rounds
		// exercise both the dedup hit and miss paths.
		for _, buf := range modules {
			off := rng.Intn(len(buf) - len(buf)/4 + 1)
			rng.Read(buf[off : off+len(buf)/4])
		}
		psp := rsp.Child("persist")
		_, perr := st.WriteRound(r, modules)
		psp.End()
		if perr != nil {
			rsp.End()
			return rep, fmt.Errorf("moc: trace probe persist round %d: %w", r, perr)
		}
		gsp := rsp.Child("restore")
		_, gerr := pool.ReadRound(r)
		gsp.End()
		if gerr != nil {
			rsp.End()
			return rep, fmt.Errorf("moc: trace probe restore round %d: %w", r, gerr)
		}
		spanNs += rsp.End()
	}
	if len(sched.Ending(cfg.Rounds)) > 0 || len(sched.ActiveAt(cfg.Rounds-1)) > 0 {
		rs.ClearDegrade()
	}
	rep.WallSeconds = simtime.WallNow().Sub(start).Seconds()
	rep.SpanSeconds = obs.Seconds(spanNs)
	if rep.WallSeconds > 0 {
		rep.Coverage = rep.SpanSeconds / rep.WallSeconds
	}

	for _, rec := range obs.Snapshot() {
		switch rec.Kind {
		case obs.KindSpan:
			rep.Spans++
		case obs.KindInstant:
			rep.Instants++
			if rec.Op == "degrade" {
				rep.FaultWindows++
			}
		}
	}
	if cfg.TracePath != "" {
		if err := obs.DumpTrace(cfg.TracePath); err != nil {
			return rep, err
		}
	}
	if cfg.SpanPath != "" {
		if err := obs.DumpSpans(cfg.SpanPath); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
