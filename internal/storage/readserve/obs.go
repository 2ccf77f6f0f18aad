package readserve

import "moc/internal/obs"

// obsRestoreSeconds is the whole-restore latency (one Pool.ReadRound /
// ReadModules call, coalesced or not), populated while tracing is
// enabled from the restore span's duration.
var obsRestoreSeconds = obs.Metrics().Histogram("readserve.restore.seconds", obs.DefaultLatencyBuckets)

// registerObs re-exports the tier's two-level counters under the
// stable readserve.* names. New calls it only while obs is enabled.
func (t *Tier) registerObs() {
	m := obs.Metrics()
	gauge := func(name string, read func(Stats) float64) {
		m.GaugeFunc(name, func() float64 { return read(t.Stats()) })
	}
	gauge("readserve.l1.hits", func(st Stats) float64 { return float64(st.L1Hits) })
	gauge("readserve.l1.misses", func(st Stats) float64 { return float64(st.L1Misses) })
	gauge("readserve.l1.coalesced", func(st Stats) float64 { return float64(st.L1Coalesced) })
	gauge("readserve.l2.hits", func(st Stats) float64 { return float64(st.L2Hits) })
	gauge("readserve.l2.misses", func(st Stats) float64 { return float64(st.L2Misses) })
	gauge("readserve.l2.coalesced", func(st Stats) float64 { return float64(st.L2Coalesced) })
	gauge("readserve.backend_gets", func(st Stats) float64 { return float64(st.BackendGets) })
	gauge("readserve.promotions", func(st Stats) float64 { return float64(st.Promotions) })
	gauge("readserve.nodes", func(st Stats) float64 { return float64(st.Nodes) })
}

// registerObsPool re-exports one pool's restore/coalesce counters,
// summed across pools.
func (p *Pool) registerObs() {
	m := obs.Metrics()
	m.GaugeFunc("readserve.pool.restores", func() float64 { return float64(p.Stats().Restores) })
	m.GaugeFunc("readserve.pool.coalesced", func() float64 { return float64(p.Stats().Coalesced) })
}
