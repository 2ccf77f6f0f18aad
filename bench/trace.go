package bench

import (
	"fmt"
	"path/filepath"
	"strings"

	"moc/internal/simtime"
	"moc/internal/storage/cache"
	"moc/internal/storage/cas"
	"moc/internal/storage/remote"
)

// walkCycles converts a run length into traced cycles.
func walkCycles(seconds int) int {
	n := (walkCyclesPerRun*seconds + RunSeconds/2) / RunSeconds
	if n < 2 {
		n = 2
	}
	return n
}

// walkSummary is what the agreement test compares between a traced and an
// untraced walk.
type walkSummary struct {
	Cas       cas.Stats
	LeafPuts  int
	LeafBytes int64
}

func (w *walk) summary() walkSummary {
	puts, bytes := w.leafStats()
	return walkSummary{Cas: w.casStats(), LeafPuts: puts, LeafBytes: bytes}
}

// Trace runs the per-layer walk. Two stacks are built from one seed, one
// bare (no recorder, no spanStores) and one traced, and take turns cycle by
// cycle, so both see the same machine; the difference in their train-slice
// rates is the tracing overhead.
func Trace(opts Options) (*Result, error) {
	var sums [2]walkSummary
	return trace(opts, &sums)
}

// trace is Trace, also recording what the bare and the traced stack were
// asked to do (in that order) for the agreement test.
func trace(opts Options, sums *[2]walkSummary) (*Result, error) {
	spec, err := Lookup(opts.Workload)
	if err != nil {
		return nil, err
	}
	cycles := opts.Cycles
	if cycles <= 0 {
		cycles = walkCycles(opts.Seconds)
	}
	if opts.Smoke {
		spec = spec.smoke()
	}
	started := simtime.WallNow()

	bare, err := buildWalk(spec, opts.Seed, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(1 << 18)
	sid := rec.begin("bench", "setup")
	w, err := buildWalk(spec, opts.Seed, rec)
	rec.end(sid)
	if err != nil {
		return nil, err
	}
	var nextBare, next [4]int
	for c := 0; c < cycles; c++ {
		if err := bare.cycle(c, &nextBare); err != nil {
			return nil, fmt.Errorf("bench: %s bare walk cycle %d: %w", spec.Name, c, err)
		}
		if err := w.cycle(c, &next); err != nil {
			return nil, fmt.Errorf("bench: %s traced walk cycle %d: %w", spec.Name, c, err)
		}
	}
	rec.setCycle(-1)
	untraced := bare.trainRate.median()
	sums[0], sums[1] = bare.summary(), w.summary()
	if err := bare.close(); err != nil {
		return nil, err
	}
	for _, j := range w.jobs {
		w.ops++
		if _, err := j.agent.Verify(); err != nil {
			w.fail("%s: verify storage: %v", j.id, err)
		}
	}
	if w.svc != nil {
		if err := w.scrub(); err != nil {
			return nil, err
		}
	}
	values, diag, err := w.layerMetrics()
	if err != nil {
		return nil, err
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	traced := w.trainRate.median()
	values["bench.trace_overhead_pct"] = 100 * (untraced - traced) / untraced
	diag["train_iters_per_s_traced"] = traced
	diag["train_iters_per_s_untraced"] = untraced

	outDir := opts.OutDir
	if outDir == "" {
		outDir = filepath.Join("bench", "out")
	}
	if err := rec.writeJSONL(filepath.Join(outDir, spec.Name+".spans.jsonl")); err != nil {
		return nil, fmt.Errorf("bench: write spans: %w", err)
	}
	diag["spans"] = float64(len(rec.spans))
	diag["run_s"] = simtime.WallSince(started).Seconds()

	res := &Result{
		Workload: spec.Name, Seed: opts.Seed, Cycles: cycles,
		Metrics: make(map[string]Value, len(PerLayer)), Diag: diag,
		OpsTotal: w.ops, OpsFailed: w.failed, Failures: w.failures,
	}
	for _, d := range PerLayer {
		res.Metrics[d.Name] = Value{Value: values[d.Name], Unit: d.Unit}
	}
	return res, nil
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func per(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// layerMetrics turns the finished walk's spans and the layers' own
// counters into the per-layer metrics. Only spans recorded inside cycles
// count (set-up is cycle -1). Metrics of layers outside the workload's
// stack are left at 0.
func (w *walk) layerMetrics() (map[string]float64, map[string]float64, error) {
	ix := indexSpans(w.rec.spans)
	v := make(map[string]float64, len(PerLayer))
	diag := make(map[string]float64)

	measured := func(s Span) bool { return s.Cycle >= 0 }
	durs := func(layer, name string) []float64 {
		var out []float64
		for _, id := range ix.find(layer, name) {
			if s := ix.spans[id]; measured(s) {
				out = append(out, nsToMs(s.dur()))
			}
		}
		return out
	}
	selfs := func(layer, name string) []float64 {
		var out []float64
		for _, id := range ix.find(layer, name) {
			if measured(ix.spans[id]) {
				out = append(out, nsToMs(ix.self(id)))
			}
		}
		return out
	}
	rounds := len(w.rounds)

	// train
	v["train.step_ms_p50"] = median(durs("train", "Model.TrainBatch"))
	v["train.capture_ms_p50"] = median(durs("train", "Model.Capture"))
	var captureMB []float64
	for _, rr := range w.rounds {
		captureMB = append(captureMB, float64(rr.captureBytes)/1e6)
	}
	v["train.capture_mb"] = median(captureMB)
	v["train.restore_ms_p50"] = median(durs("train", "Model.Restore"))
	v["train.final_loss"] = w.jobs[0].lastLoss

	// core
	wait, skipped := w.agentStats()
	v["core.snapshot_wait_ms_per_round"] = per(nsToMs(wait.Nanoseconds()), rounds)
	v["core.skipped_triggers"] = float64(skipped)
	v["core.recover_self_ms_p50"] = median(selfs("core", "Agent.Recover"))
	v["core.snapshot_served_pct"] = pct(w.fromSnapshot, w.recovered)
	sel := durs("core", "Selector.Select")
	for i := range sel {
		sel[i] *= 1000
	}
	v["core.select_us_p50"] = median(sel)
	for _, j := range w.jobs {
		v["core.plt_pct"] += 100 * j.plt.PLT() / float64(len(w.jobs))
	}

	// storage: the snapshot tier, and the in-memory backends at the bottom.
	v["storage.snapshot_put_ms_p50"] = median(durs("storage", "SnapshotStore.Put"))
	v["storage.memcpy_floor_ratio"] = w.memcpyRatio.median()
	var snapMallocs, persistAllocs uint64
	for _, rr := range w.rounds {
		snapMallocs += rr.snapMallocs
		persistAllocs += rr.persistAllocs
	}
	v["storage.pool_allocs_per_round"] = per(float64(snapMallocs), rounds)
	var replicaPuts, leafPuts, shardSelf int64
	for _, s := range ix.spans {
		if !measured(s) {
			continue
		}
		isPut := strings.HasPrefix(s.Name, "Put")
		isGet := strings.HasPrefix(s.Name, "Get")
		switch s.Layer {
		case "storage":
			switch {
			case s.Name == "SnapshotStore.Put":
			case isPut:
				v["storage.backend_put_ops"]++
				v["storage.backend_put_ms"] += nsToMs(s.dur())
				v["storage.backend_bytes_put"] += float64(s.Bytes)
				leafPuts++
			case isGet:
				v["storage.backend_get_ops"]++
				v["storage.backend_get_ms"] += nsToMs(s.dur())
				v["storage.backend_bytes_get"] += float64(s.Bytes)
			}
		case "replica":
			if isPut {
				replicaPuts++
			}
		case "shard":
			shardSelf += ix.self(s.ID)
		}
		if w.top != nil && s.Layer == w.top.layer {
			if isPut && s.Class == "manifest" {
				v["cas.manifest_bytes_per_round"] += float64(s.Bytes)
			}
			if isGet && s.Class == "job" {
				v["fleet.fence_gets_per_commit"]++
			}
		}
	}
	v["cas.manifest_bytes_per_round"] = per(v["cas.manifest_bytes_per_round"], rounds)

	// cas
	v["cas.write_round_ms_p50"] = median(durs("cas", "Store.WriteRound"))
	v["cas.write_round_self_ms_p50"] = median(selfs("cas", "Store.WriteRound"))
	var selfNs, floorNs float64
	for _, hf := range w.hashFloors {
		selfNs += float64(ix.self(hf.spanID))
		floorNs += hf.floorNs
	}
	if floorNs > 0 {
		v["cas.hash_floor_ratio"] = selfNs / floorNs
	}
	cs := w.casStats()
	if committed := cs.RoundsWritten - w.bootCas.RoundsWritten; committed != rounds {
		return nil, nil, fmt.Errorf("bench: walk counted %d rounds, cas committed %d", rounds, committed)
	}
	v["cas.chunks_hashed_per_round"] = per(float64(cs.ChunksHashed-w.bootCas.ChunksHashed), rounds)
	v["cas.modules_unchanged_per_round"] = per(float64(cs.ModulesUnchanged-w.bootCas.ModulesUnchanged), rounds)
	v["cas.dedup_pct"] = pct(cs.BytesDeduped-w.bootCas.BytesDeduped, cs.LogicalBytes-w.bootCas.LogicalBytes)
	v["cas.read_round_ms_p50"] = median(durs("cas", "Store.ReadRound"))
	v["cas.open_ms_p50"] = median(durs("cas", "Open"))
	v["cas.retain_ms_p50"] = median(durs("cas", "Store.Retain"))
	v["cas.retain_removed"] = float64(w.retainRemoved)
	v["cas.allocs_per_round"] = per(float64(persistAllocs), rounds)

	// readserve: the pool is in every stack; the tier only on the fleet.
	var batchSelf []float64
	for _, bid := range ix.find("bench", "restore.batch") {
		var sum int64
		for _, k := range ix.children[bid] {
			if ix.spans[k].Layer == "readserve" {
				sum += ix.self(k)
			}
		}
		batchSelf = append(batchSelf, nsToMs(sum))
	}
	v["readserve.pool_self_ms_p50"] = median(batchSelf)

	if w.cacheSt != nil {
		st := w.cacheSt.Stats()
		v["cache.hit_pct"] = pct(st.Hits-w.bootCache.Hits, st.Hits-w.bootCache.Hits+st.Misses-w.bootCache.Misses)
		v["cache.miss_bytes"] = float64(st.MissBytes - w.bootCache.MissBytes)
		v["cache.evictions"] = float64(st.Evictions - w.bootCache.Evictions)
		v["cache.coalesced"] = float64(st.Coalesced - w.bootCache.Coalesced)
	}
	if w.remoteSt != nil {
		m := w.remoteSt.Metrics()
		v["remote.gets_per_resume"] = per(float64(w.resumeGets), w.resumes)
		v["remote.sim_s_per_resume"] = per(w.resumeSim, w.resumes)
		v["remote.puts_per_round"] = per(float64(w.roundPuts), rounds)
		v["remote.sim_s_per_round"] = per(w.roundSim, rounds)
		v["remote.multipart_puts"] = float64(m.MultipartPuts - w.bootRemote.MultipartPuts)
		v["remote.repeat_gets"] = float64(m.RepeatGets - w.bootRemote.RepeatGets)
		v["remote.retries"] = float64(m.Retries - w.bootRemote.Retries)
		diag["cold_resume_remote_cover_pct"] = w.remoteCover(ix)
	}
	if w.svc != nil {
		if replicaPuts > 0 {
			v["replica.put_fanout"] = float64(leafPuts) / float64(replicaPuts)
		}
		var maxPuts, sumPuts int64
		for i, rep := range w.replicas {
			v["replica.read_repairs"] += float64(rep.Repairs())
			v["replica.slow_skips"] += float64(rep.SlowSkips())
			n := w.replicaSpans[i].putCount()
			sumPuts += n
			maxPuts = max(maxPuts, n)
		}
		v["replica.sync_copies"] = float64(w.scrubSyncCopies)
		if sumPuts > 0 {
			v["shard.put_ops_max_over_mean"] = float64(maxPuts) * float64(len(w.replicas)) / float64(sumPuts)
		}
		v["shard.route_self_ms"] = nsToMs(shardSelf)
		fs, err := w.svc.Stats()
		if err != nil {
			return nil, nil, err
		}
		v["shard.balance_factor"] = fs.ShardBalance
		v["fleet.cross_job_dedup_pct"] = 100 * fs.CrossJobDedupRatio
		v["fleet.retain_ms_p50"] = median(durs("fleet", "Service.Retain"))
		v["fleet.scrub_ms_p50"] = median(durs("fleet", "Service.Scrub"))
		v["fleet.scrub_chunks_verified"] = float64(w.scrubVerified)
		v["fleet.fence_gets_per_commit"] = per(v["fleet.fence_gets_per_commit"], rounds)
		ts := w.tier.Stats()
		v["readserve.l1_hit_pct"] = 100 * ts.L1HitRatio()
		v["readserve.l2_hit_pct"] = 100 * ts.L2HitRatio()
		v["readserve.backend_gets_per_batch"] = per(float64(w.readerGets), w.batches)
		v["readserve.coalesced"] = float64(ts.L1Coalesced + ts.L2Coalesced)
	} else {
		v["fleet.fence_gets_per_commit"] = 0
	}

	// simtime: feed the timeline model the measured phase times and compare
	// its per-checkpoint overhead with the stall the walk measured. The
	// model hides the snapshot behind the next iteration's compute; the
	// implementation blocks for it, so a ratio near 0 refutes the model.
	stall := w.stallNs.median() / 1e9
	step := v["train.step_ms_p50"] / 1e3
	if step > 0 && stall > 0 {
		res, err := simtime.Run(simtime.Config{
			FB: step, Snapshot: stall, Persist: v["cas.write_round_ms_p50"] / 1e3,
			Interval: w.spec.Interval, Iterations: 1000, Buffers: walkBuffers,
		})
		if err != nil {
			return nil, nil, err
		}
		v["simtime.stall_pred_ratio"] = res.OSavePerCkpt / stall
	}

	// Diagnostics the acceptance criteria read.
	diag["rounds"] = float64(rounds)
	diag["stall_ms_p50"] = stall * 1e3
	diag["span_coverage_pct"] = w.coverage(ix)
	diag["train_slice_trainbatch_pct"] = w.trainShare(ix)
	return v, diag, nil
}

// coverage is the share of cycle wall time covered by spans other than
// the cycle and slice containers themselves.
func (w *walk) coverage(ix *spanIndex) float64 {
	var cycleNs int64
	var iv []interval
	for _, s := range ix.spans {
		if s.Cycle < 0 {
			continue
		}
		switch {
		case s.Layer == "bench" && s.Name == "cycle":
			cycleNs += s.dur()
		case s.Layer == "bench" && (strings.HasPrefix(s.Name, "slice.") || s.Name == "restore.batch" || s.Name == "resume"):
		default:
			iv = append(iv, interval{s.Start, s.End})
		}
	}
	return pct(unionLen(iv), cycleNs)
}

// trainShare is TrainBatch's share of train-slice wall time.
func (w *walk) trainShare(ix *spanIndex) float64 {
	var sliceNs, trainNs int64
	for _, id := range ix.find("bench", "slice.train") {
		if ix.spans[id].Cycle < 0 {
			continue
		}
		sliceNs += ix.spans[id].dur()
		for _, k := range ix.children[id] {
			if s := ix.spans[k]; s.Layer == "train" && s.Name == "Model.TrainBatch" {
				trainNs += ix.self(k)
			}
		}
	}
	return pct(trainNs, sliceNs)
}

// remoteCover is the smallest share of a cold resume span that the union
// of the remote tier's spans below it covers.
func (w *walk) remoteCover(ix *spanIndex) float64 {
	lowest := 100.0
	for _, id := range ix.find("bench", "resume") {
		s := ix.spans[id]
		if s.Cycle < 0 {
			continue
		}
		var iv []interval
		for _, k := range ix.descendants(id) {
			if c := ix.spans[k]; c.Layer == "remote" {
				iv = append(iv, interval{c.Start, c.End})
			}
		}
		lowest = min(lowest, pct(unionLen(iv), s.dur()))
	}
	return lowest
}

// The layers' counters at the end of set-up, subtracted from the final
// ones so that only measured cycles count.
type bootCounters struct {
	bootCas    cas.Stats
	bootCache  cache.Stats
	bootRemote remote.Metrics
}

func (w *walk) markBoot() {
	w.bootCas = w.casStats()
	if w.cacheSt != nil {
		w.bootCache = w.cacheSt.Stats()
	}
	if w.remoteSt != nil {
		w.bootRemote = w.remoteSt.Metrics()
	}
}
