package bench

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"moc"
	"moc/internal/core"
	"moc/internal/data"
	"moc/internal/model"
	"moc/internal/rng"
	"moc/internal/simtime"
	"moc/internal/storage"
	"moc/internal/storage/cache"
	"moc/internal/storage/cas"
	"moc/internal/storage/fleet"
	"moc/internal/storage/readserve"
	"moc/internal/storage/remote"
	"moc/internal/storage/replica"
	"moc/internal/storage/shard"
	"moc/internal/train"
)

// The traced walk builds the workload's stack from the internal packages
// and makes the calls System makes, one at a time on the driver goroutine,
// with a span around each. The checkpoint agent is driven in lock-step —
// TrySnapshot+WaitSnapshot, then Flush — so at any moment exactly one
// layer is working: the span around the snapshot wait is the snapshot
// tier's copy, the span around the flush is cas.WriteRound (plus one
// channel hand-off). Storage tiers below cas are separated by spanStores.

const (
	walkCyclesPerRun = 6 // traced cycles of a run of RunSeconds
	walkBuffers      = 3 // System's default triple buffer
	walkNodes        = 2 // System's default simulated node count
	walkWindow       = 8 // System's default context window
)

// walkJob is the walk's stand-in for one System.
type walkJob struct {
	id      string
	tcfg    train.Config
	model   *train.Model
	corpus  *data.Corpus
	agent   *core.Agent
	sess    *fleet.Session // nil off the fleet
	plt     *core.PLTTracker
	seq     *core.SequentialSelector
	variant train.Variant

	round         int
	nextFaultNode int
	committedIter int
	lastLoss      float64
}

// roundRecord is what one checkpoint round measured, for the floors and
// the per-round counters.
type roundRecord struct {
	captureBytes  int64
	snapshotNs    int64
	writeRoundID  int32 // span id (-1 untraced)
	snapMallocs   uint64
	persistAllocs uint64
	hashedBytes   int64 // bytes that went through the hash stage
}

type walk struct {
	bootCounters
	spec    Spec
	seed    uint64
	rec     *recorder
	jobs    []*walkJob
	serving *restoreReader
	casOpts cas.Options

	// The stack, bottom up. Spans are nil on an untraced walk.
	mems         []*storage.MemStore
	remoteSt     *remote.Store
	cacheSt      *cache.Store
	replicas     []*replica.Store
	replicaSpans []*spanStore
	svc          *fleet.Service
	tier         *readserve.Tier
	backend      storage.PersistStore // what agents persist through
	reader       storage.PersistStore // what the serving reader opens
	top          *spanStore           // the spanStore directly under cas

	// Measurements.
	rounds          []roundRecord
	trainRate       *samples // iterations per second, one sample per train slice
	stallNs         *samples
	recovered       int64
	fromSnapshot    int64
	resumes         int
	resumeGets      int64
	resumeSim       float64
	roundPuts       int64
	roundSim        float64
	retainRemoved   int
	scrubVerified   int
	scrubSyncCopies int
	batches         int
	readerGets      int64
	allocs          *allocSample
	memcpyRatio     *samples
	hashFloors      []hashFloor
	closedCas       cas.Stats
	closedWait      time.Duration
	closedSkipped   int
	checks
}

// hashFloor pairs one round's WriteRound span with the time one SHA-256
// pass over the bytes that round hashed takes.
type hashFloor struct {
	spanID  int32
	floorNs float64
}

func (w *walk) pecOn() bool {
	return w.spec.Model.KSnapshot > 0 && w.spec.Model.KSnapshot < w.spec.Model.Experts
}

// buildWalk builds the stack (traced when rec is non-nil), warms the base
// job up and writes every job's bootstrap checkpoint.
func buildWalk(spec Spec, seed uint64, rec *recorder) (*walk, error) {
	w := &walk{
		spec: spec, seed: seed, rec: rec,
		serving:     newRestoreReader(rng.New(seed ^ 0x9e3779b97f4a7c15)),
		trainRate:   newSamples(64),
		stallNs:     newSamples(1024),
		memcpyRatio: newSamples(64),
		allocs:      newAllocSample(),
	}
	chunking := cas.ChunkingFixed
	if spec.Model.Chunking == moc.ChunkingCDC {
		chunking = cas.ChunkingCDC
	}
	w.casOpts = cas.Options{Chunking: chunking}

	leaf := func(above **spanStore) storage.PersistStore {
		mem := storage.NewMemStore()
		w.mems = append(w.mems, mem)
		st, sp := traceStore(rec, "storage", mem, nil)
		*above = sp
		return st
	}
	var err error
	switch spec.Name {
	case "pec_train", "full_persist":
		w.backend = leaf(&w.top)
		w.reader = w.backend
	case "cold_recover":
		var leafSpan *spanStore
		inner := leaf(&leafSpan)
		w.remoteSt, err = remote.New(remote.Config{
			LatencySeconds: remoteLatency, UploadBps: 1 << 30, DownloadBps: 1 << 30,
			MaxConcurrent: 8, SleepScale: spec.RemoteSleepScale, Inner: inner,
		})
		if err != nil {
			return nil, err
		}
		remoteT, remoteSpan := traceStore(rec, "remote", w.remoteSt, nil)
		if w.cacheSt, err = cache.New(remoteT, 256<<20); err != nil {
			return nil, err
		}
		w.backend, w.top = traceStore(rec, "cache", w.cacheSt, nil)
		if rec != nil {
			leafSpan.above, remoteSpan.above = remoteSpan, w.top
		}
		w.reader = w.backend
	case "fleet_mixed":
		shards := make([]storage.PersistStore, 4)
		for i := range shards {
			var a, b *spanStore
			rep, err := replica.New(leaf(&a), leaf(&b))
			if err != nil {
				return nil, err
			}
			w.replicas = append(w.replicas, rep)
			var repSpan *spanStore
			shards[i], repSpan = traceStore(rec, "replica", rep, nil)
			if rec != nil {
				a.above, b.above = repSpan, repSpan
				w.replicaSpans = append(w.replicaSpans, repSpan)
			}
		}
		router, err := shard.New(shard.Config{Stores: shards})
		if err != nil {
			return nil, err
		}
		w.backend, w.top = traceStore(rec, "shard", router, nil)
		for _, rs := range w.replicaSpans {
			rs.above = w.top
		}
		w.svc, err = fleet.Open(w.backend, fleet.Config{LeaseTTL: 10 * time.Minute, ReadTier: &readserve.Config{}})
		if err != nil {
			return nil, err
		}
		if w.tier, err = readserve.New(w.backend, readserve.Config{}); err != nil {
			return nil, err
		}
		if w.reader, err = w.tier.NewNode(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bench: no stack for workload %q", spec.Name)
	}

	mc := model.TinyMoE(spec.Model.Layers, spec.Model.Hidden, spec.Model.Experts, spec.Model.TopK)
	tcfg := train.Config{
		Model: mc, Window: walkWindow, BatchSize: spec.Model.BatchSize, LR: 0.01, Seed: seed,
		AuxLossCoeff: spec.Model.AuxLossCoeff,
	}
	base, err := w.newJob("base", "", tcfg, data.NewCorpus("pretrain", mc.VocabSize, data.PretrainDomain))
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.Warmup; i++ {
		if err := w.step(base); err != nil {
			return nil, err
		}
	}
	if _, err := w.checkpoint(base); err != nil {
		return nil, err
	}
	if w.svc != nil {
		for i, freeze := range []bool{false, true} {
			fc := tcfg
			fc.FreezeExperts = freeze
			name := fmt.Sprintf("ft-%d", i)
			corpus := data.Blend(name,
				data.NewCorpus("a", mc.VocabSize, seed*2+uint64(i)+11),
				data.NewCorpus("b", mc.VocabSize, seed*2+uint64(i)+12), 0.5)
			f, err := w.newJob(name, base.id, fc, corpus)
			if err != nil {
				return nil, err
			}
			// Fork: the parent's full state restored into the new model.
			payload := base.model.Capture(nil, train.VariantFull())
			recd := make(map[string]core.RecoveredModule, len(payload))
			for k, b := range payload {
				recd[k] = core.RecoveredModule{Blob: b}
			}
			if _, err := f.model.Restore(recd); err != nil {
				return nil, err
			}
			for s := 0; s < spec.Warmup/8; s++ {
				if err := w.step(f); err != nil {
					return nil, err
				}
			}
			if _, err := w.checkpoint(f); err != nil {
				return nil, err
			}
		}
	}
	// Set-up rounds are not measurements.
	w.rounds, w.stallNs.v = w.rounds[:0], w.stallNs.v[:0]
	w.markBoot()
	return w, nil
}

func (w *walk) newJob(id, parent string, tcfg train.Config, corpus *data.Corpus) (*walkJob, error) {
	m, err := train.New(tcfg)
	if err != nil {
		return nil, err
	}
	j := &walkJob{
		id: id, tcfg: tcfg, model: m, corpus: corpus,
		plt: core.NewPLTTracker(m.NumMoELayers(), tcfg.Model.NumExperts),
		seq: core.NewSequentialSelector(m.NumMoELayers(), tcfg.Model.NumExperts),
	}
	if w.pecOn() {
		j.variant = train.VariantWO()
	}
	if err := w.attach(j, parent); err != nil {
		return nil, err
	}
	w.jobs = append(w.jobs, j)
	return j, nil
}

// attach opens the job's checkpoint agent: over the fleet session's
// fenced backend on the fleet, straight over the stack otherwise.
func (w *walk) attach(j *walkJob, parent string) error {
	persist, opts := w.backend, w.casOpts
	if w.svc != nil {
		sess, err := w.svc.AcquireOrRegister(j.id, parent)
		if err != nil {
			return err
		}
		j.sess, persist, opts = sess, sess.Backend(), sess.Options(opts)
	}
	id := w.rec.begin("core", "NewAgent")
	agent, err := core.NewAgentWithOptions(storage.NewSnapshotStore(), persist, walkBuffers, opts)
	w.rec.end(id)
	if err != nil {
		return err
	}
	if j.sess != nil {
		j.sess.Track(agent.Store())
	}
	j.agent = agent
	return nil
}

func (w *walk) close() error {
	var first error
	for _, j := range w.jobs {
		if err := j.agent.Close(); err != nil && first == nil {
			first = err
		}
		if j.sess != nil {
			if err := j.sess.Release(); err != nil && first == nil {
				first = err
			}
		}
	}
	if w.svc != nil {
		if err := w.svc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (w *walk) step(j *walkJob) error {
	w.ops++
	id := w.rec.begin("data", "Corpus.Batch")
	batch := j.corpus.Batch(w.seed, j.model.Iteration(), j.tcfg.BatchSize, j.tcfg.Window)
	w.rec.end(id)
	id = w.rec.begin("train", "Model.TrainBatch")
	st, err := j.model.TrainBatch(batch)
	w.rec.end(id)
	if err != nil {
		return err
	}
	j.lastLoss = st.Loss
	for l, r := range st.Routings {
		j.plt.RecordBatch(l, r.PerExpertFloat(), float64(r.RoutedSlots))
	}
	return nil
}

// allocSample reads the process's cumulative heap object count without
// stopping the world (runtime.ReadMemStats would, for long enough that the
// persist worker finishes a round behind the driver's back).
type allocSample [1]metrics.Sample

func newAllocSample() *allocSample {
	return &allocSample{{Name: "/gc/heap/allocs:objects"}}
}

func (a *allocSample) objects() uint64 {
	metrics.Read(a[:])
	return a[0].Value.Uint64()
}

// checkpoint is System.checkpoint in lock-step: select, capture,
// snapshot, persist, each finished before the next starts. It returns the
// stall (capture plus snapshot), which is what CheckpointNow blocks for.
func (w *walk) checkpoint(j *walkJob) (time.Duration, error) {
	w.ops++
	cfg := w.spec.Model
	var snapSel, persistSel *core.Selection
	id := w.rec.begin("core", "Selector.Select")
	if j.round > 0 && w.pecOn() {
		snapSel = j.seq.SelectWithStride(j.round, cfg.KSnapshot, min(cfg.KPersist, cfg.KSnapshot))
	}
	persistSel = snapSel
	if snapSel != nil && cfg.KPersist < cfg.KSnapshot {
		persistSel = snapSel.Subset(cfg.KPersist)
	}
	w.rec.end(id)

	t0 := simtime.WallNow()
	id = w.rec.begin("train", "Model.Capture")
	payload := j.model.Capture(snapSel, j.variant)
	var captured int64
	for _, b := range payload {
		captured += int64(len(b))
	}
	w.rec.endBytes(id, captured)
	filter := j.model.PersistFilter(persistSel, j.variant)

	rr := roundRecord{captureBytes: captured, writeRoundID: -1}
	var remote0 remote.Metrics
	if w.remoteSt != nil {
		remote0 = w.remoteSt.Metrics()
	}
	cs0 := j.agent.StorageStats()
	m0 := w.allocs.objects()
	t1 := simtime.WallNow()
	id = w.rec.begin("storage", "SnapshotStore.Put")
	if !j.agent.TrySnapshot(j.round, func() (core.CheckpointData, error) { return payload, nil }, filter) {
		w.rec.end(id)
		return 0, fmt.Errorf("bench: snapshot trigger refused with the pipeline idle")
	}
	err := j.agent.WaitSnapshot()
	w.rec.endBytes(id, captured)
	if err != nil {
		return 0, err
	}
	// The persist worker picks the round up the moment the snapshot is
	// done, so the WriteRound span opens before any bookkeeping.
	rr.writeRoundID = w.rec.begin("cas", "Store.WriteRound")
	t2 := simtime.WallNow()
	m1 := w.allocs.objects()
	err = j.agent.Flush()
	w.rec.end(rr.writeRoundID)
	if err != nil {
		return 0, err
	}
	rr.snapshotNs = int64(t2.Sub(t1))
	stall := t2.Sub(t0)
	rr.snapMallocs = m1 - m0
	rr.persistAllocs = w.allocs.objects() - m1
	cs1 := j.agent.StorageStats()
	rr.hashedBytes = (cs1.LogicalBytes - cs1.BytesUnchanged) - (cs0.LogicalBytes - cs0.BytesUnchanged)
	if w.remoteSt != nil {
		m := w.remoteSt.Metrics()
		w.roundPuts += m.PutOps - remote0.PutOps
		w.roundSim += m.SimSeconds - remote0.SimSeconds
	}

	j.plt.RecordSnapshot(snapSel)
	j.plt.RecordPersist(persistSel)
	j.round++
	j.committedIter = j.model.Iteration()
	w.rounds = append(w.rounds, rr)
	return stall, nil
}

// floors measures, for the round just written, the two physical floors
// its layers are compared with: one copy of the captured bytes (against
// the snapshot tier) and one SHA-256 pass over the bytes the round hashed
// (against cas.WriteRound's self time). They run in their own spans so
// they are neither attributed to a layer nor missing from the cycle.
func (w *walk) floors(j *walkJob) {
	if w.rec == nil || len(w.rounds) == 0 {
		return
	}
	rr := w.rounds[len(w.rounds)-1]
	payload := j.model.Capture(nil, j.variant)
	var scratch []byte
	var total int64
	for _, b := range payload {
		if len(b) > len(scratch) {
			scratch = make([]byte, len(b))
		}
		total += int64(len(b))
	}
	id := w.rec.begin("bench", "floor.memcpy")
	t := simtime.WallNow()
	for _, b := range payload {
		copy(scratch, b)
	}
	copyNs := int64(simtime.WallSince(t))
	w.rec.endBytes(id, total)
	if copyNs > 0 && total > 0 && rr.captureBytes > 0 {
		// Scale the floor to the bytes the round actually captured.
		floor := float64(copyNs) * float64(rr.captureBytes) / float64(total)
		w.memcpyRatio.add(float64(rr.snapshotNs) / floor)
	}

	id = w.rec.begin("bench", "floor.sha256")
	t = simtime.WallNow()
	for _, b := range payload {
		sum := sha256.Sum256(b)
		hashSink ^= sum[0]
	}
	hashNs := int64(simtime.WallSince(t))
	w.rec.endBytes(id, total)
	if total > 0 && rr.hashedBytes > 0 {
		w.hashFloors = append(w.hashFloors, hashFloor{
			spanID:  rr.writeRoundID,
			floorNs: float64(hashNs) * float64(rr.hashedBytes) / float64(total),
		})
	}
}

// hashSink keeps the floor's digests observable so the pass is not
// optimised away.
var hashSink byte

// recover is System.InjectFault: the failed node's snapshots are lost,
// the rest recover from memory, everything else from storage.
func (w *walk) recover(j *walkJob) error {
	w.ops++
	failed := j.nextFaultNode % walkNodes
	j.nextFaultNode++
	var surviving func(string) bool
	if w.spec.Model.TwoLevelRecovery {
		surviving = func(module string) bool {
			name := strings.TrimSuffix(strings.TrimSuffix(module, "/w"), "/opt")
			if _, e, ok := j.model.IsExpertModule(name); ok {
				return e%walkNodes != failed
			}
			return true
		}
	}
	var gets0 int64
	if w.remoteSt != nil {
		gets0 = w.remoteSt.Metrics().GetOps
	}
	id := w.rec.begin("core", "Agent.Recover")
	recd, err := j.agent.Recover(surviving)
	w.rec.end(id)
	if err != nil {
		return err
	}
	if w.remoteSt != nil {
		if n := w.remoteSt.Metrics().GetOps - gets0; n != 0 {
			w.fail("%s: warm recover issued %d remote gets", j.id, n)
		}
	}
	for _, m := range recd {
		w.recovered++
		if m.FromSnapshot {
			w.fromSnapshot++
		}
	}
	id = w.rec.begin("train", "Model.Restore")
	it, err := j.model.Restore(recd)
	w.rec.end(id)
	if err != nil {
		return err
	}
	if it != j.committedIter {
		w.fail("%s: recovered to iteration %d, checkpoint was at %d", j.id, it, j.committedIter)
	}
	if w.spec.Model.TwoLevelRecovery {
		j.plt.RecordFaultTwoLevel(func(_, e int) bool { return e%walkNodes != failed })
	} else {
		j.plt.RecordFault()
	}
	return nil
}

// resume is NewSystem{Resume: true}: a fresh agent over the same store,
// opened cold, recovering everything from storage. Off the fleet the old
// agent stays and the state lands in a scratch model; on the fleet the
// lease allows one holder, so the resumed agent replaces the job's, as a
// restarted process would (full checkpoints: restoring in place loses
// nothing).
func (w *walk) resume(j *walkJob) error {
	w.ops++
	if w.cacheSt != nil {
		w.cacheSt.Drop()
	}
	var m0 remote.Metrics
	if w.remoteSt != nil {
		m0 = w.remoteSt.Metrics()
	}
	target, agent := j.model, j.agent
	if w.svc == nil {
		scratch, err := train.New(j.tcfg)
		if err != nil {
			return err
		}
		target = scratch
	}
	sid := w.rec.begin("bench", "resume")
	defer w.rec.end(sid)
	if w.svc != nil {
		w.retire(j.agent)
		if err := j.agent.Close(); err != nil {
			return err
		}
		if err := j.sess.Release(); err != nil {
			return err
		}
		if err := w.attach(j, ""); err != nil {
			return err
		}
		agent = j.agent
	} else {
		fresh := &walkJob{id: j.id}
		if err := w.attach(fresh, ""); err != nil {
			return err
		}
		defer fresh.agent.Close()
		agent = fresh.agent
	}
	id := w.rec.begin("core", "Agent.Recover.cold")
	recd, err := agent.Recover(nil)
	w.rec.end(id)
	if err != nil {
		return err
	}
	id = w.rec.begin("train", "Model.Restore")
	it, err := target.Restore(recd)
	w.rec.end(id)
	if err != nil {
		return err
	}
	if it != j.committedIter {
		w.fail("%s: resumed at iteration %d, committed was %d", j.id, it, j.committedIter)
	}
	w.resumes++
	if w.remoteSt != nil {
		m := w.remoteSt.Metrics()
		w.resumeGets += m.GetOps - m0.GetOps
		w.resumeSim += m.SimSeconds - m0.SimSeconds
	}
	return nil
}

// retire folds a closing agent's counters into the walk's totals.
func (w *walk) retire(a *core.Agent) {
	as, cs := a.Stats(), a.StorageStats()
	w.closedWait += as.SnapshotWait
	w.closedSkipped += as.Skipped
	addCasStats(&w.closedCas, cs)
}

// restore is the serving reader: a store opened fresh over the reader's
// backend (which picks up new rounds), one whole-round read, then the
// Zipf subset batches through the restore pool.
func (w *walk) restore() error {
	opts := w.casOpts
	id := w.rec.begin("cas", "Open")
	st, err := cas.Open(w.reader, opts)
	w.rec.end(id)
	if err != nil {
		return err
	}
	pool, err := readserve.NewPool(st)
	if err != nil {
		return err
	}
	sizes := make(map[int]map[string]int64, restoreNewestRounds)
	if err := w.serving.aim(st.Rounds(), func(round int) []string {
		var names []string
		sizes[round] = make(map[string]int64)
		for _, m := range st.ManifestsForRound(round) {
			for _, e := range m.Modules {
				if _, seen := sizes[round][e.Module]; !seen {
					names = append(names, e.Module)
				}
				sizes[round][e.Module] = e.Size
			}
		}
		return names
	}); err != nil {
		return err
	}
	w.ops++
	id = w.rec.begin("cas", "Store.ReadRound")
	_, err = st.ReadRound(w.serving.rounds[0])
	w.rec.end(id)
	if err != nil {
		return err
	}
	var gets0 int64
	if w.tier != nil {
		gets0 = w.tier.Stats().BackendGets
	}
	read := func(round int, modules []string) (map[string][]byte, error) {
		id := w.rec.begin("readserve", "Pool.ReadModules")
		defer w.rec.end(id)
		return pool.ReadModules(round, modules)
	}
	size := func(round int, module string) int64 { return sizes[round][module] }
	for b := 0; b < w.spec.Batches; b++ {
		bid := w.rec.begin("bench", "restore.batch")
		err := w.serving.batch(&w.checks, read, size)
		w.rec.end(bid)
		if err != nil {
			return err
		}
		w.batches++
	}
	if w.tier != nil {
		w.readerGets += w.tier.Stats().BackendGets - gets0
	}
	return nil
}

func (w *walk) retain(cycle int) error {
	w.ops++
	if w.svc == nil {
		id := w.rec.begin("cas", "Store.Retain")
		gc, err := w.jobs[0].agent.CompactStats()
		w.rec.end(id)
		w.retainRemoved += gc.Removed()
		return err
	}
	id := w.rec.begin("fleet", "Service.Retain")
	gc, err := w.svc.Retain()
	w.rec.end(id)
	if err != nil {
		return err
	}
	w.retainRemoved += gc.Removed()
	if cycle%4 == 3 {
		if err := w.scrub(); err != nil {
			return err
		}
	}
	w.tier.Drop()
	return nil
}

func (w *walk) scrub() error {
	w.ops++
	id := w.rec.begin("fleet", "Service.Scrub")
	rep, err := w.svc.Scrub()
	w.rec.end(id)
	if err != nil {
		return err
	}
	if rep.Missing != 0 || rep.Corrupt != 0 {
		w.fail("scrub: %d missing, %d corrupt chunks", rep.Missing, rep.Corrupt)
	}
	w.scrubVerified += rep.ChunksVerified
	w.scrubSyncCopies += rep.SyncCopies
	return nil
}

func (w *walk) gc() {
	id := w.rec.begin("bench", "gc")
	runtime.GC()
	w.rec.end(id)
}

// trainSlice is the e2e train slice made synchronous: every round is
// durable before the next step starts.
func (w *walk) trainSlice(next *int) (last *walkJob, err error) {
	w.gc()
	id := w.rec.begin("bench", "slice.train")
	defer w.rec.end(id)
	t0 := simtime.WallNow()
	for g := 0; g < w.spec.Groups; g++ {
		j := w.jobs[*next%len(w.jobs)]
		*next++
		for i := 0; i < w.spec.Interval; i++ {
			if err := w.step(j); err != nil {
				return nil, err
			}
		}
		stall, err := w.checkpoint(j)
		if err != nil {
			return nil, err
		}
		w.stallNs.add(float64(stall.Nanoseconds()))
		last = j
	}
	w.trainRate.add(float64(w.spec.Groups*w.spec.Interval) / simtime.WallSince(t0).Seconds())
	return last, nil
}

// cycle runs the six slices once, in the end-to-end run's order.
func (w *walk) cycle(c int, next *[4]int) error {
	w.rec.setCycle(c)
	cid := w.rec.begin("bench", "cycle")
	defer w.rec.end(cid)
	last, err := w.trainSlice(&next[0])
	if err != nil {
		return err
	}
	pick := func(i int) *walkJob {
		j := w.jobs[next[i]%len(w.jobs)]
		next[i]++
		return j
	}
	slice := func(name string, body func() error) error {
		w.gc()
		id := w.rec.begin("bench", "slice."+name)
		defer w.rec.end(id)
		return body()
	}
	if err := slice("floors", func() error { w.floors(last); return nil }); err != nil {
		return err
	}
	if err := slice("durable", func() error {
		for i := 0; i < w.spec.Durable; i++ {
			j := pick(1)
			if err := w.step(j); err != nil {
				return err
			}
			if _, err := w.checkpoint(j); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := slice("recover", func() error {
		for i := 0; i < w.spec.Recovers; i++ {
			j := pick(2)
			if err := w.step(j); err != nil {
				return err
			}
			if _, err := w.checkpoint(j); err != nil {
				return err
			}
			if err := w.recover(j); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := slice("restore", w.restore); err != nil {
		return err
	}
	if err := slice("retain", func() error { return w.retain(c) }); err != nil {
		return err
	}
	return slice("resume", func() error {
		for i := 0; i < w.spec.Resumes; i++ {
			if err := w.resume(pick(3)); err != nil {
				return err
			}
		}
		return nil
	})
}

// leafStats sums what the in-memory backends at the bottom were asked to
// write: the one op count available traced and untraced alike.
func (w *walk) leafStats() (puts int, bytes int64) {
	for _, m := range w.mems {
		p, b := m.Stats()
		puts += p
		bytes += b
	}
	return puts, bytes
}

func addCasStats(total *cas.Stats, st cas.Stats) {
	total.RoundsWritten += st.RoundsWritten
	total.ChunksWritten += st.ChunksWritten
	total.BytesWritten += st.BytesWritten
	total.BytesDeduped += st.BytesDeduped
	total.LogicalBytes += st.LogicalBytes
	total.ChunksHashed += st.ChunksHashed
	total.ModulesUnchanged += st.ModulesUnchanged
	total.BytesUnchanged += st.BytesUnchanged
}

// casStats sums the agents' store counters, retired agents included.
func (w *walk) casStats() cas.Stats {
	total := w.closedCas
	for _, j := range w.jobs {
		addCasStats(&total, j.agent.StorageStats())
	}
	return total
}

// agentStats sums snapshot wait and skipped triggers the same way.
func (w *walk) agentStats() (wait time.Duration, skipped int) {
	wait, skipped = w.closedWait, w.closedSkipped
	for _, j := range w.jobs {
		as := j.agent.Stats()
		wait += as.SnapshotWait
		skipped += as.Skipped
	}
	return wait, skipped
}
