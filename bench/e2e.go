package bench

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"moc"
	"moc/internal/rng"
	"moc/internal/simtime"
)

// Options selects one run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds sizes the run: the cycle count is Seconds × the workload's
	// calibrated cycles per second. Work is fixed by count, never by a
	// deadline, so for one (Seed, Seconds) every count metric repeats.
	Seconds int
	// Cycles, when positive, overrides the cycle count (tests).
	Cycles int
	// Smoke runs the workload at test scale (see Spec.smoke).
	Smoke bool
	// OutDir receives <workload>.spans.jsonl on a traced run.
	OutDir string
}

// Result is one run's output.
type Result struct {
	Workload string
	Seed     uint64
	Cycles   int
	// Metrics holds every end-to-end metric (Run) or every per-layer
	// metric (Trace) by name.
	Metrics map[string]Value
	// Diag is ungated context: sample counts, p90s of the timings whose
	// p50 is gated, run wall time.
	Diag map[string]float64
	// OpsTotal counts operations attempted (steps, checkpoints, recovers,
	// resumes, restore reads, retains, verifications); OpsFailed those
	// that returned an error or failed a correctness check.
	OpsTotal, OpsFailed int
	// Failures describes the first few failed checks.
	Failures []string
}

// sliceNames are the six slices of a cycle, in order. Interleaving them
// inside every cycle makes machine drift hit all metrics equally. Resume
// is last because it drops the cache: everything before it in a cycle
// runs warm, so only resume_ms measures the cold read path.
var sliceNames = [...]string{"train", "durable", "recover", "restore", "retain", "resume"}

// checks counts the operations a run attempted and the ones that failed
// (an error, or a correctness check that did not hold).
type checks struct {
	ops, failed int
	failures    []string // the first few, for the report
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// evalSamples is the number of held-out samples of the bit-identical
// recovery check.
const evalSamples = 64

// job is one training System and the facts the driver checks it against.
type job struct {
	id     string
	cfg    moc.Config
	corpus *moc.Corpus
	sys    *moc.System
	// committedIter is the iteration of the newest checkpoint.
	committedIter int
	// closed accumulates the Stats of Systems this job closed (a fleet
	// resume replaces the job's System).
	closedLogical, closedPhysical int64
	closedRounds                  int
}

// rig is one built stack, reached only through package moc.
type rig struct {
	spec  Spec
	jobs  []*job
	store moc.PersistStore // what Systems and resumes open (nil on the fleet)
	// leaves are the in-memory backends at the bottom, for byte
	// accounting that pays no modelled latency.
	leaves []moc.PersistStore
	cached moc.CachedStore
	fleet  *moc.Fleet
	tier   *moc.ReadTier // the serving reader's standalone tier (fleet_mixed)
	pool   *moc.RestorePool
	// modelBytes is the logical size of one full-model checkpoint;
	// moduleSize the payload length of every module, from the bootstrap
	// round.
	modelBytes int64
	moduleSize map[string]int
}

func (r *rig) close() error {
	var first error
	for _, j := range r.jobs {
		if err := j.sys.Close(); err != nil && first == nil {
			first = err
		}
	}
	if r.fleet != nil {
		if err := r.fleet.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// buildRig builds the workload's stack, warms it up and writes the
// bootstrap full checkpoint: everything setup_s times.
func buildRig(spec Spec, seed uint64) (*rig, error) {
	r := &rig{spec: spec}
	cfg := spec.Model
	cfg.Seed = seed
	vocab := 256
	tuning := moc.StoreTuning{Chunking: cfg.Chunking}
	var poolBackend moc.PersistStore

	switch spec.Name {
	case "pec_train", "full_persist":
		mem := moc.NewMemStore()
		r.store, r.leaves, poolBackend = mem, []moc.PersistStore{mem}, mem
	case "cold_recover":
		mem := moc.NewMemStore()
		remote, err := moc.NewRemoteStoreOver(mem, moc.RemoteConfig{
			LatencySeconds: remoteLatency, UploadBps: 1 << 30, DownloadBps: 1 << 30,
			MaxConcurrent: 8, SleepScale: spec.RemoteSleepScale,
		})
		if err != nil {
			return nil, err
		}
		cached, err := moc.NewCachedStore(remote, 256<<20)
		if err != nil {
			return nil, err
		}
		r.store, r.cached, r.leaves, poolBackend = cached, cached, []moc.PersistStore{mem}, cached
	case "fleet_mixed":
		shards := make([]moc.PersistStore, 4)
		for i := range shards {
			a, b := moc.NewMemStore(), moc.NewMemStore()
			pair, err := moc.NewReplicatedStore(a, b)
			if err != nil {
				return nil, err
			}
			shards[i] = pair
			r.leaves = append(r.leaves, a, b)
		}
		sharded, err := moc.NewShardedStore(moc.ShardConfig{Shards: shards})
		if err != nil {
			return nil, err
		}
		r.fleet, err = moc.NewFleet(sharded, moc.FleetConfig{
			LeaseTTL: 10 * time.Minute,
			ReadTier: &moc.ReadTierConfig{},
		})
		if err != nil {
			return nil, err
		}
		r.tier, err = moc.NewReadTier(sharded, moc.ReadTierConfig{})
		if err != nil {
			return nil, err
		}
		if poolBackend, err = r.tier.NewNode(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bench: no stack for workload %q", spec.Name)
	}

	base := &job{id: "base", cfg: cfg, corpus: moc.PretrainCorpus(vocab)}
	var err error
	if r.fleet != nil {
		base.sys, err = r.fleet.NewSystemWith(cfg, base.id, base.corpus)
	} else {
		base.sys, err = moc.NewSystemOn(cfg, r.store, base.corpus)
	}
	if err != nil {
		return nil, err
	}
	r.jobs = append(r.jobs, base)
	for i := 0; i < spec.Warmup; i++ {
		if _, err := base.sys.Step(); err != nil {
			return nil, err
		}
	}
	if err := r.bootstrap(base); err != nil {
		return nil, err
	}
	r.modelBytes = base.sys.Stats().LogicalBytesPersisted

	if r.fleet != nil {
		// Two fine-tune forks of the warmed base, one with frozen experts
		// (its expert modules dedup whole against the base's chunks). The
		// fork corpora are seeded blends, so -seed moves them too.
		for i, freeze := range []bool{false, true} {
			fc := cfg
			fc.FreezeExperts = freeze
			f := &job{
				id:  fmt.Sprintf("ft-%d", i),
				cfg: fc,
				corpus: moc.NewBlendedCorpus(fmt.Sprintf("ft-%d", i), vocab,
					seed*2+uint64(i)+11, seed*2+uint64(i)+12, 0.5),
			}
			f.sys, err = base.sys.ForkOnFleet(r.fleet, f.id, f.corpus, fc)
			if err != nil {
				return nil, err
			}
			r.jobs = append(r.jobs, f)
			for s := 0; s < spec.Warmup/8; s++ {
				if _, err := f.sys.Step(); err != nil {
					return nil, err
				}
			}
			if err := r.bootstrap(f); err != nil {
				return nil, err
			}
		}
	}

	if r.pool, err = moc.NewRestorePool(poolBackend, tuning); err != nil {
		return nil, err
	}
	full, err := r.pool.ReadRound(0)
	if err != nil {
		return nil, fmt.Errorf("bench: read bootstrap round: %w", err)
	}
	r.moduleSize = make(map[string]int, len(full))
	for name, blob := range full {
		r.moduleSize[name] = len(blob)
	}
	return r, nil
}

// bootstrap writes a job's first (always full) checkpoint and makes it
// durable.
func (r *rig) bootstrap(j *job) error {
	if err := j.sys.CheckpointNow(); err != nil {
		return err
	}
	j.committedIter = j.sys.Iteration()
	return j.sys.FlushCheckpoints()
}

// run is the measuring state of one end-to-end run. Every sample buffer
// is allocated before the first cycle.
type run struct {
	*rig
	reader *restoreReader

	// One sample per operation; the gated p50 is samples.cycleMedian.
	stall, durable, recov, resume, restore *samples

	// Per-train-slice rates: the reported value is the median over
	// slices, so one slow patch of the machine moves one sample, not the
	// metric. Allocation is a count and is summed.
	trainRate, trainCPU *samples
	trainIters          int
	trainAlloc          uint64

	nextTrain, nextDurable, nextRecover, nextResume int

	checks
}

func (r *run) pick(next *int) *job {
	j := r.jobs[*next%len(r.jobs)]
	*next++
	return j
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// spin times a fixed piece of arithmetic that touches no memory. The
// reference VM's host flips between speed regimes minutes long (this
// probe reads ~0.85 ms in the fast one and ~0.91 ms in the slow one, where
// memory-bound work is ~20 % slower); it is reported as a diagnostic so
// that a slow run can be told from a slow program.
func spin() float64 {
	t := simtime.WallNow()
	x, acc := uint64(88172645463325252), 0.0
	for i := 0; i < 400000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += float64(x>>40) * 1e-9
	}
	spinSink = acc
	return ms(simtime.WallSince(t))
}

var spinSink float64

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (r *run) step(j *job) error {
	r.ops++
	_, err := j.sys.Step()
	return err
}

func (r *run) checkpoint(j *job) error {
	r.ops++
	if err := j.sys.CheckpointNow(); err != nil {
		return err
	}
	j.committedIter = j.sys.Iteration()
	return nil
}

// trainSlice is the paper's loop: Interval steps, one checkpoint whose
// persist runs behind the next steps, and one flush at the end so every
// round the slice started is paid for inside it.
func (r *run) trainSlice() error {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := simtime.WallNow()
	for g := 0; g < r.spec.Groups; g++ {
		j := r.pick(&r.nextTrain)
		for i := 0; i < r.spec.Interval; i++ {
			if err := r.step(j); err != nil {
				return err
			}
		}
		t := simtime.WallNow()
		if err := r.checkpoint(j); err != nil {
			return err
		}
		r.stall.add(ms(simtime.WallSince(t)))
	}
	for _, j := range r.jobs {
		if err := j.sys.FlushCheckpoints(); err != nil {
			return err
		}
	}
	wall, cpu := simtime.WallSince(t0), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	iters := r.spec.Groups * r.spec.Interval
	r.trainRate.add(float64(iters) / wall.Seconds())
	r.trainCPU.add(ms(cpu) / float64(iters))
	r.trainAlloc += m1.TotalAlloc - m0.TotalAlloc
	r.trainIters += iters
	return nil
}

// durableSlice times checkpoint-to-durable: the stall plus the whole
// persist pipeline, with nothing to hide behind.
func (r *run) durableSlice() error {
	runtime.GC()
	for i := 0; i < r.spec.Durable; i++ {
		j := r.pick(&r.nextDurable)
		if err := r.step(j); err != nil {
			return err
		}
		t := simtime.WallNow()
		if err := r.checkpoint(j); err != nil {
			return err
		}
		if err := j.sys.FlushCheckpoints(); err != nil {
			return err
		}
		r.durable.add(ms(simtime.WallSince(t)))
	}
	return nil
}

// recoverSlice times fault-to-recovered-model with caches warm. Without
// PEC the recovered model must evaluate bit-for-bit like the checkpointed
// one.
func (r *run) recoverSlice() error {
	runtime.GC()
	for i := 0; i < r.spec.Recovers; i++ {
		j := r.pick(&r.nextRecover)
		if err := r.step(j); err != nil {
			return err
		}
		if err := r.checkpoint(j); err != nil {
			return err
		}
		if err := j.sys.FlushCheckpoints(); err != nil {
			return err
		}
		lossless := j.cfg.KSnapshot == 0
		var loss0, acc0 float64
		var err error
		if lossless {
			if loss0, acc0, err = j.sys.Evaluate(evalSamples); err != nil {
				return err
			}
		}
		r.ops++
		t := simtime.WallNow()
		if err := j.sys.InjectFault(); err != nil {
			return err
		}
		r.recov.add(ms(simtime.WallSince(t)))
		if got := j.sys.Iteration(); got != j.committedIter {
			r.fail("%s: recovered to iteration %d, checkpoint was at %d", j.id, got, j.committedIter)
		}
		if lossless {
			loss1, acc1, err := j.sys.Evaluate(evalSamples)
			if err != nil {
				return err
			}
			if math.Float64bits(loss0) != math.Float64bits(loss1) || acc0 != acc1 {
				r.fail("%s: recovered model evaluates to loss %v, checkpointed one to %v", j.id, loss1, loss0)
			}
		}
	}
	return nil
}

// resumeSlice times a process restart: a fresh System reopening the
// store cold (any cache dropped) and restoring the newest checkpoint. On
// the fleet the resumed System replaces the job's (the lease allows one
// holder); elsewhere it is closed again.
func (r *run) resumeSlice() error {
	runtime.GC()
	for i := 0; i < r.spec.Resumes; i++ {
		j := r.pick(&r.nextResume)
		if err := j.sys.FlushCheckpoints(); err != nil {
			return err
		}
		cfg := j.cfg
		cfg.Resume = true
		if r.cached != nil {
			r.cached.Drop()
		}
		r.ops++
		if r.fleet != nil {
			st := j.sys.Stats()
			j.closedLogical += st.LogicalBytesPersisted
			j.closedPhysical += st.PhysicalBytesPersisted
			j.closedRounds += st.Checkpoints
			if err := j.sys.Close(); err != nil {
				return err
			}
		}
		var fresh *moc.System
		var err error
		t := simtime.WallNow()
		if r.fleet != nil {
			fresh, err = r.fleet.NewSystemWith(cfg, j.id, j.corpus)
		} else {
			fresh, err = moc.NewSystemOn(cfg, r.store, j.corpus)
		}
		r.resume.add(ms(simtime.WallSince(t)))
		if err != nil {
			return err
		}
		if got := fresh.Iteration(); got != j.committedIter {
			r.fail("%s: resumed at iteration %d, committed was %d", j.id, got, j.committedIter)
		}
		if r.fleet != nil {
			j.sys = fresh
		} else if err := fresh.Close(); err != nil {
			return err
		}
	}
	return nil
}

// restoreSlice is the serving reader: each timed batch is 32 subset reads
// of the 3 newest rounds the pool knows.
func (r *run) restoreSlice() error {
	runtime.GC()
	if err := r.reader.aim(r.pool.Rounds(), r.pool.Modules); err != nil {
		return err
	}
	size := func(_ int, module string) int64 { return int64(r.moduleSize[module]) }
	for b := 0; b < r.spec.Batches; b++ {
		t := simtime.WallNow()
		if err := r.reader.batch(&r.checks, r.pool.ReadModules, size); err != nil {
			return err
		}
		r.restore.add(ms(simtime.WallSince(t)))
	}
	return nil
}

// retainSlice garbage-collects. A standalone read tier caches chunk and
// manifest keys below the pool, so it is dropped and the pool refreshed
// after every sweep: skipping this made a prototype read a swept chunk.
func (r *run) retainSlice(cycle int) error {
	runtime.GC()
	r.ops++
	if r.fleet != nil {
		if _, err := r.fleet.Retain(); err != nil {
			return err
		}
		if cycle%4 == 3 {
			if err := r.scrub(); err != nil {
				return err
			}
		}
	} else if _, err := r.jobs[0].sys.CompactStorage(); err != nil {
		return err
	}
	if r.tier != nil {
		r.tier.Drop()
	}
	return r.pool.Refresh()
}

// scrub runs one fleet scrub pass; any missing or corrupt chunk is a
// failed check.
func (r *run) scrub() error {
	r.ops++
	rep, err := r.fleet.Scrub()
	if err != nil {
		return err
	}
	if rep.Missing != 0 || rep.Corrupt != 0 {
		r.fail("scrub: %d missing, %d corrupt chunks", rep.Missing, rep.Corrupt)
	}
	return nil
}

// totals sums the checkpoint counters of every job, including Systems a
// fleet resume closed.
func (r *run) totals() (rounds int, logical, physical int64) {
	for _, j := range r.jobs {
		st := j.sys.Stats()
		rounds += j.closedRounds + st.Checkpoints
		logical += j.closedLogical + st.LogicalBytesPersisted
		physical += j.closedPhysical + st.PhysicalBytesPersisted
	}
	return rounds, logical, physical
}

// storeBytes sums what the in-memory backends at the bottom hold.
func (r *rig) storeBytes() (int64, error) {
	var total int64
	for _, leaf := range r.leaves {
		keys, err := leaf.Keys("")
		if err != nil {
			return 0, err
		}
		for _, k := range keys {
			b, err := leaf.Get(k)
			if err != nil {
				return 0, err
			}
			total += int64(len(b))
		}
	}
	return total, nil
}

// Run executes one end-to-end run with tracing off.
func Run(opts Options) (*Result, error) {
	spec, err := Lookup(opts.Workload)
	if err != nil {
		return nil, err
	}
	cycles := opts.Cycles
	if cycles <= 0 {
		cycles = spec.cycles(opts.Seconds)
	}
	if opts.Smoke {
		spec = spec.smoke()
	}
	started := simtime.WallNow()
	rg, err := buildRig(spec, opts.Seed)
	if err != nil {
		return nil, err
	}
	setup := simtime.WallSince(started)

	r := &run{
		rig:       rg,
		reader:    newRestoreReader(rng.New(opts.Seed ^ 0x9e3779b97f4a7c15)),
		trainRate: newSamples(cycles),
		trainCPU:  newSamples(cycles),
		stall:     newSamples(cycles * spec.Groups),
		durable:   newSamples(cycles * spec.Durable),
		recov:     newSamples(cycles * spec.Recovers),
		resume:    newSamples(cycles * spec.Resumes),
		restore:   newSamples(cycles * spec.Batches),
	}
	rounds0, logical0, physical0 := r.totals()

	measured := simtime.WallNow()
	var sliceWall [len(sliceNames)]time.Duration
	calib := newSamples(cycles)
	for c := 0; c < cycles; c++ {
		calib.add(spin())
		for i, slice := range []func() error{
			r.trainSlice, r.durableSlice, r.recoverSlice, r.restoreSlice,
			func() error { return r.retainSlice(c) }, r.resumeSlice,
		} {
			t := simtime.WallNow()
			if err := slice(); err != nil {
				return nil, fmt.Errorf("bench: %s cycle %d %s slice: %w", spec.Name, c, sliceNames[i], err)
			}
			sliceWall[i] += simtime.WallSince(t)
		}
	}
	measuredWall := simtime.WallSince(measured)
	// Host memory with every System still open: what the snapshot tier,
	// the store's memo and the in-memory backends keep alive.
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)

	// End-of-run checks and byte accounting.
	for _, j := range r.jobs {
		r.ops++
		if _, err := j.sys.VerifyStorage(); err != nil {
			r.fail("%s: verify storage: %v", j.id, err)
		}
	}
	if r.fleet != nil {
		if err := r.scrub(); err != nil {
			return nil, err
		}
	}
	rounds, logical, physical := r.totals()
	rounds, logical, physical = rounds-rounds0, logical-logical0, physical-physical0
	stored, err := r.storeBytes()
	if err != nil {
		return nil, err
	}
	var kept float64
	for _, j := range r.jobs {
		kept += 100 * (1 - j.sys.PLT())
	}
	kept /= float64(len(r.jobs))
	if err := r.close(); err != nil {
		return nil, err
	}

	res := &Result{
		Workload: spec.Name, Seed: opts.Seed, Cycles: cycles,
		Metrics:  make(map[string]Value, len(EndToEnd)),
		OpsTotal: r.ops, OpsFailed: r.failed, Failures: r.failures,
	}
	iters := float64(r.trainIters)
	values := map[string]float64{
		"setup_s":                      setup.Seconds(),
		"train_iters_per_s":            r.trainRate.median(),
		"ckpt_stall_ms_p50":            r.stall.cycleMedian(cycles),
		"ckpt_durable_ms_p50":          r.durable.cycleMedian(cycles),
		"recover_ms_p50":               r.recov.cycleMedian(cycles),
		"resume_ms_p50":                r.resume.cycleMedian(cycles),
		"restore_ms_p50":               r.restore.cycleMedian(cycles),
		"cpu_ms_per_iter":              r.trainCPU.median(),
		"alloc_mb_per_iter":            float64(r.trainAlloc) / 1e6 / iters,
		"host_mem_mb":                  float64(mem.HeapAlloc) / 1e6,
		"ckpt_logical_bytes_per_round": float64(logical) / float64(rounds),
		"ckpt_bytes_per_round":         float64(physical) / float64(rounds),
		"store_bytes_per_model_byte":   float64(stored) / float64(r.modelBytes),
		"tokens_kept_pct":              kept,
	}
	for _, d := range EndToEnd {
		res.Metrics[d.Name] = Value{Value: values[d.Name], Unit: d.Unit}
	}
	res.Diag = map[string]float64{
		"steps":               float64(r.trainIters),
		"stalls":              float64(r.stall.n()),
		"durable_rounds":      float64(r.durable.n()),
		"recovers":            float64(r.recov.n()),
		"resumes":             float64(r.resume.n()),
		"restore_batches":     float64(r.restore.n()),
		"rounds":              float64(rounds),
		"ckpt_stall_ms_p90":   r.stall.p90(),
		"ckpt_durable_ms_p90": r.durable.p90(),
		"recover_ms_p90":      r.recov.p90(),
		"resume_ms_p90":       r.resume.p90(),
		"restore_ms_p90":      r.restore.p90(),
		"measured_s":          measuredWall.Seconds(),
		"run_s":               simtime.WallSince(started).Seconds(),
	}
	for i, name := range sliceNames {
		res.Diag["slice_"+name+"_s"] = sliceWall[i].Seconds()
	}
	res.Diag["calib_ms_p50"] = calib.median()
	return res, nil
}
