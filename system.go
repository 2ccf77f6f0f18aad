package moc

import (
	"fmt"
	"strings"

	"moc/internal/core"
	"moc/internal/data"
	"moc/internal/eval"
	"moc/internal/model"
	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/fleet"
	"moc/internal/storage/replica"
	"moc/internal/train"
)

// PersistStore is the durable checkpoint backend. The built-in
// NewMemStore and NewFSStore constructors satisfy it; callers may supply
// their own (e.g. an object-store adapter). A custom backend must copy
// what it keeps: Put may not retain data after it returns, because the
// checkpoint path reuses that buffer at once.
type PersistStore = storage.PersistStore

// NewMemStore returns an in-memory persistent store (checkpoints survive
// faults but not process exit) — convenient for experiments.
func NewMemStore() PersistStore { return storage.NewMemStore() }

// NewFSStore returns a persistent store on the local filesystem rooted at
// dir.
func NewFSStore(dir string) (PersistStore, error) { return storage.NewFSStore(dir) }

// ReplicatedStore is a PersistStore fanning writes out to several
// backends and reading from the first healthy replica. Sync is the
// anti-entropy repair: it copies every key a backend is missing (because
// it was down, or was replaced after a loss) from a surviving replica.
// Health reports, per backend, the error of its most recent operation
// (nil = healthy), and Repairs counts the read-repair write-backs
// performed when a Get fell through a stale replica — the observability
// the fleet scrub daemon drives its repair scheduling from.
//
// BackendLatencies reports each backend's latency EWMA in seconds over
// its successful operations, and SlowSkips how many reads were routed
// around a replica that was slow — not dead (routing requires
// ReplicaOptions.SlowFactor). CutOff/Reconnect inject a network
// partition against one backend: cut off, its operations fail fast
// while it keeps its state, so a healed partition leaves exactly the
// divergence an anti-entropy Sync repairs.
type ReplicatedStore interface {
	PersistStore
	Sync() (copied int, err error)
	Health() []error
	Repairs() int64
	BackendLatencies() []float64
	SlowSkips() int64
	CutOff(i int) error
	Reconnect(i int) error
}

// ReplicaOptions tunes a replicated store's read routing.
type ReplicaOptions = replica.Options

// NewReplicatedStore builds a replicating persistent store over the given
// backends (at least one). Checkpoints survive the loss of all but one
// replica; recovery reads fall through to the first backend holding each
// key.
func NewReplicatedStore(backends ...PersistStore) (ReplicatedStore, error) {
	return NewReplicatedStoreWithOptions(ReplicaOptions{}, backends...)
}

// NewReplicatedStoreWithOptions is NewReplicatedStore with explicit
// read-routing options (straggler demotion).
func NewReplicatedStoreWithOptions(opts ReplicaOptions, backends ...PersistStore) (ReplicatedStore, error) {
	return replica.NewWithOptions(opts, backends...)
}

// FlakyStore wraps a PersistStore with a kill switch for fault-injection
// experiments: while failed, every operation errors, simulating the loss
// of one persist backend; Heal brings it back with the state it held.
type FlakyStore interface {
	PersistStore
	Fail()
	Heal()
	Down() bool
}

// NewFlakyStore wraps a persistent store for backend-loss injection.
func NewFlakyStore(inner PersistStore) FlakyStore { return replica.NewFlaky(inner) }

// Variant names which state classes PEC applies to (§6.3 of the paper):
// "full" (no PEC), "W" (weights only), "O" (optimizer states only), or
// "WO" (both).
type Variant string

// Variant values.
const (
	VariantFull Variant = "full"
	VariantW    Variant = "W"
	VariantO    Variant = "O"
	VariantWO   Variant = "WO"
)

func (v Variant) toTrain() (train.Variant, error) {
	switch v {
	case VariantFull, "":
		return train.VariantFull(), nil
	case VariantW:
		return train.VariantW(), nil
	case VariantO:
		return train.VariantO(), nil
	case VariantWO:
		return train.VariantWO(), nil
	default:
		return train.Variant{}, fmt.Errorf("moc: unknown variant %q", v)
	}
}

// Chunking names the checkpoint store's chunker. ChunkingFixed (the
// default) cuts module payloads at fixed boundaries; ChunkingCDC uses a
// content-defined rolling hash, so chunk boundaries — and therefore
// dedup — survive insert/shift edits, not just in-place updates (a
// tensor that grows by one row no longer rewrites every downstream
// chunk).
type Chunking string

// Chunking values.
const (
	ChunkingFixed Chunking = "fixed"
	ChunkingCDC   Chunking = "cdc"
)

func (c Chunking) toCAS() (cas.Chunking, error) {
	switch c {
	case "", ChunkingFixed:
		return cas.ChunkingFixed, nil
	case ChunkingCDC:
		return cas.ChunkingCDC, nil
	default:
		return 0, fmt.Errorf("moc: unknown chunking mode %q", c)
	}
}

// Selection names the partial-experts selection policy (§3.2).
type Selection string

// Selection values.
const (
	SelectSequential Selection = "sequential"
	SelectLoadAware  Selection = "load-aware"
)

// Config configures a training System.
type Config struct {
	// --- model & optimization ---

	// Layers, Hidden, Experts, TopK shape the MoE model: Layers
	// transformer blocks (all carrying MoE FFNs), Hidden units, Experts
	// experts per MoE layer, TopK gating fan-out.
	Layers, Hidden, Experts, TopK int
	// Vocab is the token vocabulary size (≥ 8).
	Vocab int
	// Window is the context length; BatchSize the examples per step.
	Window, BatchSize int
	// LR is the Adam learning rate.
	LR float64
	// CapacityFactor bounds per-expert tokens per batch (0 = unlimited);
	// GateNoise is the ε std of the noisy gate (Eq. 2).
	CapacityFactor, GateNoise float64
	// AuxLossCoeff weights the auxiliary load-balancing loss (0 = off).
	AuxLossCoeff float64
	// Seed fixes all randomness.
	Seed uint64
	// FreezeExperts disables expert updates (Table 4's FT-w.o.E).
	FreezeExperts bool

	// --- checkpointing ---

	// Interval is the checkpoint interval in iterations (0 disables
	// checkpointing).
	Interval int
	// KSnapshot and KPersist are the two-level PEC fan-outs: experts per
	// MoE layer captured at the snapshot and persist levels (0 = all).
	// KPersist must not exceed KSnapshot (persist reads from snapshots).
	KSnapshot, KPersist int
	// Variant selects which state classes PEC filters (default "WO"
	// when a K is set, "full" otherwise).
	Variant Variant
	// Selection picks the expert-selection policy (default sequential).
	Selection Selection
	// Buffers is the host-buffer count (default 3, the triple buffer).
	Buffers int
	// Nodes is the simulated node count for two-level recovery (default
	// 2); experts are distributed round-robin across nodes.
	Nodes int
	// TwoLevelRecovery restores surviving experts from in-memory
	// snapshots on faults (§5.1) instead of storage only.
	TwoLevelRecovery bool
	// DynamicK doubles the PEC fan-out as faults accumulate to keep the
	// PLT under the 3.75% threshold (§5.3).
	DynamicK bool
	// Resume builds the model from the store's latest complete checkpoint
	// — the process-restart workflow: a fresh process reopens the same
	// PersistStore and continues where the previous incarnation's
	// checkpoints left off. The store is opened and recovered first and
	// the model built from what it returns, so a restart costs the
	// checkpoint's read and decode and no random initialization; the
	// result is bit for bit a freshly initialized model restored from that
	// checkpoint, seed stream included. Construction fails, before a model
	// is allocated, if the store holds no complete checkpoint.
	Resume bool
	// Chunking selects the checkpoint store's chunker (default
	// ChunkingFixed; ChunkingCDC keeps dedup effective under insert/shift
	// edits to module payloads). Stores written with either mode stay
	// readable regardless of this setting.
	Chunking Chunking

	// --- observability ---

	// Obs enables the unified tracing/metrics layer for this system's
	// storage stack (see EnableObs). When Obs.ExportPath is set, Close
	// writes a Chrome trace-event timeline there.
	Obs ObsConfig
}

func (c *Config) fillDefaults() {
	if c.Buffers == 0 {
		c.Buffers = 3
	}
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.Variant == "" {
		if c.KSnapshot > 0 || c.KPersist > 0 {
			c.Variant = VariantWO
		} else {
			c.Variant = VariantFull
		}
	}
	if c.Selection == "" {
		c.Selection = SelectSequential
	}
	if c.KSnapshot == 0 {
		c.KSnapshot = c.Experts
	}
	if c.KPersist == 0 {
		c.KPersist = c.KSnapshot
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Layers <= 0 || c.Hidden <= 0 || c.Experts <= 0 || c.TopK <= 0 {
		return fmt.Errorf("moc: model shape must be positive")
	}
	if c.TopK > c.Experts {
		return fmt.Errorf("moc: TopK %d exceeds Experts %d", c.TopK, c.Experts)
	}
	if c.KPersist > c.KSnapshot && c.KSnapshot != 0 {
		return fmt.Errorf("moc: KPersist %d exceeds KSnapshot %d", c.KPersist, c.KSnapshot)
	}
	if c.Interval < 0 {
		return fmt.Errorf("moc: negative checkpoint interval")
	}
	if _, err := c.Chunking.toCAS(); err != nil {
		return err
	}
	return nil
}

// Stats summarizes a System's fault-tolerance activity.
type Stats struct {
	Iteration           int
	Checkpoints         int // persisted checkpoint rounds
	Skipped             int // triggers dropped for lack of a free buffer
	Faults              int
	PLT                 float64 // Proportion of Lost Tokens (Eq. 7)
	KCurrent            int     // current PEC fan-out (changes under Dynamic-K)
	SnapshotWaitSeconds float64

	// Checkpoint-store counters: logical checkpoint volume presented,
	// physical bytes actually written after content-addressed dedup, and
	// the fraction of presented bytes dedup avoided rewriting.
	LogicalBytesPersisted  int64
	PhysicalBytesPersisted int64
	DedupRatio             float64
	// Persist-pipeline counters: chunk digests computed by the hash
	// stage, and module payloads that skipped chunking and hashing
	// entirely because their bytes matched the previous round's (the
	// unchanged-module fast path).
	ChunksHashed     int64
	ModulesUnchanged int64
}

// pendingRound is the bookkeeping of a round whose snapshot is in flight.
type pendingRound struct {
	snapSel, persistSel *core.Selection
}

// System trains a sparse-MoE model with MoC checkpointing and fault
// injection.
type System struct {
	cfg     Config
	model   *train.Model
	agent   *core.Agent
	corpus  *data.Corpus
	plt     *core.PLTTracker
	seq     *core.SequentialSelector
	aware   *core.LoadAwareSelector
	dynamic *core.DynamicK
	variant train.Variant
	// sess is the fleet session this system persists through, nil for a
	// standalone system (see NewFleet / Fleet.NewSystem).
	sess *fleet.Session

	round int
	// pending is the round handed to the agent whose capture has not been
	// waited for yet; settle applies its bookkeeping.
	pending *pendingRound
	// captureHook, when set (tests), runs on the snapshot goroutine before
	// the capture and may fail it.
	captureHook   func() error
	nextFaultNode int
	faults        int
	kSnapshot     int
	kPersist      int
	closed        bool
	obsExport     string
}

// NewSystem builds a System over the given persistent store. The training
// corpus is the deterministic pre-training stream; use NewSystemOn to
// train on a different corpus.
func NewSystem(cfg Config, store PersistStore) (*System, error) {
	return NewSystemOn(cfg, store, nil)
}

// Corpus is a deterministic token stream for training and evaluation.
type Corpus struct{ c *data.Corpus }

// NewCorpus builds a corpus over the given vocabulary; the domain seed
// selects its topic structure.
func NewCorpus(name string, vocab int, domain uint64) *Corpus {
	return &Corpus{c: data.NewCorpus(name, vocab, domain)}
}

// Name returns the corpus label.
func (c *Corpus) Name() string { return c.c.Name() }

// NewSystemOn builds a System training on the provided corpus (nil = the
// default pre-training corpus).
func NewSystemOn(cfg Config, store PersistStore, corpus *Corpus) (*System, error) {
	return newSystemOn(cfg, store, corpus, nil, nil)
}

// newSystemOn is the shared constructor. A non-nil fleet session
// replaces the store with the session's fenced view of the fleet's
// shared backend and scopes the checkpoint store to the job's writer
// (sharing the fleet presence index and write guard). The model is built
// last and once: from forked (a parent's captured state, see forkInto),
// from the store's latest checkpoint under cfg.Resume, else from its seed.
func newSystemOn(cfg Config, store PersistStore, corpus *Corpus, sess *fleet.Session, forked map[string]core.RecoveredModule) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	cfg.Obs.apply()
	variant, err := cfg.Variant.toTrain()
	if err != nil {
		return nil, err
	}
	chunking, err := cfg.Chunking.toCAS()
	if err != nil {
		return nil, err
	}
	mc := model.TinyMoE(cfg.Layers, cfg.Hidden, cfg.Experts, cfg.TopK)
	if cfg.Vocab > 0 {
		mc.VocabSize = cfg.Vocab
	}
	tcfg := train.Config{
		Model:          mc,
		Window:         cfg.Window,
		BatchSize:      cfg.BatchSize,
		LR:             cfg.LR,
		CapacityFactor: cfg.CapacityFactor,
		NoiseStd:       cfg.GateNoise,
		Seed:           cfg.Seed,
		FreezeExperts:  cfg.FreezeExperts,
		AuxLossCoeff:   cfg.AuxLossCoeff,
	}
	if tcfg.Window == 0 {
		tcfg.Window = 8
	}
	if tcfg.BatchSize == 0 {
		tcfg.BatchSize = 32
	}
	if tcfg.LR == 0 {
		tcfg.LR = 0.01
	}
	if err := tcfg.Validate(); err != nil {
		return nil, err
	}
	casOpts := cas.Options{Chunking: chunking}
	if sess != nil {
		store = sess.Backend()
		casOpts = sess.Options(casOpts)
	}
	// Fixed chunks are sized to the backend's round trip: 64 KiB over
	// memory-speed stores, larger over a remote.
	casOpts = casOpts.SizeChunksFor(store)
	agent, err := core.NewAgentWithOptions(storage.NewSnapshotStore(), store, cfg.Buffers, casOpts)
	if err != nil {
		if sess != nil {
			sess.Release()
		}
		return nil, err
	}
	if sess != nil {
		// Register the agent's store with the session so a fleet-wide GC
		// refreshes its manifest cache.
		sess.Track(agent.Store())
	}
	s := &System{
		cfg:       cfg,
		agent:     agent,
		sess:      sess,
		variant:   variant,
		kSnapshot: cfg.KSnapshot,
		kPersist:  cfg.KPersist,
		obsExport: cfg.Obs.ExportPath,
	}
	if corpus != nil {
		s.corpus = corpus.c
	} else {
		s.corpus = data.NewCorpus("pretrain", mc.VocabSize, data.PretrainDomain)
	}
	if cfg.DynamicK {
		s.dynamic = core.NewDynamicK(cfg.Experts, max(1, cfg.KPersist))
	}
	rec := forked
	if cfg.Resume {
		latest := agent.LatestCompleteRound()
		if latest < 0 {
			s.Close()
			return nil, fmt.Errorf("moc: Resume requested but the store holds no complete checkpoint")
		}
		if rec, err = agent.Recover(nil); err != nil {
			s.Close()
			return nil, fmt.Errorf("moc: resume: %w", err)
		}
		s.round = latest + 1
	}
	if rec == nil {
		s.model, err = train.New(tcfg)
	} else if s.model, err = train.NewFrom(tcfg, rec); err != nil {
		err = fmt.Errorf("moc: restore: %w", err)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	s.plt = core.NewPLTTracker(s.model.NumMoELayers(), cfg.Experts)
	s.seq = core.NewSequentialSelector(s.model.NumMoELayers(), cfg.Experts)
	s.aware = core.NewLoadAwareSelector(s.model.NumMoELayers(), cfg.Experts)
	return s, nil
}

// Model exposes shape information about the trained model.
func (s *System) NumMoELayers() int { return s.model.NumMoELayers() }

// Iteration returns the completed training iterations.
func (s *System) Iteration() int { return s.model.Iteration() }

// Step runs one training iteration (and a checkpoint when the interval
// elapses), returning the batch loss. A snapshot still being captured
// overlaps forward+backward, which only read the weights; Step waits for it
// just before the weight update (Fig. 3, Stats().SnapshotWaitSeconds).
func (s *System) Step() (float64, error) {
	if s.closed {
		return 0, fmt.Errorf("moc: system closed")
	}
	it := s.model.Iteration()
	tc := s.model.Config()
	batch := s.corpus.Batch(s.cfg.Seed, it, tc.BatchSize, tc.Window)
	st, err := s.model.ForwardBackward(batch)
	if err != nil {
		return 0, err
	}
	// A failed capture reads the model no more than a finished one, so the
	// iteration completes either way and the error is reported after it.
	snapErr := s.settle()
	s.model.Update()
	for l, r := range st.Routings {
		s.plt.RecordBatch(l, r.PerExpertFloat(), float64(r.RoutedSlots))
		s.aware.Observe(l, r.PerExpertFloat())
	}
	if snapErr != nil {
		return st.Loss, snapErr
	}
	done := s.model.Iteration()
	if iv := s.checkpointInterval(); iv > 0 && done%iv == 0 {
		if err := s.checkpoint(); err != nil {
			return st.Loss, err
		}
	}
	return st.Loss, nil
}

// settle is the snapshot barrier: it waits until no capture is reading the
// model, so the caller may write it (the weight update, a restore), and
// applies the captured round's bookkeeping — or, when the capture failed,
// drops it and reports the error, leaving the round number and the PLT
// ledger as if the round had never been triggered.
func (s *System) settle() error {
	err := s.agent.WaitSnapshot()
	p := s.pending
	s.pending = nil
	if err != nil {
		return fmt.Errorf("moc: snapshot: %w", err)
	}
	if p != nil {
		// Under the "W"/"O" variants PEC applies only to one state class;
		// the other class is saved in full, which the PLT tracker models as
		// a full save only when both classes are full. Token-update loss
		// follows the filtered class, so track with the PEC selections.
		s.plt.RecordSnapshot(p.snapSel)
		s.plt.RecordPersist(p.persistSel)
		s.aware.Committed(p.snapSel)
		s.round++
	}
	return nil
}

// checkpointInterval is the effective checkpoint interval this
// iteration: the configured base, stretched by the fleet's adaptive
// cadence controller when the system is fleet-attached and adaptive
// cadence is enabled (identical to the base otherwise). The modulo
// trigger in Step means a stretch takes effect by making fewer
// iteration counts divide the interval — the cadence controller only
// ever stretches (never below base), so checkpoints get rarer while
// the fleet is degraded and return to the configured cadence as the
// stretch relaxes.
func (s *System) checkpointInterval() int {
	if s.sess != nil {
		return s.sess.CadenceInterval(s.cfg.Interval)
	}
	return s.cfg.Interval
}

// selector returns the configured expert selector.
func (s *System) selector() core.Selector {
	if s.cfg.Selection == SelectLoadAware {
		return s.aware
	}
	return s.seq
}

// checkpoint triggers one two-level checkpoint round. The first round is
// always a full checkpoint (the bootstrap save every real deployment
// performs), so every expert exists in some complete checkpoint and a
// restart can always rebuild the whole model; subsequent rounds apply the
// PEC selections.
//
// It costs a selection and a hand-off: the capture runs on the agent's
// snapshot goroutine and reads the model, so nothing may write the model
// until settle has returned; the persist level follows behind it.
func (s *System) checkpoint() error {
	if err := s.settle(); err != nil {
		return err
	}
	var snapSel, persistSel *core.Selection
	if s.round > 0 && s.kSnapshot < s.cfg.Experts {
		if s.cfg.Selection == SelectLoadAware {
			snapSel = s.aware.Select(s.round, s.kSnapshot)
		} else {
			// Advance the window by the persist fan-out so the persist
			// level (the window's first K_persist experts) rotates
			// fairly through every expert.
			snapSel = s.seq.SelectWithStride(s.round, s.kSnapshot, min(s.kPersist, s.kSnapshot))
		}
	}
	persistSel = snapSel
	if s.round > 0 && s.kPersist < s.kSnapshot {
		if snapSel != nil {
			persistSel = snapSel.Subset(s.kPersist)
		} else {
			persistSel = s.selector().Select(s.round, s.kPersist)
		}
	}
	hook := s.captureHook
	capture := func() (core.CheckpointData, error) {
		if hook != nil {
			if err := hook(); err != nil {
				return nil, err
			}
		}
		return s.model.Capture(snapSel, s.variant), nil
	}
	filter := s.model.PersistFilter(persistSel, s.variant)
	if !s.agent.TrySnapshot(s.round, capture, filter) {
		// Buffers busy (an earlier persist still in flight). The timing
		// simulator models this as a skipped trigger; the accuracy
		// harness instead drains the pipeline and retries so the
		// checkpoint cadence stays deterministic.
		if err := s.agent.Flush(); err != nil {
			return fmt.Errorf("moc: drain buffers: %w", err)
		}
		if !s.agent.TrySnapshot(s.round, capture, filter) {
			return fmt.Errorf("moc: checkpoint trigger refused after drain")
		}
	}
	s.pending = &pendingRound{snapSel: snapSel, persistSel: persistSel}
	return nil
}

// CheckpointNow forces a checkpoint round regardless of the interval. It
// returns at the hand-off to the agent; the state saved is the model's at
// this call, since nothing writes the model before the barrier (see Step).
func (s *System) CheckpointNow() error { return s.checkpoint() }

// FlushCheckpoints blocks until every started checkpoint has fully
// persisted (the snapshot and persist levels run asynchronously),
// returning the first snapshot or persist error if any.
func (s *System) FlushCheckpoints() error {
	if err := s.settle(); err != nil {
		return err
	}
	return s.agent.Flush()
}

// RunTo trains until the given iteration, returning the last loss.
func (s *System) RunTo(iteration int) (float64, error) {
	var loss float64
	for s.model.Iteration() < iteration {
		l, err := s.Step()
		if err != nil {
			return loss, err
		}
		loss = l
	}
	return loss, nil
}

// expertNode maps an expert module to its simulated node.
func (s *System) expertNode(expert int) int { return expert % s.cfg.Nodes }

// InjectFault simulates a node failure followed by recovery: in-flight
// checkpoints complete, the model is restored (two-level when configured:
// surviving nodes' experts from their in-memory snapshots, the failed
// node's from storage), training rewinds to the recovered iteration, and
// the PLT ledger records the loss. Failed nodes rotate round-robin across
// calls. The failed node's snapshots are only skipped by this recovery,
// not dropped: they stay resident and can serve a later two-level
// recovery.
func (s *System) InjectFault() error {
	if s.closed {
		return fmt.Errorf("moc: system closed")
	}
	if err := s.FlushCheckpoints(); err != nil {
		return fmt.Errorf("moc: flush before fault: %w", err)
	}
	if s.agent.LatestCompleteRound() < 0 {
		return fmt.Errorf("moc: no complete checkpoint to recover from")
	}
	failed := s.nextFaultNode % s.cfg.Nodes
	s.nextFaultNode++
	s.faults++

	var surviving func(module string) bool
	if s.cfg.TwoLevelRecovery {
		surviving = func(module string) bool {
			name := strings.TrimSuffix(strings.TrimSuffix(module, "/w"), "/opt")
			if _, e, ok := s.model.IsExpertModule(name); ok {
				return s.expertNode(e) != failed
			}
			return true // non-expert state is replicated; some node survives
		}
	}
	rec, err := s.agent.Recover(surviving)
	// Surviving modules come back as the snapshot level's own buffers;
	// once they are restored (or recovery has failed) the loan ends, so
	// the next rounds' captures find those buffers in the pool again.
	defer s.agent.ReleaseRecovered()
	if err != nil {
		return fmt.Errorf("moc: recover: %w", err)
	}
	if _, err := s.model.Restore(rec); err != nil {
		return fmt.Errorf("moc: restore: %w", err)
	}
	var delta float64
	if s.cfg.TwoLevelRecovery {
		delta = s.plt.RecordFaultTwoLevel(func(_, e int) bool {
			return s.expertNode(e) != failed
		})
	} else {
		delta = s.plt.RecordFault()
	}
	if s.dynamic != nil {
		k := s.dynamic.OnFault(delta)
		s.kPersist = k
		if s.kSnapshot < k {
			s.kSnapshot = k
		}
	}
	return nil
}

// ForkOn clones the trained model into a new System that continues
// training on a different corpus with different checkpointing settings —
// the fine-tuning workflow of Table 4. The clone gets a fresh in-memory
// persistent store; model weights, optimizer state, and the iteration
// counter carry over. Checkpointing fields of overrides (Interval,
// KSnapshot/KPersist, Variant, Selection, TwoLevelRecovery, DynamicK,
// FreezeExperts) replace the parent's; model-shape fields are inherited.
// To fork into a shared fleet store instead — so the fork's checkpoints
// dedup against the parent's chunks — use ForkOnFleet.
func (s *System) ForkOn(corpus *Corpus, overrides Config) (*System, error) {
	return s.forkInto(corpus, s.forkConfig(overrides), NewMemStore(), nil)
}

// forkConfig merges the checkpointing fields of overrides into the
// parent's configuration (the ForkOn contract). Resume is cleared: a
// fork continues from the parent's in-memory state, never from a store.
func (s *System) forkConfig(overrides Config) Config {
	cfg := s.cfg
	cfg.Interval = overrides.Interval
	cfg.KSnapshot = overrides.KSnapshot
	cfg.KPersist = overrides.KPersist
	cfg.Variant = overrides.Variant
	cfg.Selection = overrides.Selection
	cfg.TwoLevelRecovery = overrides.TwoLevelRecovery
	cfg.DynamicK = overrides.DynamicK
	cfg.FreezeExperts = overrides.FreezeExperts
	cfg.Resume = false
	return cfg
}

// forkInto builds the forked system over the given store (or fleet
// session) from the parent's full model state.
func (s *System) forkInto(corpus *Corpus, cfg Config, store PersistStore, sess *fleet.Session) (*System, error) {
	payload := s.model.Capture(nil, train.VariantFull())
	rec := make(map[string]core.RecoveredModule, len(payload))
	for k, b := range payload {
		rec[k] = core.RecoveredModule{Blob: b}
	}
	ns, err := newSystemOn(cfg, store, corpus, sess, rec)
	for _, b := range payload {
		storage.PutBuf(b)
	}
	return ns, err
}

// Evaluate returns loss and next-token accuracy on a held-out sample of
// the training corpus.
func (s *System) Evaluate(samples int) (loss, accuracy float64, err error) {
	tc := s.model.Config()
	held := s.corpus.Heldout(s.cfg.Seed, samples, tc.Window)
	return s.model.Evaluate(held)
}

// EvaluateOn returns loss and accuracy on a held-out sample of another
// corpus.
func (s *System) EvaluateOn(c *Corpus, samples int) (loss, accuracy float64, err error) {
	tc := s.model.Config()
	held := c.c.Heldout(s.cfg.Seed, samples, tc.Window)
	return s.model.Evaluate(held)
}

// TaskScore is one downstream task's result.
type TaskScore struct {
	Task     string
	Accuracy float64
}

// Downstream scores the model on the eight-task downstream proxy suite
// (Table 3) and returns per-task accuracies plus the average.
func (s *System) Downstream(samples int) ([]TaskScore, float64, error) {
	tc := s.model.Config()
	suite := eval.NewSuite(tc.Model.VocabSize, tc.Window, samples)
	results, avg, err := suite.Evaluate(s.model)
	if err != nil {
		return nil, 0, err
	}
	out := make([]TaskScore, len(results))
	for i, r := range results {
		out[i] = TaskScore{Task: r.Name, Accuracy: r.Accuracy}
	}
	return out, avg, nil
}

// PLT returns the current Proportion of Lost Tokens.
func (s *System) PLT() float64 { return s.plt.PLT() }

// Stats returns the fault-tolerance counters.
func (s *System) Stats() Stats {
	as := s.agent.Stats()
	ss := s.agent.StorageStats()
	return Stats{
		Iteration:           s.model.Iteration(),
		Checkpoints:         as.Persisted,
		Skipped:             as.Skipped,
		Faults:              s.faults,
		PLT:                 s.plt.PLT(),
		KCurrent:            s.kPersist,
		SnapshotWaitSeconds: as.SnapshotWait.Seconds(),

		LogicalBytesPersisted:  ss.LogicalBytes,
		PhysicalBytesPersisted: ss.BytesWritten,
		DedupRatio:             ss.DedupRatio(),
		ChunksHashed:           ss.ChunksHashed,
		ModulesUnchanged:       ss.ModulesUnchanged,
	}
}

// CompactStorage runs the checkpoint store's refcount garbage collector:
// manifest entries superseded by newer rounds are dropped and chunks no
// manifest references any more are swept (PEC keeps old rounds alive only
// while they hold some expert's newest copy; chunks shared with live
// rounds survive by refcount). It returns the number of objects removed.
// Recovery outcomes are unaffected.
func (s *System) CompactStorage() (int, error) {
	if err := s.FlushCheckpoints(); err != nil {
		return 0, err
	}
	return s.agent.Compact()
}

// VerifyStorage reads back every blob a recovery could use — verifying
// each chunk against its content address and each blob against its codec
// CRC — and audits the store's chunk reference counts. It returns the
// number of blobs verified.
func (s *System) VerifyStorage() (int, error) {
	if err := s.FlushCheckpoints(); err != nil {
		return 0, err
	}
	return s.agent.Verify()
}

// Close flushes outstanding checkpoints and releases the agent (and,
// for a fleet-attached system, the job lease).
func (s *System) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.settle()
	if cerr := s.agent.Close(); err == nil {
		err = cerr
	}
	if s.sess != nil {
		if rerr := s.sess.Release(); err == nil {
			err = rerr
		}
	}
	if s.obsExport != "" {
		if werr := WriteTraceFile(s.obsExport); err == nil {
			err = werr
		}
	}
	return err
}
