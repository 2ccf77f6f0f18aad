package bench

import (
	"fmt"

	"moc"
)

// Spec is one workload: the same closed loop (one driver goroutine, work
// fixed by count) over a different model shape and storage stack. Names
// are permanent: later performance issues cite them.
type Spec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	Why string

	// Model is the System configuration. Interval stays 0: the driver
	// calls CheckpointNow itself so it can time the stall.
	Model moc.Config
	// Interval is the number of Steps per checkpoint inside train slices.
	Interval int
	// RemoteSleepScale is the remote store's SleepScale on cold_recover:
	// 1 sleeps every modelled second for real.
	RemoteSleepScale float64
	// Warmup is the number of Steps at set-up, sized so that set-up takes
	// at least 2 s (a shorter one was too noisy to gate) and the heap and
	// Adam state are steady before anything is timed.
	Warmup int
	// Per-cycle slice sizes: train groups (Interval steps + one
	// checkpoint each), durable rounds, recovers, resumes and restore
	// batches.
	Groups, Durable, Recovers, Resumes, Batches int
	// CyclesPerSecond converts -seconds into a cycle count: measured on
	// the 2-core reference box so that N seconds asks for about N seconds
	// of measured work.
	CyclesPerSecond float64
}

// RunSeconds is the run length the workloads are sized for and
// BENCHMARK.json asks the driver to pass as --seconds.
const RunSeconds = 25

// remoteLatency is the modelled request latency of cold_recover. Sleeps
// under ~1.1 ms all take 1.13 ms on the reference box (the timer floor),
// so a modelled latency below 4 ms would measure the timer.
const remoteLatency = 0.004

// auxLoss is the load-balancing coefficient every workload trains with
// (the Switch/GShard default). Without it routing collapses onto a
// seed-dependent subset of experts, and the idle ones dedup whole: bytes
// per round then differed by 13 % between seeds. Balanced routing keeps
// -seed an input, not the result.
const auxLoss = 0.01

func pecShape(layers, batch int) moc.Config {
	return moc.Config{
		Layers: layers, Hidden: 64, Experts: 16, TopK: 2, BatchSize: batch, AuxLossCoeff: auxLoss,
		KSnapshot: 4, KPersist: 2, TwoLevelRecovery: true,
	}
}

// Workloads lists the four configurations in reporting order.
var Workloads = []Spec{
	{
		Name:  "pec_train",
		Why:   "paper headline: PEC-WO K=4/2 two-level on a MemStore; the trainer does ~85% of train-slice work, so persist-path changes must not move it",
		Model: pecShape(3, 32), Interval: 4,
		Warmup: 210, Groups: 8, Durable: 8, Recovers: 4, Resumes: 2, Batches: 4,
		CyclesPerSecond: 1.25,
	},
	{
		Name:  "full_persist",
		Why:   "the baseline PEC is compared against: full checkpoints every 2 steps, so cas hashing/dedup, snapshot copies and Capture dominate",
		Model: moc.Config{Layers: 3, Hidden: 96, Experts: 8, TopK: 2, BatchSize: 4, AuxLossCoeff: auxLoss}, Interval: 2,
		Warmup: 620, Groups: 8, Durable: 8, Recovers: 4, Resumes: 2, Batches: 4,
		CyclesPerSecond: 1.25,
	},
	{
		Name:  "cold_recover",
		Why:   "read path under latency: cache over a 4 ms remote store; warm recover vs cold resume, stalls are persist back-pressure, CPU-only changes must not move it",
		Model: pecShape(2, 8), Interval: 4, RemoteSleepScale: 1,
		Warmup: 740, Groups: 4, Durable: 3, Recovers: 2, Resumes: 2, Batches: 6,
		CyclesPerSecond: 0.4,
	},
	{
		Name:  "fleet_mixed",
		Why:   "writes beside reads on shared tiers: 3 fleet jobs over 4 replicated shards with CDC, a serving reader restoring between them; only CDC and cross-job dedup coverage",
		Model: moc.Config{Layers: 3, Hidden: 64, Experts: 8, TopK: 2, BatchSize: 8, AuxLossCoeff: auxLoss, Chunking: moc.ChunkingCDC}, Interval: 3,
		Warmup: 590, Groups: 9, Durable: 9, Recovers: 3, Resumes: 3, Batches: 4,
		CyclesPerSecond: 1.85,
	},
}

// Lookup returns the named workload.
func Lookup(name string) (Spec, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Spec{}, fmt.Errorf("bench: unknown workload %q", name)
}

// smoke shrinks a workload to the scale the tests run at: every slice
// still runs every cycle, but the warm-up is short and each slice does
// the least that keeps every kind of operation in play, and the remote
// store's clock is purely virtual (same requests, no sleeping). Timings
// from it mean nothing.
func (s Spec) smoke() Spec {
	s.Warmup, s.Groups, s.Durable, s.Recovers, s.Resumes, s.Batches = 8, 2, 1, 1, 1, 1
	s.RemoteSleepScale = 0
	return s
}

// cycles converts a run length in seconds into a cycle count (at least 2,
// so every median has more than one sample even at smoke scale).
func (s Spec) cycles(seconds int) int {
	n := int(float64(seconds)*s.CyclesPerSecond + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}
