// Package moc is the public API of the MoC-System reproduction: efficient
// fault tolerance for sparse Mixture-of-Experts model training, after
// "MoC-System: Efficient Fault Tolerance for Sparse Mixture-of-Experts
// Model Training" (Cai, Qin, Huang — ASPLOS 2025).
//
// The package offers two entry points:
//
//   - System (system.go) trains a real, small-scale MoE language model
//     while checkpointing it through the MoC pipeline — Partial Experts
//     Checkpointing with sequential or load-aware selection, two-level
//     (snapshot/persist) asynchronous management with triple buffering,
//     two-level recovery, Dynamic-K — and supports fault injection with
//     exact recovery semantics. It reproduces the paper's accuracy results
//     (Figures 5, 14, 15; Tables 3, 4) at laptop scale.
//
//   - SimulateCase / SimulateWorkload (sim.go) evaluate the checkpointing
//     efficiency of cluster-scale deployments with calibrated analytic
//     cost models and a discrete-event pipeline simulator, reproducing the
//     paper's efficiency results (Figures 10–13).
//
// Checkpoint timeline. CheckpointNow (and Step's interval trigger) costs
// an expert selection and a hand-off: the capture runs on the agent's
// snapshot goroutine, encoding each module in one pass from the
// parameters into a pooled buffer, beside the next Step's forward and
// backward passes, which only read the weights. Training waits in one
// place, the snapshot barrier just before the weight update inside Step
// (also taken by the next CheckpointNow, FlushCheckpoints, InjectFault,
// CompactStorage, VerifyStorage and Close); Stats().SnapshotWaitSeconds
// is the time spent there, and a capture error surfaces there, leaving
// round numbering and the PLT ledger as if the round had not been
// triggered. A captured buffer belongs to the capture until it returns,
// then to the agent, which adopts it into the snapshot store and shares
// it read-only with the round's persist job; it returns to the pool once
// a newer round has replaced it and every write that may read it is done.
// A two-level recovery borrows the same buffers instead of copying them:
// InjectFault restores surviving experts straight from the snapshot level
// and ends the loan; the snapshot store remembers what it has lent, and
// a buffer replaced while on loan is left to the garbage collector, never
// pooled. The failed node's snapshots are skipped by that recovery, not
// dropped: they stay resident, and a later two-level recovery in which
// their node survives can serve them.
//
// Both directions of the persist level offer the backend the store's
// default width (16 requests in flight, split per shard on a sharded
// backend); the backend's own admission decides how many proceed.
//
// Restart. A System built with Config.Resume (or by ForkOn/ForkOnFleet)
// gets its model from recovered state, not from its seed: the store is
// opened and recovered before a model exists, weights the recovery
// supplies are never drawn, and the seed stream is advanced past their
// draws without computing them, so the model — weights, optimizer state,
// later gate noise — is bit for bit the one a full initialization followed
// by a restore would give.
//
// Beyond the paper, the storage stack scales the checkpoint store to
// production shapes: content-addressed dedup with fixed or
// content-defined chunking, an LRU chunk cache, N-way replication with
// read repair, a simulated object-store backend (remotestore.go), and a
// multi-job fleet service (fleet.go) that serves many training jobs —
// a base model and its fine-tune forks — from one shared chunk store
// with cross-job dedup, epoch-fenced job leases, fleet-safe garbage
// collection, and a background scrub/repair daemon.
//
// The stack's concurrency and ownership contracts — a store's Put does
// not retain its input (storage.PersistStore), SnapshotStore.Adopt is the
// one hand-off that does, GetBuf/PutBuf pairing, the write-guard
// lock discipline, errors.Is for wrapped sentinels, and a wall-clock-free
// simulator and training stack — are mechanically enforced by
// the project linter (internal/analysis, run as `go run ./cmd/mocvet
// ./...`); see the "Static analysis" section of README.md.
//
// See README.md for a walkthrough and EXPERIMENTS.md for the full
// paper-versus-measured experiment index.
package moc
