package core

import (
	"fmt"

	"moc/internal/storage"
	"moc/internal/storage/cas"
)

// Checkpoint maintenance: because PEC persists different experts in
// different rounds, old rounds stay load-bearing for as long as they hold
// some module's newest copy. Compact keeps exactly those copies and lets
// the content-addressed store's refcount garbage collector reclaim
// everything else: superseded manifest entries are dropped, emptied
// manifests deleted, and chunks whose reference count reached zero are
// swept. Chunks shared with a live round survive by construction — their
// refcount never reaches zero — so compaction can never break recovery.
// Verify reads back everything recovery could return (each chunk checked
// against its content address, each blob against the codec CRC) and
// audits the refcounts.

// Compact runs the refcount GC over the checkpoint store, retaining only
// each module's newest persisted copy (the version Recover would read).
// It reports the number of objects removed — superseded manifest entries,
// emptied manifests, and swept chunks. Writers must be idle; callers go
// through Flush first.
func (a *Agent) Compact() (deleted int, err error) {
	st, err := a.CompactStats()
	return st.Removed(), err
}

// CompactStats is Compact with the full GC breakdown.
func (a *Agent) CompactStats() (cas.GCStats, error) {
	latest := a.LatestCompleteRound()
	// Liveness is writer-scoped: this agent judges only the manifests it
	// wrote, keeping each module's newest round (the one Recover reads).
	// Other writers on a shared backend — other jobs of a fleet store,
	// which reuse the same module NAMES for entirely separate model
	// lineages — are kept unconditionally; only their owner may retire
	// their entries (the fleet service's Retain unions every job's
	// liveness for exactly this reason).
	own := a.store.Writer()
	live, keep := cas.NewestLiveness(a.store.Manifests(), func(w string) bool { return w == own })
	st, err := a.store.RetainScoped(live, keep)
	if err != nil {
		return st, fmt.Errorf("core: compact: %w", err)
	}

	a.mu.Lock()
	a.loadIndex()
	// The latest round's manifest survives even when emptied, anchoring
	// LatestCompleteRound across the GC (and reopenings).
	if latest >= 0 {
		found := false
		for _, r := range a.completeRounds {
			if r == latest {
				found = true
				break
			}
		}
		if !found {
			a.completeRounds = append(a.completeRounds, latest)
		}
	}
	a.mu.Unlock()
	return st, nil
}

// Verify reads back every blob a Recover call could return, checking
// every chunk against its content address and each blob's chunks against
// the storage codec's CRC32 and structure (the decoder's check phase; no
// value is decoded), then audits the store's reference counts: a
// chunk referenced by any manifest but absent from the backend fails the
// verification. It returns the number of blobs verified and the audit.
func (a *Agent) Verify() (checked int, err error) {
	checked, _, err = a.VerifyAudit()
	return checked, err
}

// VerifyAudit is Verify returning the refcount audit report alongside.
func (a *Agent) VerifyAudit() (checked int, rep cas.AuditReport, err error) {
	rec, err := a.Recover(nil)
	if err != nil {
		return 0, rep, err
	}
	for k, m := range rec {
		if derr := storage.CheckTensors(m.Parts()...); derr != nil {
			return checked, rep, fmt.Errorf("core: verify %s@%d: %w", k, m.Round, derr)
		}
		checked++
	}
	rep, err = a.store.Audit()
	if err != nil {
		return checked, rep, fmt.Errorf("core: verify audit: %w", err)
	}
	if len(rep.Missing) > 0 {
		return checked, rep, fmt.Errorf("core: verify: %d referenced chunks missing from the backend (first %s)",
			len(rep.Missing), rep.Missing[0])
	}
	return checked, rep, nil
}

// PersistedBytes reports the physical bytes held by the checkpoint store
// (chunks + manifests) — after dedup and GC, typically far below the
// logical checkpoint volume.
func (a *Agent) PersistedBytes() (int64, error) {
	return a.store.PhysicalBytes()
}
