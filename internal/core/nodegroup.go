package core

import (
	"fmt"

	"moc/internal/storage"
	"moc/internal/storage/cas"
)

// NodeGroup manages one checkpoint agent per simulated node, realizing the
// two-level topology of Fig. 8: each node holds its own CPU-memory
// snapshot store (lost when that node fails) while all nodes share the
// distributed persistent store. Modules are routed to nodes by a placement
// function (experts follow expert parallelism; replicated non-expert state
// is anchored to one node per module for snapshot purposes — any surviving
// replica suffices on recovery, which the placement models by assigning
// non-expert modules round-robin).
type NodeGroup struct {
	agents  []*Agent
	nodeOf  func(module string) int
	persist storage.PersistStore
}

// NewNodeGroup builds a group of nodes over one shared persistent store.
// nodeOf maps a module key to the node hosting its snapshot; it must
// return values in [0, nodes).
func NewNodeGroup(nodes int, persist storage.PersistStore, buffers int, nodeOf func(module string) int) (*NodeGroup, error) {
	return NewNodeGroupWithOptions(nodes, persist, buffers, nodeOf, cas.Options{})
}

// NewNodeGroupWithOptions is NewNodeGroup with explicit checkpoint-store
// tuning (chunk size, chunking mode, persist-pipeline widths —
// Workers/HashWorkers — and recovery fan-out — ReadWorkers) applied to
// every node's agent. An explicit Writer id becomes a per-node prefix
// ("<writer>-n0", "<writer>-n1", …): the nodes share one backend, so
// their manifests must never collide on (round, writer).
func NewNodeGroupWithOptions(nodes int, persist storage.PersistStore, buffers int, nodeOf func(module string) int, opts cas.Options) (*NodeGroup, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("core: node group needs at least one node")
	}
	if nodeOf == nil {
		return nil, fmt.Errorf("core: node group needs a placement function")
	}
	g := &NodeGroup{nodeOf: nodeOf, persist: persist}
	for i := 0; i < nodes; i++ {
		nodeOpts := opts
		if nodeOpts.Writer != "" {
			nodeOpts.Writer = fmt.Sprintf("%s-n%d", nodeOpts.Writer, i)
		}
		a, err := NewAgentWithOptions(storage.NewSnapshotStore(), persist, buffers, nodeOpts)
		if err != nil {
			g.Close()
			return nil, err
		}
		g.agents = append(g.agents, a)
	}
	return g, nil
}

// Nodes returns the node count.
func (g *NodeGroup) Nodes() int { return len(g.agents) }

// clampNode guards against out-of-range placements.
func (g *NodeGroup) clampNode(n int) int {
	if n < 0 {
		return 0
	}
	if n >= len(g.agents) {
		return len(g.agents) - 1
	}
	return n
}

// TrySnapshot splits the captured payload by node and starts each node's
// snapshot. The persist filter applies uniformly. It returns false — and
// starts nothing — if any node cannot accept the snapshot, keeping the
// round atomic across nodes.
func (g *NodeGroup) TrySnapshot(round int, capture func() (CheckpointData, error), keepForPersist func(string) bool) (bool, error) {
	data, err := capture()
	if err != nil {
		return false, err
	}
	parts := make([]CheckpointData, len(g.agents))
	for i := range parts {
		parts[i] = CheckpointData{}
	}
	for k, blob := range data {
		parts[g.clampNode(g.nodeOf(k))][k] = blob
	}
	// All-or-nothing admission: check capacity first (single-threaded
	// driver, so no TOCTOU within the harness).
	for i, a := range g.agents {
		if len(parts[i]) == 0 {
			continue
		}
		if !a.TrySnapshot(round, func() (CheckpointData, error) { return parts[i], nil }, keepForPersist) {
			// Roll forward: nodes already started will complete their
			// (harmless) snapshots; the round simply is not guaranteed
			// complete and recovery falls back to older rounds for the
			// missing modules.
			return false, nil
		}
	}
	return true, nil
}

// WaitSnapshots blocks until every node's snapshot capture completed.
func (g *NodeGroup) WaitSnapshots() error {
	for i, a := range g.agents {
		if err := a.WaitSnapshot(); err != nil {
			return fmt.Errorf("core: node %d snapshot: %w", i, err)
		}
	}
	return nil
}

// Flush drains every node's persist pipeline.
func (g *NodeGroup) Flush() error {
	for i, a := range g.agents {
		if err := a.Flush(); err != nil {
			return fmt.Errorf("core: node %d flush: %w", i, err)
		}
	}
	return nil
}

// FailNodes simulates the given nodes crashing: their in-memory snapshots
// are lost.
func (g *NodeGroup) FailNodes(nodes ...int) {
	for _, n := range nodes {
		g.agents[g.clampNode(n)].FailNode()
	}
}

// LatestCompleteRound returns the newest round fully persisted by every
// node that persisted anything — the cluster-consistent recovery anchor.
func (g *NodeGroup) LatestCompleteRound() int {
	latest := -1
	for _, a := range g.agents {
		r := a.LatestCompleteRound()
		if r < 0 {
			continue
		}
		if latest < 0 || r < latest {
			latest = r
		}
	}
	return latest
}

// Recover assembles the freshest recoverable state across all nodes:
// modules on surviving nodes recover from their node's snapshot when
// fresher (two-level recovery); everything else reads back from the shared
// persistent store. failed marks crashed nodes. Snapshot-served blobs are
// on loan from their node's agent (see Agent.Recover); the group leaves the
// loans open, so the blobs stay valid for as long as the caller holds them.
func (g *NodeGroup) Recover(failed map[int]bool) (map[string]RecoveredModule, error) {
	out := map[string]RecoveredModule{}
	for i, a := range g.agents {
		surviving := func(module string) bool { return !failed[i] }
		rec, err := a.Recover(surviving)
		if err != nil {
			return nil, fmt.Errorf("core: node %d recover: %w", i, err)
		}
		for k, m := range rec {
			// The shared persistent store makes every node see every
			// module; keep the freshest copy, preferring snapshots on
			// ties (they are at least as new by construction).
			if prev, ok := out[k]; !ok || m.Round > prev.Round ||
				(m.Round == prev.Round && m.FromSnapshot && !prev.FromSnapshot) {
				out[k] = m
			}
		}
	}
	return out, nil
}

// Stats aggregates all nodes' counters.
func (g *NodeGroup) Stats() AgentStats {
	var s AgentStats
	for _, a := range g.agents {
		as := a.Stats()
		s.SnapshotsStarted += as.SnapshotsStarted
		s.SnapshotsDone += as.SnapshotsDone
		s.Persisted += as.Persisted
		s.Skipped += as.Skipped
		s.SnapshotWait += as.SnapshotWait
	}
	return s
}

// Close shuts down every node's agent, returning the first error.
func (g *NodeGroup) Close() error {
	var first error
	for _, a := range g.agents {
		if a == nil {
			continue
		}
		if err := a.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
