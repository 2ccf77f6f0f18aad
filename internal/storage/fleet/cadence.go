package fleet

import (
	"math"
	"sync"
)

// This file is the lease-aware adaptive checkpoint cadence: a
// controller that stretches the checkpoint interval while the storage
// fleet is degraded — a replica down, anti-entropy owed, shards
// imbalanced — and relaxes back to the configured cadence once it
// heals. Checkpointing into a degraded fleet is the worst of both
// worlds: every round pays the slow path's cost AND the writes land
// on fewer replicas (or the wrong shards), growing the repair debt the
// scrub daemon must pay off after the fault clears. Stretching the
// cadence trades a bounded amount of recomputation-at-risk for goodput
// during the fault and a smaller post-heal backlog.

// Cadence tuning.
const (
	// DefaultDownStretch multiplies the interval once per down backend
	// (two backends down stretch by its square).
	DefaultDownStretch = 2.0
	// DefaultBacklogStretch multiplies the interval while an
	// anti-entropy Sync is owed (repair debt outstanding).
	DefaultBacklogStretch = 1.5
	// DefaultImbalanceStretch multiplies the interval while the shard
	// balance exceeds DefaultImbalanceOver.
	DefaultImbalanceStretch = 1.5
	// DefaultImbalanceOver is the max/mean shard balance past which the
	// fleet counts as imbalanced (1.0 = perfectly even).
	DefaultImbalanceOver = 1.5
	// DefaultMaxStretch caps the stretch: past some point a longer
	// interval stops buying goodput and only risks recomputation.
	DefaultMaxStretch = 8.0
	// DefaultRelax is the fraction of the gap to the target stretch
	// closed per healthy observation. Degradation is adopted instantly;
	// recovery is gradual — a flapping backend must not make the cadence
	// flap with it.
	DefaultRelax = 0.5
)

// HealthSignal is one observation of fleet storage health, fed to the
// cadence controller by the scrub pass (or directly by tests).
type HealthSignal struct {
	// BackendsDown counts replicas (across shards, when sharded)
	// probing unhealthy.
	BackendsDown int
	// SyncOwed reports outstanding anti-entropy repair debt: a backend
	// saw downtime and its reconciling Sync has not completed yet.
	SyncOwed bool
	// ShardImbalance is the max/mean chunk balance across shards (0 or
	// any value <= 1 reads as balanced; unsharded fleets pass 0).
	ShardImbalance float64
}

// CadenceController turns health observations into a checkpoint
// interval stretch factor. Degradation is adopted instantly (the next
// interval already reflects a lost replica), recovery relaxes
// geometrically (DefaultRelax of the remaining gap per healthy
// observation), and the stretch never exceeds DefaultMaxStretch nor
// drops below 1.
type CadenceController struct {
	mu      sync.Mutex
	stretch float64
}

// NewCadenceController builds a controller at stretch 1 (no
// adaptation yet).
func NewCadenceController() *CadenceController {
	return &CadenceController{stretch: 1}
}

// stretchFor maps a signal to the stretch the controller should be at
// while that signal persists.
func stretchFor(sig HealthSignal) float64 {
	t := 1.0
	if sig.BackendsDown > 0 {
		t *= math.Pow(DefaultDownStretch, float64(sig.BackendsDown))
	}
	if sig.SyncOwed {
		t *= DefaultBacklogStretch
	}
	if sig.ShardImbalance > DefaultImbalanceOver {
		t *= DefaultImbalanceStretch
	}
	return math.Min(t, DefaultMaxStretch)
}

// Observe feeds one health observation and returns the resulting
// stretch. A worsening signal takes effect immediately; an improving
// one closes DefaultRelax of the gap per call.
func (c *CadenceController) Observe(sig HealthSignal) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := stretchFor(sig)
	if t >= c.stretch {
		c.stretch = t
	} else {
		c.stretch -= DefaultRelax * (c.stretch - t)
		if c.stretch < 1 {
			c.stretch = 1
		}
	}
	return c.stretch
}

// Stretch returns the current interval stretch factor (>= 1).
func (c *CadenceController) Stretch() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stretch
}

// Interval maps a base checkpoint interval (in training iterations)
// through the current stretch, never below the base. Non-positive
// bases pass through untouched ("checkpointing disabled" stays
// disabled).
func (c *CadenceController) Interval(base int) int {
	if base <= 0 {
		return base
	}
	c.mu.Lock()
	st := c.stretch
	c.mu.Unlock()
	iv := int(math.Round(float64(base) * st))
	if iv < base {
		return base
	}
	return iv
}

// SetCadence attaches an adaptive checkpoint cadence controller to the
// service: every scrub pass feeds it the fleet health it observed, and
// sessions consult it (CadenceInterval) to stretch their checkpoint
// interval while the fleet is degraded. Call before the scrub daemon
// starts; passing a second controller replaces the first.
func (s *Service) SetCadence() *CadenceController {
	ctl := NewCadenceController()
	s.mu.Lock()
	s.cadence = ctl
	s.mu.Unlock()
	return ctl
}

// Cadence returns the attached cadence controller (nil when adaptive
// cadence is not enabled).
func (s *Service) Cadence() *CadenceController {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cadence
}

// CadenceInterval maps a base checkpoint interval through the attached
// controller's current stretch (identity when no controller is set).
func (s *Service) CadenceInterval(base int) int {
	s.mu.Lock()
	ctl := s.cadence
	s.mu.Unlock()
	if ctl == nil {
		return base
	}
	return ctl.Interval(base)
}

// CadenceStretch returns the current stretch factor (1 when adaptive
// cadence is not enabled).
func (s *Service) CadenceStretch() float64 {
	s.mu.Lock()
	ctl := s.cadence
	s.mu.Unlock()
	if ctl == nil {
		return 1
	}
	return ctl.Stretch()
}

// CadenceInterval maps a base checkpoint interval through the fleet's
// cadence controller — what a training loop asks each round to decide
// whether this iteration checkpoints. Identity when adaptive cadence
// is not enabled.
func (se *Session) CadenceInterval(base int) int {
	return se.svc.CadenceInterval(base)
}
