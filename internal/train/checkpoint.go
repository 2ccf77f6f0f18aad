package train

import (
	"fmt"
	"sort"
	"strings"

	"moc/internal/core"
	"moc/internal/storage"
)

// Checkpoint keys: each module contributes a "<module>/w" blob (weights)
// and a "<module>/opt" blob (Adam m and v). Splitting weight and optimizer
// state lets the "W" and "O" PEC variants of §6.3 apply partial-expert
// saving to one of the two independently. A synthetic "meta/state" blob
// carries the global Adam step and training iteration.

const (
	weightSuffix = "/w"
	optSuffix    = "/opt"
	metaKey      = "meta/state"
)

// Variant selects which state classes PEC filtering applies to (§6.3,
// Table 3): weights, optimizer states, or both. State classes not under
// PEC are saved in full at every checkpoint.
type Variant struct {
	PECOnWeights   bool
	PECOnOptimizer bool
}

// VariantW applies PEC to weights only (row "W" of Table 3).
func VariantW() Variant { return Variant{PECOnWeights: true} }

// VariantO applies PEC to optimizer states only (row "O").
func VariantO() Variant { return Variant{PECOnOptimizer: true} }

// VariantWO applies PEC to both (rows "WO" and "WO-2L").
func VariantWO() Variant { return Variant{PECOnWeights: true, PECOnOptimizer: true} }

// VariantFull applies PEC to nothing: every checkpoint saves all state.
func VariantFull() Variant { return Variant{} }

// Capture builds the checkpoint payload for one round in a single pass:
// each module is encoded straight from its parameters into one pooled
// buffer (storage.GetBuf) in the storage codec's wire format. sel restricts
// which experts are included (nil = all); the variant decides whether the
// expert restriction applies to weights, optimizer state, or both.
// Non-expert modules are always captured in full. Capture only reads the
// model, so it may run beside ForwardBackward but not beside Update or
// Restore. The blobs belong to the caller, which may hand them on to the
// checkpoint agent or recycle them with storage.PutBuf.
func (m *Model) Capture(sel *core.Selection, v Variant) core.CheckpointData {
	out := make(core.CheckpointData, 2*len(m.moduleOrder)+1)
	for _, name := range m.moduleOrder {
		mod := m.modules[name]
		selected := !mod.isExpert || sel.Contains(mod.moeLayer, mod.expert)
		if selected || !v.PECOnWeights {
			out[name+weightSuffix] = storage.EncodeTensorList(mod.weights)
		}
		if selected || !v.PECOnOptimizer {
			out[name+optSuffix] = storage.EncodeTensorList(mod.opt)
		}
	}
	out[metaKey] = storage.EncodeTensorList([]storage.Tensor{
		{Key: "iter", Data: []float32{float32(m.iter)}},
		{Key: "step", Data: []float32{float32(m.step)}},
	})
	return out
}

// splitKey resolves a checkpoint key to its module and state class.
func (m *Model) splitKey(key string) (mod *module, weights, ok bool) {
	name, weights := strings.CutSuffix(key, weightSuffix)
	if !weights {
		if name, ok = strings.CutSuffix(key, optSuffix); !ok {
			return nil, false, false
		}
	}
	mod = m.modules[name]
	return mod, weights, mod != nil
}

// Restore applies recovered checkpoint state to the model. Modules absent
// from the recovery keep the state the model holds at the call: their
// initialization when the model is being built (NewFrom, or New on a
// restarted job), their latest trained values on a live model
// (fault recovery) — with PEC both are exactly the stale-experts
// semantics. Every key is resolved and the metadata checked before any
// parameter is written; the blobs are then taken in sorted key order, each
// verified whole (checksum, tensor names, lengths) and decoded straight
// into its parameters — from the store's chunk views when the module came
// from storage, with no joined copy in between. A rejected blob leaves its module and those after
// it untouched, so of several bad blobs the one with the lowest key is
// reported, on every run. The decode stays on the calling goroutine on
// purpose: the blobs write disjoint parameters and could be decoded in
// parallel, but that is faster only while the host lends a second core, and
// fault recovery's time then flips between two values from run to run
// (EXPERIMENTS.md, PR 19). It returns the training iteration recorded in
// the recovered metadata; the caller rewinds its loop there.
func (m *Model) Restore(rec map[string]core.RecoveredModule) (iteration int, err error) {
	meta, ok := rec[metaKey]
	if !ok {
		return 0, fmt.Errorf("train: recovery lacks %q", metaKey)
	}
	metaT, err := storage.DecodeTensors(meta.Parts()...)
	if err != nil {
		return 0, fmt.Errorf("train: decode meta: %w", err)
	}
	it, ok := metaT["iter"]
	if !ok || len(it) != 1 {
		return 0, fmt.Errorf("train: recovery meta lacks iteration")
	}
	keys := make([]string, 0, len(rec)-1)
	for key := range rec {
		if key != metaKey {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	layouts := make([][]storage.Tensor, len(keys))
	for i, key := range keys {
		mod, weights, ok := m.splitKey(key)
		if !ok {
			return 0, fmt.Errorf("train: checkpoint key %q names no module state", key)
		}
		layouts[i] = mod.opt
		if weights {
			layouts[i] = mod.weights
		}
	}

	for i, key := range keys {
		if err := storage.DecodeTensorsInto(rec[key].Parts(), layouts[i]); err != nil {
			return 0, fmt.Errorf("train: restore %q: %w", key, err)
		}
	}
	if s, ok := metaT["step"]; ok && len(s) == 1 {
		m.step = int(s[0])
	}
	m.iter = int(it[0])
	return m.iter, nil
}

// PersistFilter builds the keep-for-persist predicate implementing
// persist-PEC: of the snapshot's content, persist non-expert state fully
// but expert state only for experts in persistSel. A nil persistSel keeps
// everything.
func (m *Model) PersistFilter(persistSel *core.Selection, v Variant) func(string) bool {
	if persistSel == nil {
		return nil
	}
	return func(key string) bool {
		mod, weights, ok := m.splitKey(key)
		if !ok || !mod.isExpert {
			return true // meta and non-expert state
		}
		if weights && !v.PECOnWeights || !weights && !v.PECOnOptimizer {
			return true
		}
		return persistSel.Contains(mod.moeLayer, mod.expert)
	}
}

// CloneState deep-copies all weights (not optimizer state), used by tests
// to compare recovery outcomes.
func (m *Model) CloneState() map[string][]float32 {
	out := make(map[string][]float32)
	for name, mod := range m.modules {
		for i, p := range mod.params {
			out[fmt.Sprintf("%s#%d", name, i)] = append([]float32(nil), p.W.Data...)
		}
	}
	return out
}
