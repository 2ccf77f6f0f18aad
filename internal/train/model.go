// Package train implements a real, small-scale sparse-MoE language-model
// trainer in pure Go: learnable token embeddings, per-layer dense
// sublayers, noisy top-k gated expert FFNs with capacity-based token
// dropping, a cross-entropy head, hand-written backpropagation, and an
// Adam optimizer with full (m, v) state.
//
// The trainer is the accuracy substrate for the PEC experiments: expert
// parameters receive real token-driven updates, so recovering from a
// partial-experts checkpoint genuinely rewinds some experts and not
// others, reproducing the update-loss dynamics the paper's Figures 5, 14
// and 15 and Tables 3 and 4 study — at a scale that trains in seconds.
//
// Module naming follows internal/model's inventory ("layer3.moe.expert5",
// "embed.token", "head"), which is what the checkpoint planners and the
// two-level agent address state by.
package train

import (
	"fmt"
	"math"
	"sort"

	"moc/internal/core"
	"moc/internal/model"
	"moc/internal/rng"
	"moc/internal/storage"
	"moc/internal/tensor"
)

// Config parameterizes a trainer.
type Config struct {
	// Model is the architecture description (use model.TinyMoE shapes).
	Model model.Config
	// Window is the context length used to build input features.
	Window int
	// BatchSize is the number of (context, target) examples per step.
	BatchSize int
	// LR is the Adam learning rate.
	LR float64
	// CapacityFactor bounds per-expert tokens per batch (0 = unlimited).
	CapacityFactor float64
	// NoiseStd is the gate noise ε of Eq. 2 during training.
	NoiseStd float64
	// Seed makes initialization and gate noise deterministic.
	Seed uint64
	// FreezeExperts disables expert-parameter updates (the "FT-w.o.E"
	// fine-tuning variant of Table 4).
	FreezeExperts bool
	// AuxLossCoeff weights the GShard/Switch auxiliary load-balancing
	// loss, L_aux = coeff · N · Σ_e f_e · P_e, where f_e is the fraction
	// of tokens dispatched to expert e and P_e the mean gate probability.
	// 0 disables it.
	AuxLossCoeff float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.Model.MoEEvery == 0 {
		return fmt.Errorf("train: model has no MoE layers")
	}
	if c.Window <= 0 || c.BatchSize <= 0 {
		return fmt.Errorf("train: window and batch size must be positive")
	}
	if c.LR <= 0 {
		return fmt.Errorf("train: learning rate must be positive")
	}
	return nil
}

// Param is one named trainable tensor with its gradient and Adam state.
type Param struct {
	Name string
	W    *tensor.Mat
	G    *tensor.Mat
	M, V *tensor.Mat
	std  float64 // initialization stddev of W (0 = zeros)
}

// newParam allocates a zeroed parameter; std > 0 marks its weights for
// Gaussian initialization (initWeights).
func newParam(name string, rows, cols int, std float64) *Param {
	return &Param{
		Name: name,
		W:    tensor.NewMat(rows, cols),
		G:    tensor.NewMat(rows, cols),
		M:    tensor.NewMat(rows, cols),
		V:    tensor.NewMat(rows, cols),
		std:  std,
	}
}

type ffnParams struct {
	w1, b1, w2, b2 *Param
}

func (f *ffnParams) params() []*Param { return []*Param{f.w1, f.b1, f.w2, f.b2} }

type block struct {
	layer    int
	attenW   *Param
	attenB   *Param
	isMoE    bool
	moeIndex int // index among MoE layers, -1 otherwise
	gate     *Param
	experts  []*ffnParams
	ffn      *ffnParams // dense FFN when !isMoE
}

// module is one checkpoint module: its parameters, the layout of its two
// checkpoint blobs and, for an expert, its place in the MoE grid — all
// fixed at construction, so nothing on the capture, restore or update path
// formats or parses a name.
type module struct {
	params []*Param
	// weights and opt are the "<name>/w" and "<name>/opt" blobs' tensors
	// in wire order, aliasing Param.W.Data and Param.{M,V}.Data: capture
	// and restore move bytes straight between parameters and blob.
	weights, opt []storage.Tensor
	// moeLayer and expert place an expert module (isExpert) in the grid.
	moeLayer, expert int
	isExpert         bool
}

func newModule(ps []*Param) *module {
	mod := &module{params: ps}
	for i, p := range ps {
		key := fmt.Sprintf("p%d", i)
		mod.weights = append(mod.weights, storage.Tensor{Key: key, Data: p.W.Data})
		mod.opt = append(mod.opt,
			storage.Tensor{Key: key + ".m", Data: p.M.Data},
			storage.Tensor{Key: key + ".v", Data: p.V.Data})
	}
	// Wire order is ascending by key, not by index: "p10" sorts before "p2".
	for _, l := range [][]storage.Tensor{mod.weights, mod.opt} {
		sort.Slice(l, func(i, j int) bool { return l[i].Key < l[j].Key })
	}
	return mod
}

// Model is a trainable sparse-MoE language model.
type Model struct {
	cfg Config
	// r is the seed stream shared by initialization and gate noise, and
	// skipped the Norm draws it has yet to pass over; read it through
	// stream.
	r       *rng.RNG
	skipped int
	embed   *Param
	blocks  []*block
	out     *Param
	outB    *Param

	// modules maps checkpoint module names to their parameters and layout.
	modules     map[string]*module
	moduleOrder []string
	// moeLayers[l] is the transformer-layer index of the l-th MoE layer.
	moeLayers []int

	step int // Adam time step
	iter int // training iteration (checkpoint bookkeeping)
}

// New builds a model and initializes it from its seed.
func New(cfg Config) (*Model, error) {
	m, err := build(cfg)
	if err != nil {
		return nil, err
	}
	m.initWeights(nil)
	return m, nil
}

// NewFrom builds a model holding recovered checkpoint state: what New(cfg)
// followed by Restore(rec) gives, bit for bit — weights, optimizer state,
// iteration and the position of the seed stream — except that only the
// weights rec does not supply (experts a PEC recovery left out) are ever
// drawn. A restart so costs what the checkpoint holds, not an
// initialization the restore overwrites.
func NewFrom(cfg Config, rec map[string]core.RecoveredModule) (*Model, error) {
	m, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := m.Restore(rec); err != nil {
		return nil, err
	}
	m.initWeights(rec)
	return m, nil
}

// initWeights draws the Gaussian initialization in declaration order, the
// order of the seed stream. Weights rec supplies are passed over: their
// draws are only counted, and replayed without the arithmetic if the
// stream is ever read again.
func (m *Model) initWeights(rec map[string]core.RecoveredModule) {
	for _, name := range m.moduleOrder {
		_, restored := rec[name+weightSuffix]
		for _, p := range m.modules[name].params {
			switch {
			case p.std == 0:
			case restored:
				m.skipped += len(p.W.Data)
			default:
				r := m.stream()
				for i := range p.W.Data {
					p.W.Data[i] = r.NormFloat32(0, p.std)
				}
			}
		}
	}
}

// stream returns the seed stream, first replaying the draws initWeights
// passed over (rng.SkipNorm), so every later draw is the one a fully
// initialized model would make. A model that never draws again — no gate
// noise — never pays for the replay.
func (m *Model) stream() *rng.RNG {
	if m.skipped > 0 {
		m.r.SkipNorm(m.skipped)
		m.skipped = 0
	}
	return m.r
}

// build allocates the model's parameters, all zero, and its module table.
func build(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mc := cfg.Model
	h := mc.HiddenSize
	ff := mc.FFNMult * h
	m := &Model{cfg: cfg, r: rng.New(cfg.Seed), modules: make(map[string]*module)}
	std := 1.0 / math.Sqrt(float64(h))

	reg := func(name string, ps ...*Param) *module {
		mod := newModule(ps)
		m.modules[name] = mod
		m.moduleOrder = append(m.moduleOrder, name)
		return mod
	}

	m.embed = newParam("embed.token", mc.VocabSize, h, std)
	reg("embed.token", m.embed)

	newFFN := func(prefix string) *ffnParams {
		return &ffnParams{
			w1: newParam(prefix+".w1", ff, h, std),
			b1: newParam(prefix+".b1", 1, ff, 0),
			w2: newParam(prefix+".w2", h, ff, 1.0/math.Sqrt(float64(ff))),
			b2: newParam(prefix+".b2", 1, h, 0),
		}
	}

	moeIdx := 0
	for i := 0; i < mc.NumLayers; i++ {
		b := &block{layer: i, moeIndex: -1}
		b.attenW = newParam(fmt.Sprintf("layer%d.atten.w", i), h, h, std)
		b.attenB = newParam(fmt.Sprintf("layer%d.atten.b", i), 1, h, 0)
		reg(fmt.Sprintf("layer%d.atten", i), b.attenW, b.attenB)
		if mc.IsMoELayer(i) {
			b.isMoE = true
			b.moeIndex = moeIdx
			m.moeLayers = append(m.moeLayers, i)
			b.gate = newParam(fmt.Sprintf("layer%d.moe.gate", i), mc.NumExperts, h, std)
			reg(fmt.Sprintf("layer%d.moe.gate", i), b.gate)
			for e := 0; e < mc.NumExperts; e++ {
				exp := newFFN(fmt.Sprintf("layer%d.moe.expert%d", i, e))
				b.experts = append(b.experts, exp)
				mod := reg(fmt.Sprintf("layer%d.moe.expert%d", i, e), exp.params()...)
				mod.moeLayer, mod.expert, mod.isExpert = moeIdx, e, true
			}
			moeIdx++
		} else {
			b.ffn = newFFN(fmt.Sprintf("layer%d.ffn", i))
			reg(fmt.Sprintf("layer%d.ffn", i), b.ffn.params()...)
		}
		m.blocks = append(m.blocks, b)
	}
	m.out = newParam("head.out", mc.VocabSize, h, std)
	m.outB = newParam("head.b", 1, mc.VocabSize, 0)
	reg("head", m.out, m.outB)
	return m, nil
}

// Config returns the trainer configuration.
func (m *Model) Config() Config { return m.cfg }

// NumMoELayers returns the number of MoE layers.
func (m *Model) NumMoELayers() int { return len(m.moeLayers) }

// Iteration returns the number of completed training iterations.
func (m *Model) Iteration() int { return m.iter }

// ModuleNames returns all checkpoint module names in declaration order.
func (m *Model) ModuleNames() []string {
	return append([]string(nil), m.moduleOrder...)
}

// ExpertModuleName maps (MoE-layer index, expert index) to the module name.
func (m *Model) ExpertModuleName(moeLayer, expert int) string {
	return fmt.Sprintf("layer%d.moe.expert%d", m.moeLayers[moeLayer], expert)
}

// IsExpertModule reports whether name is one of the model's expert
// modules, returning its MoE-layer and expert indices.
func (m *Model) IsExpertModule(name string) (moeLayer, expert int, ok bool) {
	if mod := m.modules[name]; mod != nil && mod.isExpert {
		return mod.moeLayer, mod.expert, true
	}
	return 0, 0, false
}

// NumParams returns the total trainable parameter count.
func (m *Model) NumParams() int {
	total := 0
	for _, mod := range m.modules {
		for _, p := range mod.params {
			total += p.W.NumParams()
		}
	}
	return total
}

// adamStep applies one Adam update to every parameter from the accumulated
// gradients, then clears them. It is the only writer of W, M and V during
// training.
func (m *Model) adamStep() {
	m.step++
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	c1 := 1 - math.Pow(beta1, float64(m.step))
	c2 := 1 - math.Pow(beta2, float64(m.step))
	lr := float32(m.cfg.LR)
	for _, name := range m.moduleOrder {
		mod := m.modules[name]
		if m.cfg.FreezeExperts && mod.isExpert {
			for _, p := range mod.params {
				p.G.Zero()
			}
			continue
		}
		for _, p := range mod.params {
			for i, g := range p.G.Data {
				if g == 0 {
					// Untouched parameters (unrouted experts) keep
					// their Adam state; skipping them matches the
					// sparse updates of real MoE training closely
					// enough for checkpoint studies.
					continue
				}
				p.M.Data[i] = beta1*p.M.Data[i] + (1-beta1)*g
				p.V.Data[i] = beta2*p.V.Data[i] + (1-beta2)*g*g
				mhat := float64(p.M.Data[i]) / c1
				vhat := float64(p.V.Data[i]) / c2
				p.W.Data[i] -= lr * float32(mhat/(math.Sqrt(vhat)+eps))
			}
			p.G.Zero()
		}
	}
}
