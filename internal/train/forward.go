package train

import (
	"fmt"
	"math"

	"moc/internal/data"
	"moc/internal/moe"
	"moc/internal/rng"
	"moc/internal/tensor"
)

// StepStats reports one training step's outcome.
type StepStats struct {
	// Loss is the mean cross-entropy of the batch.
	Loss float64
	// AuxLoss is the summed auxiliary load-balancing loss across MoE
	// layers (0 when AuxLossCoeff is 0).
	AuxLoss float64
	// Routings holds the per-MoE-layer routing statistics of the batch,
	// in MoE-layer order — the feed for the PLT tracker and the
	// load-aware selector.
	Routings []*moe.Routing
}

// slotCache stores what the backward pass needs for one dispatch slot.
type slotCache struct {
	expert  int
	gate    float32
	dropped bool
	u       []float32 // expert first-layer pre-activation
}

type blockCache struct {
	xin      [][]float32 // block input per token
	attenPre [][]float32
	xmid     [][]float32 // after the atten sublayer (input to FFN/MoE)
	// dense-FFN path
	ffnU [][]float32
	// MoE path
	routing *moe.Routing
	slots   [][]slotCache
}

// TrainBatch runs one optimization step over the examples — ForwardBackward
// then Update — and returns the mean cross-entropy loss plus routing
// statistics. Training is deterministic given the model seed and example
// stream.
func (m *Model) TrainBatch(examples []data.Example) (StepStats, error) {
	stats, err := m.ForwardBackward(examples)
	if err != nil {
		return stats, err
	}
	m.Update()
	return stats, nil
}

// ForwardBackward is the first half of a step: it reads the weights and
// accumulates gradients, and writes neither weights nor optimizer state —
// so a checkpoint capture may read them concurrently (Fig. 3: the snapshot
// overlaps the next iteration's forward and backward passes).
func (m *Model) ForwardBackward(examples []data.Example) (StepStats, error) {
	return m.process(examples, true)
}

// Update is the second half: the Adam update from the accumulated
// gradients, the only writer of weights and optimizer state, and the
// iteration count. An in-flight capture must have finished before it.
func (m *Model) Update() {
	m.adamStep()
	m.iter++
}

// Evaluate computes the mean loss and next-token accuracy on the examples
// without noise, capacity dropping, or parameter updates.
func (m *Model) Evaluate(examples []data.Example) (loss, accuracy float64, err error) {
	if len(examples) == 0 {
		return 0, 0, fmt.Errorf("train: empty evaluation set")
	}
	h := m.cfg.Model.HiddenSize
	correct := 0
	var total float64
	logits := make([]float32, m.cfg.Model.VocabSize)
	probs := make([]float32, m.cfg.Model.VocabSize)
	for _, ex := range examples {
		x := m.embedContext(ex.Context)
		for _, b := range m.blocks {
			x = m.blockForwardEval(b, x)
		}
		tensor.MatVec(logits, m.out.W, x)
		tensor.Axpy(logits, 1, m.outB.W.Data)
		lse := tensor.LogSumExp(logits)
		total += lse - float64(logits[ex.Target])
		tensor.Softmax(probs, logits)
		if tensor.ArgMax(probs) == ex.Target {
			correct++
		}
		_ = h
	}
	return total / float64(len(examples)), float64(correct) / float64(len(examples)), nil
}

// embedContext builds the input feature: the mean embedding of the context
// window.
func (m *Model) embedContext(ctx []int) []float32 {
	h := m.cfg.Model.HiddenSize
	x := make([]float32, h)
	if len(ctx) == 0 {
		return x
	}
	inv := float32(1) / float32(len(ctx))
	for _, tok := range ctx {
		row := m.embed.W.Row(tok)
		for j := range x {
			x[j] += inv * row[j]
		}
	}
	return x
}

// blockForwardEval is the inference-only path (no caches, no noise, no
// capacity limit).
func (m *Model) blockForwardEval(b *block, x []float32) []float32 {
	h := m.cfg.Model.HiddenSize
	ff := m.cfg.Model.FFNMult * h
	pre := make([]float32, h)
	tensor.MatVec(pre, b.attenW.W, x)
	tensor.Axpy(pre, 1, b.attenB.W.Data)
	xmid := make([]float32, h)
	for j := range xmid {
		v := pre[j]
		if v < 0 {
			v = 0
		}
		xmid[j] = x[j] + v
	}
	out := append([]float32(nil), xmid...)
	applyFFN := func(f *ffnParams, gate float32) {
		u := make([]float32, ff)
		tensor.MatVec(u, f.w1.W, xmid)
		tensor.Axpy(u, 1, f.b1.W.Data)
		tensor.ReLU(u, u)
		y := make([]float32, h)
		tensor.MatVec(y, f.w2.W, u)
		tensor.Axpy(y, 1, f.b2.W.Data)
		tensor.Axpy(out, gate, y)
	}
	if b.isMoE {
		lg := make([]float32, m.cfg.Model.NumExperts)
		tensor.MatVec(lg, b.gate.W, xmid)
		probs := make([]float32, len(lg))
		tensor.Softmax(probs, lg)
		top := tensor.TopK(probs, m.cfg.Model.TopK)
		var denom float32
		for _, e := range top {
			denom += probs[e]
		}
		for _, e := range top {
			applyFFN(b.experts[e], probs[e]/denom)
		}
	} else {
		applyFFN(b.ffn, 1)
	}
	return out
}

// process runs forward (and backward when train is set) over a batch.
func (m *Model) process(examples []data.Example, train bool) (StepStats, error) {
	if len(examples) == 0 {
		return StepStats{}, fmt.Errorf("train: empty batch")
	}
	mc := m.cfg.Model
	h := mc.HiddenSize
	ff := mc.FFNMult * h
	B := len(examples)

	caches := make([]*blockCache, len(m.blocks))
	x := make([][]float32, B)
	for t, ex := range examples {
		x[t] = m.embedContext(ex.Context)
	}

	// ---- forward ----
	for bi, b := range m.blocks {
		c := &blockCache{
			xin:      make([][]float32, B),
			attenPre: make([][]float32, B),
			xmid:     make([][]float32, B),
		}
		caches[bi] = c
		for t := 0; t < B; t++ {
			c.xin[t] = x[t]
			pre := make([]float32, h)
			tensor.MatVec(pre, b.attenW.W, x[t])
			tensor.Axpy(pre, 1, b.attenB.W.Data)
			c.attenPre[t] = pre
			xmid := make([]float32, h)
			for j := range xmid {
				v := pre[j]
				if v < 0 {
					v = 0
				}
				xmid[j] = x[t][j] + v
			}
			c.xmid[t] = xmid
		}
		if b.isMoE {
			logits := make([][]float32, B)
			for t := 0; t < B; t++ {
				lg := make([]float32, mc.NumExperts)
				tensor.MatVec(lg, b.gate.W, c.xmid[t])
				logits[t] = lg
			}
			rcfg := moe.RouterConfig{
				NumExperts:     mc.NumExperts,
				TopK:           mc.TopK,
				CapacityFactor: m.cfg.CapacityFactor,
				NoiseStd:       m.cfg.NoiseStd,
			}
			var noiseRng *rng.RNG
			if train && m.cfg.NoiseStd > 0 {
				noiseRng = m.stream()
			}
			routing, err := moe.Route(rcfg, logits, noiseRng)
			if err != nil {
				return StepStats{}, err
			}
			c.routing = routing
			c.slots = make([][]slotCache, B)
			for t := 0; t < B; t++ {
				xout := append([]float32(nil), c.xmid[t]...)
				slots := make([]slotCache, 0, mc.TopK)
				for _, s := range routing.Slots[t] {
					sc := slotCache{expert: s.Expert, gate: s.Gate, dropped: s.Dropped}
					if !s.Dropped {
						f := b.experts[s.Expert]
						u := make([]float32, ff)
						tensor.MatVec(u, f.w1.W, c.xmid[t])
						tensor.Axpy(u, 1, f.b1.W.Data)
						sc.u = u
						a := make([]float32, ff)
						tensor.ReLU(a, u)
						y := make([]float32, h)
						tensor.MatVec(y, f.w2.W, a)
						tensor.Axpy(y, 1, f.b2.W.Data)
						tensor.Axpy(xout, s.Gate, y)
					}
					slots = append(slots, sc)
				}
				c.slots[t] = slots
				x[t] = xout
			}
		} else {
			c.ffnU = make([][]float32, B)
			for t := 0; t < B; t++ {
				u := make([]float32, ff)
				tensor.MatVec(u, b.ffn.w1.W, c.xmid[t])
				tensor.Axpy(u, 1, b.ffn.b1.W.Data)
				c.ffnU[t] = u
				a := make([]float32, ff)
				tensor.ReLU(a, u)
				y := make([]float32, h)
				tensor.MatVec(y, b.ffn.w2.W, a)
				tensor.Axpy(y, 1, b.ffn.b2.W.Data)
				xout := append([]float32(nil), c.xmid[t]...)
				tensor.Axpy(xout, 1, y)
				x[t] = xout
			}
		}
	}

	// ---- head + loss ----
	stats := StepStats{}
	for _, c := range caches {
		if c.routing != nil {
			stats.Routings = append(stats.Routings, c.routing)
			if m.cfg.AuxLossCoeff > 0 {
				stats.AuxLoss += auxLoss(m.cfg.AuxLossCoeff, c.routing)
			}
		}
	}
	dlogits := make([][]float32, B)
	var lossSum float64
	logits := make([]float32, mc.VocabSize)
	for t, ex := range examples {
		tensor.MatVec(logits, m.out.W, x[t])
		tensor.Axpy(logits, 1, m.outB.W.Data)
		lse := tensor.LogSumExp(logits)
		lossSum += lse - float64(logits[ex.Target])
		if train {
			dl := make([]float32, mc.VocabSize)
			tensor.Softmax(dl, logits)
			dl[ex.Target] -= 1
			tensor.Scale(dl, 1/float32(B))
			dlogits[t] = dl
		}
	}
	stats.Loss = lossSum / float64(B)
	if math.IsNaN(stats.Loss) || math.IsInf(stats.Loss, 0) {
		return stats, fmt.Errorf("train: loss diverged (%v)", stats.Loss)
	}
	if !train {
		return stats, nil
	}

	// ---- backward ----
	dx := make([][]float32, B)
	for t := 0; t < B; t++ {
		d := make([]float32, h)
		tensor.MatTVec(d, m.out.W, dlogits[t])
		tensor.AddOuter(m.out.G, dlogits[t], x[t])
		tensor.Axpy(m.outB.G.Data, 1, dlogits[t])
		dx[t] = d
	}

	da := make([]float32, ff)
	du := make([]float32, ff)
	dff := make([]float32, h)
	for bi := len(m.blocks) - 1; bi >= 0; bi-- {
		b := m.blocks[bi]
		c := caches[bi]
		// Auxiliary load-balancing gradient (constant across the batch):
		// dL_aux/dprobs[t][e] = coeff · N · f_e / B, with f_e the fraction
		// of dispatched tokens expert e processed.
		var dpAux []float32
		if b.isMoE && m.cfg.AuxLossCoeff > 0 {
			dpAux = auxProbGrad(m.cfg.AuxLossCoeff, c.routing, B)
		}
		for t := 0; t < B; t++ {
			// dy is the (read-only) gradient at the block output; dmid
			// accumulates the gradient at xmid: the residual path plus
			// every expert/FFN/gate contribution.
			dy := dx[t]
			dmid := append([]float32(nil), dy...)
			if b.isMoE {
				dgates := make([]float32, len(c.slots[t]))
				for si, sc := range c.slots[t] {
					if sc.dropped {
						continue
					}
					f := b.experts[sc.expert]
					a := make([]float32, ff)
					tensor.ReLU(a, sc.u)
					// dg = f(x)·dy; recompute f output.
					y := make([]float32, h)
					tensor.MatVec(y, f.w2.W, a)
					tensor.Axpy(y, 1, f.b2.W.Data)
					dgates[si] = tensor.Dot(y, dy)
					// df = g·dy
					for j := range dff {
						dff[j] = sc.gate * dy[j]
					}
					tensor.AddOuter(f.w2.G, dff, a)
					tensor.Axpy(f.b2.G.Data, 1, dff)
					tensor.MatTVec(da, f.w2.W, dff)
					tensor.ReLUGrad(du, da, sc.u)
					tensor.AddOuter(f.w1.G, du, c.xmid[t])
					tensor.Axpy(f.b1.G.Data, 1, du)
					add := make([]float32, h)
					tensor.MatTVec(add, f.w1.W, du)
					tensor.Axpy(dmid, 1, add)
				}
				// Gate backward: renormalized top-k over the softmax.
				probs := c.routing.Probs[t]
				var s float32
				for _, sc := range c.slots[t] {
					s += probs[sc.expert]
				}
				if s <= 0 {
					s = 1
				}
				var dot float32
				for si, sc := range c.slots[t] {
					_ = sc
					dot += dgates[si] * probs[c.slots[t][si].expert]
				}
				dp := make([]float32, mc.NumExperts)
				for si, sc := range c.slots[t] {
					dp[sc.expert] = dgates[si]/s - dot/(s*s)
				}
				if dpAux != nil {
					for e := range dp {
						dp[e] += dpAux[e]
					}
				}
				// Softmax backward over all experts.
				var pdp float32
				for e := range dp {
					pdp += dp[e] * probs[e]
				}
				dz := make([]float32, mc.NumExperts)
				for e := range dz {
					dz[e] = probs[e] * (dp[e] - pdp)
				}
				tensor.AddOuter(b.gate.G, dz, c.xmid[t])
				add := make([]float32, h)
				tensor.MatTVec(add, b.gate.W, dz)
				tensor.Axpy(dmid, 1, add)
			} else {
				f := b.ffn
				a := make([]float32, ff)
				tensor.ReLU(a, c.ffnU[t])
				tensor.AddOuter(f.w2.G, dy, a)
				tensor.Axpy(f.b2.G.Data, 1, dy)
				tensor.MatTVec(da, f.w2.W, dy)
				tensor.ReLUGrad(du, da, c.ffnU[t])
				tensor.AddOuter(f.w1.G, du, c.xmid[t])
				tensor.Axpy(f.b1.G.Data, 1, du)
				add := make([]float32, h)
				tensor.MatTVec(add, f.w1.W, du)
				tensor.Axpy(dmid, 1, add)
			}
			// Atten sublayer backward: xmid = xin + relu(W xin + b).
			dpre := make([]float32, h)
			tensor.ReLUGrad(dpre, dmid, c.attenPre[t])
			tensor.AddOuter(b.attenW.G, dpre, c.xin[t])
			tensor.Axpy(b.attenB.G.Data, 1, dpre)
			dxin := append([]float32(nil), dmid...) // residual path
			add := make([]float32, h)
			tensor.MatTVec(add, b.attenW.W, dpre)
			tensor.Axpy(dxin, 1, add)
			dx[t] = dxin
		}
	}

	// Embedding backward.
	for t, ex := range examples {
		if len(ex.Context) == 0 {
			continue
		}
		inv := 1 / float32(len(ex.Context))
		for _, tok := range ex.Context {
			row := m.embed.G.Row(tok)
			for j := range row {
				row[j] += inv * dx[t][j]
			}
		}
	}
	return stats, nil
}

// auxLoss computes the GShard/Switch load-balancing loss of one MoE layer:
// coeff · N · Σ_e f_e · P_e, where f_e is the fraction of dispatched
// tokens expert e processed and P_e the mean gate probability.
func auxLoss(coeff float64, r *moe.Routing) float64 {
	n := len(r.PerExpert)
	if n == 0 || len(r.Probs) == 0 {
		return 0
	}
	total := 0
	for _, c := range r.PerExpert {
		total += c
	}
	if total == 0 {
		return 0
	}
	var sum float64
	for e := 0; e < n; e++ {
		var pMean float64
		for t := range r.Probs {
			pMean += float64(r.Probs[t][e])
		}
		pMean /= float64(len(r.Probs))
		f := float64(r.PerExpert[e]) / float64(total)
		sum += f * pMean
	}
	return coeff * float64(n) * sum
}

// auxProbGrad returns dL_aux/dprobs[t] (identical for every token t in the
// batch): coeff · N · f_e / B, treating the dispatch fractions f as
// constants, the standard straight-through treatment.
func auxProbGrad(coeff float64, r *moe.Routing, batch int) []float32 {
	n := len(r.PerExpert)
	out := make([]float32, n)
	total := 0
	for _, c := range r.PerExpert {
		total += c
	}
	if total == 0 || batch == 0 {
		return out
	}
	for e := 0; e < n; e++ {
		f := float64(r.PerExpert[e]) / float64(total)
		out[e] = float32(coeff * float64(n) * f / float64(batch))
	}
	return out
}
