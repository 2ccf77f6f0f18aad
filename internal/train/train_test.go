package train

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"moc/internal/core"
	"moc/internal/data"
	"moc/internal/model"
	"moc/internal/rng"
	"moc/internal/storage"
)

func tinyConfig() Config {
	mc := model.TinyMoE(4, 24, 4, 2)
	mc.VocabSize = 32
	return Config{
		Model:          mc,
		Window:         6,
		BatchSize:      16,
		LR:             0.01,
		CapacityFactor: 1.5,
		NoiseStd:       0.1,
		Seed:           7,
	}
}

func newTiny(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	good := tinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Window = 0
	if bad.Validate() == nil {
		t.Fatal("zero window accepted")
	}
	bad2 := good
	bad2.LR = 0
	if bad2.Validate() == nil {
		t.Fatal("zero LR accepted")
	}
	bad3 := good
	bad3.Model.MoEEvery = 0
	if bad3.Validate() == nil {
		t.Fatal("dense model accepted by MoE trainer")
	}
}

func TestModuleInventoryMatchesModel(t *testing.T) {
	cfg := tinyConfig()
	m := newTiny(t, cfg)
	if m.NumMoELayers() != cfg.Model.NumMoELayers() {
		t.Fatalf("MoE layers %d vs config %d", m.NumMoELayers(), cfg.Model.NumMoELayers())
	}
	names := map[string]bool{}
	for _, n := range m.ModuleNames() {
		names[n] = true
	}
	for _, mod := range cfg.Model.Modules() {
		if mod.Name == "embed.pos" {
			continue // the tiny trainer has no positional table
		}
		if !names[mod.Name] {
			t.Errorf("trainer lacks module %q from the model inventory", mod.Name)
		}
	}
	// Expert module name round trip.
	name := m.ExpertModuleName(1, 3)
	l, e, ok := m.IsExpertModule(name)
	if !ok || l != 1 || e != 3 {
		t.Fatalf("expert name round trip: %q -> (%d,%d,%v)", name, l, e, ok)
	}
	if _, _, ok := m.IsExpertModule("layer0.atten"); ok {
		t.Fatal("non-expert module parsed as expert")
	}
}

func TestGradientCheck(t *testing.T) {
	cfg := tinyConfig()
	cfg.NoiseStd = 0
	cfg.CapacityFactor = 0 // deterministic routing, no drops
	m := newTiny(t, cfg)
	corpus := data.NewCorpus("g", cfg.Model.VocabSize, 1)
	batch := corpus.Batch(1, 0, 8, cfg.Window)

	lossAt := func() float64 {
		st, err := m.process(batch, false)
		if err != nil {
			t.Fatal(err)
		}
		return st.Loss
	}
	if _, err := m.process(batch, true); err != nil {
		t.Fatal(err)
	}
	// Spot-check analytic vs numerical gradients across module types.
	checks := []struct {
		module string
		pi, wi int
	}{
		{"embed.token", 0, 5},
		{"layer0.atten", 0, 3},
		{"layer0.moe.gate", 0, 2},
		{"layer0.moe.expert0", 0, 1},
		{"layer0.moe.expert0", 2, 4},
		{"head", 0, 7},
	}
	const eps = 1e-2
	for _, c := range checks {
		ps := m.modules[c.module].params
		p := ps[c.pi]
		analytic := float64(p.G.Data[c.wi])
		orig := p.W.Data[c.wi]
		p.W.Data[c.wi] = orig + eps
		up := lossAt()
		p.W.Data[c.wi] = orig - eps
		down := lossAt()
		p.W.Data[c.wi] = orig
		numeric := (up - down) / (2 * eps)
		// Routing may flip for expert/gate params; tolerate generously
		// but demand agreement in sign and magnitude when meaningful.
		diff := math.Abs(analytic - numeric)
		scale := math.Max(math.Abs(analytic), math.Abs(numeric))
		if scale > 1e-4 && diff/scale > 0.15 {
			t.Errorf("%s p%d[%d]: analytic %.6f vs numeric %.6f", c.module, c.pi, c.wi, analytic, numeric)
		}
	}
}

func TestLossDecreases(t *testing.T) {
	cfg := tinyConfig()
	m := newTiny(t, cfg)
	corpus := data.NewCorpus("pretrain", cfg.Model.VocabSize, data.PretrainDomain)
	heldout := corpus.Heldout(cfg.Seed, 128, cfg.Window)
	before, _, err := m.Evaluate(heldout)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 150; it++ {
		batch := corpus.Batch(cfg.Seed, it, cfg.BatchSize, cfg.Window)
		if _, err := m.TrainBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	after, acc, err := m.Evaluate(heldout)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before-0.05 {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", before, after)
	}
	uniform := math.Log(float64(cfg.Model.VocabSize))
	if after >= uniform {
		t.Fatalf("post-training loss %.4f not below uniform %.4f", after, uniform)
	}
	if acc <= 1.0/float64(cfg.Model.VocabSize)*1.5 {
		t.Fatalf("accuracy %.4f barely above chance", acc)
	}
	if m.Iteration() != 150 {
		t.Fatalf("iteration counter = %d", m.Iteration())
	}
}

func TestTrainingDeterministic(t *testing.T) {
	cfg := tinyConfig()
	run := func() float64 {
		m := newTiny(t, cfg)
		corpus := data.NewCorpus("pretrain", cfg.Model.VocabSize, 1)
		var last float64
		for it := 0; it < 30; it++ {
			st, err := m.TrainBatch(corpus.Batch(cfg.Seed, it, cfg.BatchSize, cfg.Window))
			if err != nil {
				t.Fatal(err)
			}
			last = st.Loss
		}
		return last
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("training not deterministic: %v vs %v", a, b)
	}
}

func TestRoutingStatsExposed(t *testing.T) {
	cfg := tinyConfig()
	m := newTiny(t, cfg)
	corpus := data.NewCorpus("x", cfg.Model.VocabSize, 1)
	st, err := m.TrainBatch(corpus.Batch(1, 0, cfg.BatchSize, cfg.Window))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Routings) != m.NumMoELayers() {
		t.Fatalf("routings for %d layers, want %d", len(st.Routings), m.NumMoELayers())
	}
	for l, r := range st.Routings {
		if r.RoutedSlots != cfg.BatchSize*cfg.Model.TopK {
			t.Fatalf("layer %d routed slots %d", l, r.RoutedSlots)
		}
	}
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	m := newTiny(t, cfg)
	corpus := data.NewCorpus("x", cfg.Model.VocabSize, 1)
	for it := 0; it < 20; it++ {
		if _, err := m.TrainBatch(corpus.Batch(1, it, cfg.BatchSize, cfg.Window)); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Capture(nil, VariantFull())
	want := m.CloneState()
	wantIter := m.Iteration()

	// Keep training, then restore: all weights must revert exactly.
	for it := 20; it < 30; it++ {
		if _, err := m.TrainBatch(corpus.Batch(1, it, cfg.BatchSize, cfg.Window)); err != nil {
			t.Fatal(err)
		}
	}
	rec := map[string]core.RecoveredModule{}
	for k, b := range snap {
		rec[k] = core.RecoveredModule{Blob: b, Round: 0}
	}
	iter, err := m.Restore(rec)
	if err != nil {
		t.Fatal(err)
	}
	if iter != wantIter {
		t.Fatalf("restored iteration %d, want %d", iter, wantIter)
	}
	got := m.CloneState()
	for k, w := range want {
		g := got[k]
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s[%d] = %v, want %v after restore", k, i, g[i], w[i])
			}
		}
	}
}

func TestPECCaptureOmitsUnselectedExperts(t *testing.T) {
	cfg := tinyConfig()
	m := newTiny(t, cfg)
	sel := core.NewSequentialSelector(m.NumMoELayers(), cfg.Model.NumExperts).Select(0, 1)
	snap := m.Capture(sel, VariantWO())
	for l := 0; l < m.NumMoELayers(); l++ {
		for e := 0; e < cfg.Model.NumExperts; e++ {
			name := m.ExpertModuleName(l, e)
			_, hasW := snap[name+"/w"]
			_, hasO := snap[name+"/opt"]
			want := sel.Contains(l, e)
			if hasW != want || hasO != want {
				t.Fatalf("expert (%d,%d): captured w=%v o=%v, selected=%v", l, e, hasW, hasO, want)
			}
		}
	}
	// Non-expert modules always present.
	for _, name := range []string{"embed.token/w", "head/opt", "layer0.moe.gate/w"} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("non-expert key %q missing", name)
		}
	}
	// Variant W keeps all optimizer blobs.
	snapW := m.Capture(sel, VariantW())
	for l := 0; l < m.NumMoELayers(); l++ {
		for e := 0; e < cfg.Model.NumExperts; e++ {
			name := m.ExpertModuleName(l, e)
			if _, ok := snapW[name+"/opt"]; !ok {
				t.Fatalf("variant W dropped optimizer of (%d,%d)", l, e)
			}
		}
	}
}

func TestPECRestoreLeavesStaleExpertsStale(t *testing.T) {
	cfg := tinyConfig()
	cfg.NoiseStd = 0
	m := newTiny(t, cfg)
	corpus := data.NewCorpus("x", cfg.Model.VocabSize, 1)
	for it := 0; it < 10; it++ {
		m.TrainBatch(corpus.Batch(1, it, cfg.BatchSize, cfg.Window))
	}
	sel := core.NewSequentialSelector(m.NumMoELayers(), cfg.Model.NumExperts).Select(0, 1)
	snap := m.Capture(sel, VariantWO())
	for it := 10; it < 20; it++ {
		m.TrainBatch(corpus.Batch(1, it, cfg.BatchSize, cfg.Window))
	}
	current := m.CloneState()
	rec := map[string]core.RecoveredModule{}
	for k, b := range snap {
		rec[k] = core.RecoveredModule{Blob: b}
	}
	if _, err := m.Restore(rec); err != nil {
		t.Fatal(err)
	}
	after := m.CloneState()
	// Unselected experts were not in the checkpoint: their weights must
	// still equal the pre-restore (iteration 20) state.
	unsel := m.ExpertModuleName(0, (0+1)%cfg.Model.NumExperts) // layer 0 selected expert is 0
	stale := false
	for i, v := range after[unsel+"#0"] {
		if v != current[unsel+"#0"][i] {
			stale = true
			break
		}
	}
	if stale {
		t.Fatal("unselected expert was modified by PEC restore")
	}
}

func TestFreezeExpertsKeepsExpertWeights(t *testing.T) {
	cfg := tinyConfig()
	cfg.FreezeExperts = true
	m := newTiny(t, cfg)
	corpus := data.NewCorpus("x", cfg.Model.VocabSize, 1)
	before := m.CloneState()
	for it := 0; it < 10; it++ {
		if _, err := m.TrainBatch(corpus.Batch(1, it, cfg.BatchSize, cfg.Window)); err != nil {
			t.Fatal(err)
		}
	}
	after := m.CloneState()
	expert := m.ExpertModuleName(0, 0)
	for i := range before[expert+"#0"] {
		if before[expert+"#0"][i] != after[expert+"#0"][i] {
			t.Fatal("frozen expert weights changed")
		}
	}
	changed := false
	for i := range before["embed.token#0"] {
		if before["embed.token#0"][i] != after["embed.token#0"][i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("non-expert weights did not train")
	}
}

func TestPersistFilter(t *testing.T) {
	cfg := tinyConfig()
	m := newTiny(t, cfg)
	selSnap := core.NewSequentialSelector(m.NumMoELayers(), cfg.Model.NumExperts).Select(0, 2)
	persistSel := selSnap.Subset(1)
	keep := m.PersistFilter(persistSel, VariantWO())
	// Non-expert and meta keys always pass.
	for _, k := range []string{"embed.token/w", "head/opt", "meta/state"} {
		if !keep(k) {
			t.Fatalf("filter dropped %q", k)
		}
	}
	l0sel := persistSel.Experts[0][0]
	l0other := selSnap.Experts[0][1]
	if !keep(m.ExpertModuleName(0, l0sel) + "/w") {
		t.Fatal("filter dropped the persist-selected expert")
	}
	if keep(m.ExpertModuleName(0, l0other) + "/w") {
		t.Fatal("filter kept an expert outside the persist selection")
	}
	if m.PersistFilter(nil, VariantWO()) != nil {
		t.Fatal("nil selection should produce nil filter (persist everything)")
	}
	// Variant O: weights always persist even for unselected experts.
	keepO := m.PersistFilter(persistSel, VariantO())
	if !keepO(m.ExpertModuleName(0, l0other) + "/w") {
		t.Fatal("variant O must persist all expert weights")
	}
	if keepO(m.ExpertModuleName(0, l0other) + "/opt") {
		t.Fatal("variant O must filter expert optimizer state")
	}
}

func TestEvaluateEmptySetErrors(t *testing.T) {
	m := newTiny(t, tinyConfig())
	if _, _, err := m.Evaluate(nil); err == nil {
		t.Fatal("empty evaluation accepted")
	}
	if _, err := m.TrainBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestRestoreErrors(t *testing.T) {
	m := newTiny(t, tinyConfig())
	if _, err := m.Restore(map[string]core.RecoveredModule{}); err == nil {
		t.Fatal("recovery without meta accepted")
	}
	bad := map[string]core.RecoveredModule{
		"meta/state": {Blob: []byte("garbage")},
	}
	if _, err := m.Restore(bad); err == nil {
		t.Fatal("corrupt meta accepted")
	}
}

func TestAuxLossImprovesBalance(t *testing.T) {
	run := func(coeff float64) float64 {
		cfg := tinyConfig()
		cfg.AuxLossCoeff = coeff
		cfg.CapacityFactor = 0 // observe raw routing preference
		m := newTiny(t, cfg)
		corpus := data.NewCorpus("x", cfg.Model.VocabSize, 1)
		var lastImbalance float64
		for it := 0; it < 120; it++ {
			st, err := m.TrainBatch(corpus.Batch(1, it, 64, cfg.Window))
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, r := range st.Routings {
				sum += r.LoadImbalance()
			}
			lastImbalance = sum / float64(len(st.Routings))
		}
		return lastImbalance
	}
	without := run(0)
	with := run(0.05)
	if with >= without {
		t.Fatalf("aux loss did not improve balance: %.3f (with) vs %.3f (without)", with, without)
	}
}

func TestAuxLossReported(t *testing.T) {
	cfg := tinyConfig()
	cfg.AuxLossCoeff = 0.01
	m := newTiny(t, cfg)
	corpus := data.NewCorpus("x", cfg.Model.VocabSize, 1)
	st, err := m.TrainBatch(corpus.Batch(1, 0, 32, cfg.Window))
	if err != nil {
		t.Fatal(err)
	}
	if st.AuxLoss <= 0 {
		t.Fatalf("aux loss not reported: %v", st.AuxLoss)
	}
	cfg2 := tinyConfig()
	m2 := newTiny(t, cfg2)
	st2, err := m2.TrainBatch(corpus.Batch(1, 0, 32, cfg2.Window))
	if err != nil {
		t.Fatal(err)
	}
	if st2.AuxLoss != 0 {
		t.Fatalf("aux loss reported with coeff 0: %v", st2.AuxLoss)
	}
}

// legacyModuleBlob is the encoding this trainer used before the one-pass
// capture: every tensor deep-copied into a map keyed "p<i>" / "p<i>.m" /
// "p<i>.v" and handed to the map encoder. The module layouts must
// reproduce it byte for byte — chunk hashes, cross-round dedup and every
// checkpoint already on disk depend on it.
func legacyModuleBlob(ps []*Param, weights bool) []byte {
	tensors := make(map[string][]float32)
	for i, p := range ps {
		if weights {
			tensors[fmt.Sprintf("p%d", i)] = append([]float32(nil), p.W.Data...)
		} else {
			tensors[fmt.Sprintf("p%d.m", i)] = append([]float32(nil), p.M.Data...)
			tensors[fmt.Sprintf("p%d.v", i)] = append([]float32(nil), p.V.Data...)
		}
	}
	return storage.EncodeTensors(tensors)
}

func TestCaptureIsByteIdenticalToTheMapEncoder(t *testing.T) {
	cfg := tinyConfig()
	m := newTiny(t, cfg)
	corpus := data.NewCorpus("x", cfg.Model.VocabSize, 1)
	for it := 0; it < 5; it++ { // non-trivial weights and Adam state
		if _, err := m.TrainBatch(corpus.Batch(1, it, cfg.BatchSize, cfg.Window)); err != nil {
			t.Fatal(err)
		}
	}
	got := m.Capture(nil, VariantFull())
	if want := 2*len(m.moduleOrder) + 1; len(got) != want {
		t.Fatalf("captured %d blobs, want %d", len(got), want)
	}
	for _, name := range m.moduleOrder {
		ps := m.modules[name].params
		if !bytes.Equal(got[name+"/w"], legacyModuleBlob(ps, true)) {
			t.Errorf("%s/w differs from the map encoder's bytes", name)
		}
		if !bytes.Equal(got[name+"/opt"], legacyModuleBlob(ps, false)) {
			t.Errorf("%s/opt differs from the map encoder's bytes", name)
		}
	}
	meta := storage.EncodeTensors(map[string][]float32{
		"step": {float32(m.step)}, "iter": {float32(m.iter)},
	})
	if !bytes.Equal(got["meta/state"], meta) {
		t.Error("meta/state differs from the map encoder's bytes")
	}

	// Twelve parameters: "p10" and "p11" sort before "p2", and "p1.v"
	// before "p10.m" — wire order is by key, not by index.
	r := rng.New(9)
	var ps []*Param
	for i := 0; i < 12; i++ {
		p := newParam(fmt.Sprintf("synthetic.%d", i), 1+i%3, 2+i%2, 0)
		for j := range p.M.Data {
			p.W.Data[j], p.M.Data[j], p.V.Data[j] = r.NormFloat32(0, 1), r.NormFloat32(0, 1), r.NormFloat32(0, 1)
		}
		ps = append(ps, p)
	}
	mod := newModule(ps)
	if mod.weights[2].Key != "p10" || mod.opt[3].Key != "p1.v" || mod.opt[4].Key != "p10.m" {
		t.Fatalf("layout order: %q %q %q", mod.weights[2].Key, mod.opt[3].Key, mod.opt[4].Key)
	}
	if !bytes.Equal(storage.EncodeTensorList(mod.weights), legacyModuleBlob(ps, true)) {
		t.Error("12-parameter weights blob differs from the map encoder's bytes")
	}
	if !bytes.Equal(storage.EncodeTensorList(mod.opt), legacyModuleBlob(ps, false)) {
		t.Error("12-parameter optimizer blob differs from the map encoder's bytes")
	}
}

func TestRestoreRejectsWhatItCannotPlace(t *testing.T) {
	cfg := tinyConfig()
	m := newTiny(t, cfg)
	full := m.Capture(nil, VariantFull())
	only := func(key string, blob []byte) map[string]core.RecoveredModule {
		return map[string]core.RecoveredModule{"meta/state": {Blob: full["meta/state"]}, key: {Blob: blob}}
	}
	// Move the head away from what the blobs hold, so any write shows.
	head := m.modules["head"].params
	state := func() (out []float32) {
		for _, p := range head {
			out = append(append(append(out, p.W.Data...), p.M.Data...), p.V.Data...)
		}
		return out
	}
	orig := head[0].W.Data[0]
	for _, p := range head {
		for i := range p.W.Data {
			p.W.Data[i]++
			p.M.Data[i]++
			p.V.Data[i]++
		}
	}
	before := state()

	other := m.ExpertModuleName(0, 1)
	flipped := append([]byte(nil), full["head/w"]...)
	flipped[len(flipped)-9] ^= 0x10 // in the last tensor: the first is intact
	cases := map[string]struct {
		key  string
		blob []byte
	}{
		"unknown module":                        {"layer9.moe.expert0/w", full[other+"/w"]},
		"unknown state class":                   {"head/grad", full["head/w"]},
		"another module's shape":                {"head/w", full[other+"/w"]},
		"weights where optimizer state belongs": {"head/opt", full["head/w"]},
		"bad checksum":                          {"head/w", flipped},
	}
	for name, c := range cases {
		if _, err := m.Restore(only(c.key, c.blob)); err == nil {
			t.Errorf("%s: restore accepted it", name)
		}
		for i, v := range state() {
			if v != before[i] {
				t.Fatalf("%s: head state [%d] written by a rejected restore", name, i)
			}
		}
	}
	if _, err := m.Restore(only("head/w", full["head/w"])); err != nil {
		t.Fatalf("intact blob: %v", err)
	}
	if w := head[0].W.Data[0]; w != orig {
		t.Fatalf("intact blob restored %v, want %v", w, orig)
	}
}
