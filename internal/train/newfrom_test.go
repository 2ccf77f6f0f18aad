package train

import (
	"strings"
	"testing"

	"moc/internal/core"
	"moc/internal/data"
)

// asRecovery wraps a captured payload the way Agent.Recover hands it over.
func asRecovery(payload core.CheckpointData) map[string]core.RecoveredModule {
	rec := make(map[string]core.RecoveredModule, len(payload))
	for k, b := range payload {
		rec[k] = core.RecoveredModule{Blob: b}
	}
	return rec
}

// trainedRecovery trains a model a few noisy steps and captures it under a
// K=1 PEC selection, so under every variant but "full" the recovery lacks
// some expert state.
func trainedRecovery(t *testing.T, cfg Config, v Variant) map[string]core.RecoveredModule {
	t.Helper()
	src := newTiny(t, cfg)
	corpus := data.NewCorpus("x", cfg.Model.VocabSize, 1)
	for it := 0; it < 6; it++ {
		if _, err := src.TrainBatch(corpus.Batch(1, it, cfg.BatchSize, cfg.Window)); err != nil {
			t.Fatal(err)
		}
	}
	sel := core.NewSequentialSelector(src.NumMoELayers(), cfg.Model.NumExperts).Select(1, 1)
	return asRecovery(src.Capture(sel, v))
}

// sameModel fails unless a and b hold the same weights, optimizer state and
// counters.
func sameModel(t *testing.T, what string, a, b *Model) {
	t.Helper()
	if a.iter != b.iter || a.step != b.step {
		t.Fatalf("%s: iter/step %d/%d vs %d/%d", what, a.iter, a.step, b.iter, b.step)
	}
	bw := b.CloneState()
	for k, w := range a.CloneState() {
		for i := range w {
			if w[i] != bw[k][i] {
				t.Fatalf("%s: weight %s[%d] = %v vs %v", what, k, i, w[i], bw[k][i])
			}
		}
	}
	for name, mod := range a.modules {
		for pi, p := range mod.params {
			q := b.modules[name].params[pi]
			for i := range p.M.Data {
				if p.M.Data[i] != q.M.Data[i] || p.V.Data[i] != q.V.Data[i] {
					t.Fatalf("%s: Adam state %s[%d] differs", what, p.Name, i)
				}
			}
		}
	}
}

func TestNewFromMatchesNewThenRestore(t *testing.T) {
	variants := map[string]Variant{"full": VariantFull(), "WO": VariantWO(), "W": VariantW(), "O": VariantO()}
	for name, v := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig() // NoiseStd 0.1: training reads the seed stream
			rec := trainedRecovery(t, cfg, v)
			absent := 0
			for _, mod := range newTiny(t, cfg).moduleOrder {
				if _, ok := rec[mod+weightSuffix]; !ok {
					absent++
				}
			}
			if wantAbsent := v.PECOnWeights; (absent > 0) != wantAbsent {
				t.Fatalf("%d modules lack weights in the recovery, PEC on weights = %v", absent, wantAbsent)
			}

			ref := newTiny(t, cfg)
			if _, err := ref.Restore(rec); err != nil {
				t.Fatal(err)
			}
			got, err := NewFrom(cfg, rec)
			if err != nil {
				t.Fatal(err)
			}
			if v == VariantFull() && got.skipped == 0 {
				t.Fatal("a full recovery drew the initialization it overwrites")
			}
			sameModel(t, "after construction", ref, got)
			for i := 0; i < 5; i++ {
				if x, y := ref.stream().Uint64(), got.stream().Uint64(); x != y {
					t.Fatalf("seed stream draw %d: %x vs %x", i, x, y)
				}
			}
			corpus := data.NewCorpus("x", cfg.Model.VocabSize, 1)
			for it := 0; it < 4; it++ {
				batch := corpus.Batch(1, ref.iter, cfg.BatchSize, cfg.Window)
				rs, err := ref.TrainBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				gs, err := got.TrainBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				if rs.Loss != gs.Loss {
					t.Fatalf("step %d: loss %v vs %v", it, rs.Loss, gs.Loss)
				}
			}
			sameModel(t, "after 4 noisy steps", ref, got)
		})
	}
}

func TestNewFromRejectsWhatRestoreRejects(t *testing.T) {
	cfg := tinyConfig()
	rec := trainedRecovery(t, cfg, VariantFull())
	delete(rec, metaKey)
	if _, err := NewFrom(cfg, rec); err == nil {
		t.Fatal("recovery without meta accepted")
	}
	if _, err := NewFrom(cfg, nil); err == nil {
		t.Fatal("nil recovery accepted")
	}
}

func TestRestoreFailsDeterministicallyAndBeforeWriting(t *testing.T) {
	cfg := tinyConfig()
	rec := trainedRecovery(t, cfg, VariantFull())
	corrupt := func(key string) {
		blob := append([]byte(nil), rec[key].Blob...)
		blob[len(blob)-9] ^= 0x10
		rec[key] = core.RecoveredModule{Blob: blob}
	}

	// Two bad blobs: always the lower key, whatever order the map yields
	// them in.
	corrupt("layer3.atten/opt")
	corrupt("embed.token/w")
	for i := 0; i < 50; i++ {
		_, err := newTiny(t, cfg).Restore(rec)
		if err == nil || !strings.Contains(err.Error(), `"embed.token/w"`) {
			t.Fatalf("run %d: error %v, want the one for embed.token/w", i, err)
		}
	}

	// A key that names nothing, or metadata without an iteration, is found
	// before the intact blobs beside it are applied.
	pristine := newTiny(t, cfg)
	for what, breakIt := range map[string]func(map[string]core.RecoveredModule){
		"unknown key": func(r map[string]core.RecoveredModule) { r["zz.unknown/w"] = r["head/w"] },
		"meta without iteration": func(r map[string]core.RecoveredModule) {
			r[metaKey] = core.RecoveredModule{Blob: rec["layer0.atten/w"].Blob}
		},
	} {
		good := trainedRecovery(t, cfg, VariantFull())
		breakIt(good)
		m := newTiny(t, cfg)
		if _, err := m.Restore(good); err == nil {
			t.Fatalf("%s: restore accepted it", what)
		}
		sameModel(t, what, pristine, m)
	}
}
