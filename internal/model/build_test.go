package model

import (
	"fmt"
	"math"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/quant"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
)

// The build contract: whole-model, ranged and draft builds equal, bit for
// bit, what the sequential generator below produces. It is a frozen copy
// of the generator and the two constructors as they stood before the
// weight stream became position-addressable (SplitMix64, Box-Muller with
// a redraw on u1 == 0, one pass over the matrices in stream order); it
// must never be "kept in sync" with internal/tensor or build.go.

type frozenRNG struct{ state uint64 }

func (r *frozenRNG) uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *frozenRNG) float64() float64 { return float64(r.uint64()>>11) / (1 << 53) }

func (r *frozenRNG) norm() float32 {
	u1 := r.float64()
	for u1 == 0 {
		u1 = r.float64()
	}
	u2 := r.float64()
	return float32(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
}

// frozenModel builds a whole model the way model.New used to.
func frozenModel(cfg Config, seed uint64) *Model {
	rng := &frozenRNG{state: seed}
	m := &Model{Cfg: cfg}
	std := float32(1.0 / math.Sqrt(float64(cfg.Dim)))
	m.Embed = tensor.NewMat(cfg.VocabSize, cfg.Dim)
	for i := range m.Embed.Data {
		m.Embed.Data[i] = rng.norm() * 1
	}
	newQ := func(rows, cols int) quant.Mat {
		w := tensor.NewMat(rows, cols)
		for i := range w.Data {
			w.Data[i] = rng.norm() * std
		}
		return quant.Quantize(w, cfg.Quant)
	}
	m.Layers = make([]Layer, cfg.NLayers)
	for l := range m.Layers {
		m.Layers[l] = Layer{
			AttnNorm: ones(cfg.Dim),
			Wq:       newQ(cfg.Dim, cfg.Dim),
			Wk:       newQ(cfg.KVDim(), cfg.Dim),
			Wv:       newQ(cfg.KVDim(), cfg.Dim),
			Wo:       newQ(cfg.Dim, cfg.Dim),
			FFNNorm:  ones(cfg.Dim),
			WGate:    newQ(cfg.FFNDim, cfg.Dim),
			WUp:      newQ(cfg.FFNDim, cfg.Dim),
			WDown:    newQ(cfg.Dim, cfg.FFNDim),
		}
	}
	m.Norm = ones(cfg.Dim)
	m.Output = newQ(cfg.VocabSize, cfg.Dim)
	return m
}

// frozenDraft perturbs a whole target the way model.NewDraft used to:
// dequantize, add noise, quantize again.
func frozenDraft(target *Model, noise float32, seed uint64) *Model {
	rng := &frozenRNG{state: seed}
	perturb := func(q quant.Mat) quant.Mat {
		d := q.Dequantize()
		for i := range d.Data {
			d.Data[i] += rng.norm() * noise
		}
		return quant.Quantize(d, target.Cfg.Quant)
	}
	d := &Model{Cfg: target.Cfg, Embed: target.Embed, Norm: target.Norm}
	d.Layers = make([]Layer, len(target.Layers))
	for l, src := range target.Layers {
		d.Layers[l] = Layer{
			AttnNorm: src.AttnNorm,
			Wq:       perturb(src.Wq),
			Wk:       perturb(src.Wk),
			Wv:       perturb(src.Wv),
			Wo:       perturb(src.Wo),
			FFNNorm:  src.FFNNorm,
			WGate:    perturb(src.WGate),
			WUp:      perturb(src.WUp),
			WDown:    perturb(src.WDown),
		}
	}
	d.Output = perturb(target.Output)
	return d
}

// seedWithZeroDraw returns the seed whose draw j (0-based) is 64 zero
// bits: the output function maps state 0 to 0, and draw j reads state
// seed + (j+1)*gamma.
func seedWithZeroDraw(j uint64) uint64 { return -(j + 1) * 0x9e3779b97f4a7c15 }

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// sameQuant compares two stored matrices through everything observable
// of them: shape, format, footprint and every dequantized weight.
func sameQuant(a, b quant.Mat) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && a.Typ == b.Typ && a.Bytes() == b.Bytes() &&
		sameBits(a.Dequantize().Data, b.Dequantize().Data)
}

// checkSlice fails unless got holds exactly layers [lo, hi) (and the ends
// asked for) of want, bit for bit, and nothing else.
func checkSlice(t *testing.T, what string, got, want *Model, lo, hi int, first, last bool) {
	t.Helper()
	if len(got.Layers) != len(want.Layers) {
		t.Fatalf("%s: %d layer entries, want %d", what, len(got.Layers), len(want.Layers))
	}
	if first {
		if !sameBits(got.Embed.Data, want.Embed.Data) {
			t.Fatalf("%s: embedding differs from the sequential build", what)
		}
	} else if len(got.Embed.Data) != 0 {
		t.Fatalf("%s: holds an embedding it was not asked for", what)
	}
	for l := range want.Layers {
		g, w := &got.Layers[l], &want.Layers[l]
		if l < lo || l >= hi {
			if g.AttnNorm != nil || g.FFNNorm != nil {
				t.Fatalf("%s: layer %d outside [%d,%d) has norm vectors", what, l, lo, hi)
			}
			for k, q := range g.mats() {
				if q.Rows != 0 || q.Bytes() != 0 {
					t.Fatalf("%s: layer %d outside [%d,%d) holds matrix %d", what, l, lo, hi, k)
				}
			}
			continue
		}
		if !sameBits(g.AttnNorm, w.AttnNorm) || !sameBits(g.FFNNorm, w.FFNNorm) {
			t.Fatalf("%s: layer %d norm vectors differ", what, l)
		}
		gm, wm := g.mats(), w.mats()
		for k := range gm {
			if !sameQuant(*gm[k], *wm[k]) {
				t.Fatalf("%s: layer %d matrix %d differs from the sequential build", what, l, k)
			}
		}
	}
	if last {
		if !sameBits(got.Norm, want.Norm) || !sameQuant(got.Output, want.Output) {
			t.Fatalf("%s: final norm or output head differs from the sequential build", what)
		}
	} else if got.Norm != nil || got.Output.Rows != 0 || got.Output.Bytes() != 0 {
		t.Fatalf("%s: holds an output head it was not asked for", what)
	}
}

// splits enumerates every way to cut n layers into 1..maxStages
// non-empty contiguous stages, as lists of stage sizes.
func splits(n, maxStages int) [][]int {
	var out [][]int
	var rec func(left int, acc []int)
	rec = func(left int, acc []int) {
		if left == 0 {
			out = append(out, append([]int(nil), acc...))
			return
		}
		if len(acc) == maxStages {
			return
		}
		for s := 1; s <= left; s++ {
			rec(left-s, append(acc, s))
		}
	}
	rec(n, nil)
	return out
}

var quantTypes = []quant.Type{quant.F32, quant.Q8, quant.Q4}

func buildCfg(q quant.Type) Config {
	cfg := TinyConfig()
	cfg.NLayers = 4
	cfg.Quant = q
	return cfg
}

func TestRangeBuildBitsEqualWhole(t *testing.T) {
	for _, q := range quantTypes {
		cfg := buildCfg(q)
		const seed = 13
		want := frozenModel(cfg, seed)
		whole, err := New(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		checkSlice(t, fmt.Sprintf("%v New", q), whole, want, 0, cfg.NLayers, true, true)
		for _, sizes := range splits(cfg.NLayers, 4) {
			lo := 0
			parts := make([]*Model, len(sizes))
			for si, n := range sizes {
				first, last := si == 0, si == len(sizes)-1
				part, err := NewStage(cfg, seed, lo, lo+n, first, last)
				if err != nil {
					t.Fatal(err)
				}
				checkSlice(t, fmt.Sprintf("%v split %v stage %d", q, sizes, si), part, want, lo, lo+n, first, last)
				parts[si] = part
				lo += n
			}
			joined := Join(parts...)
			checkSlice(t, fmt.Sprintf("%v split %v joined", q, sizes), joined, want, 0, cfg.NLayers, true, true)
			if joined.Bytes() != whole.Bytes() {
				t.Fatalf("%v split %v: parts hold %d bytes, the whole model %d", q, sizes, joined.Bytes(), whole.Bytes())
			}
		}
	}
	if _, err := NewStage(buildCfg(quant.F32), 1, 3, 2, false, false); err == nil {
		t.Fatal("NewStage accepted an inverted layer range")
	}
	if _, err := NewStage(buildCfg(quant.F32), 1, 0, 5, false, false); err == nil {
		t.Fatal("NewStage accepted a range past the last layer")
	}
}

func TestDraftBitsEqualParent(t *testing.T) {
	for _, q := range quantTypes {
		cfg := buildCfg(q)
		const seed, noise, dseed = 13, 0.05, 13 ^ 0xd4af
		target := frozenModel(cfg, seed)
		want := frozenDraft(target, noise, dseed)
		stage := func(lo, hi int, first, last bool) *Model {
			m, err := NewStage(cfg, seed, lo, hi, first, last)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		// The same draft whatever the head holds of the target: all of it
		// (in-process), nothing (a dedicated head across a network), its
		// own stage only (a head that is also stage 0), or the stages its
		// process built between them.
		for name, from := range map[string]*Model{
			"resident target": stage(0, cfg.NLayers, true, true),
			"no target":       stage(0, 0, false, false),
			"first stage":     stage(0, 2, true, false),
			"joined stages":   Join(stage(0, 0, false, false), stage(0, 1, true, false), nil, stage(1, cfg.NLayers, false, true)),
		} {
			got := NewDraft(from, noise, dseed)
			checkSlice(t, fmt.Sprintf("%v draft from %s", q, name), got, want, 0, cfg.NLayers, true, true)
		}
	}
}

// TestDraftSharesUnperturbed: the embedding and the norm vectors are not
// perturbed, so a draft of a resident target aliases them instead of
// copying.
func TestDraftSharesUnperturbed(t *testing.T) {
	m := tinyModel(t, 5)
	d := NewDraft(m, 0.1, 6)
	if &d.Embed.Data[0] != &m.Embed.Data[0] || &d.Norm[0] != &m.Norm[0] ||
		&d.Layers[1].AttnNorm[0] != &m.Layers[1].AttnNorm[0] || &d.Layers[1].FFNNorm[0] != &m.Layers[1].FFNNorm[0] {
		t.Fatal("draft copied an unperturbed tensor of its resident target")
	}
	if sameQuant(d.Layers[0].Wq, m.Layers[0].Wq) {
		t.Fatal("draft projection equals the target's at noise 0.1")
	}
}

// TestBuildBitsIndependentOfParallelism: rows are pure functions of
// their stream position, so how ParallelRange cuts a build cannot show.
func TestBuildBitsIndependentOfParallelism(t *testing.T) {
	for _, q := range quantTypes {
		cfg := buildCfg(q)
		want := frozenModel(cfg, 21)
		wantDraft := frozenDraft(want, 0.02, 22)
		for _, p := range []int{1, 2, 4} {
			prev := tensor.SetParallelism(p)
			m, err := New(cfg, 21)
			if err != nil {
				t.Fatal(err)
			}
			d := NewDraft(m, 0.02, 22)
			seeded, err := NewStage(cfg, 21, 0, 0, false, false)
			if err != nil {
				t.Fatal(err)
			}
			d2 := NewDraft(seeded, 0.02, 22)
			tensor.SetParallelism(prev)
			checkSlice(t, fmt.Sprintf("%v parallelism %d", q, p), m, want, 0, cfg.NLayers, true, true)
			checkSlice(t, fmt.Sprintf("%v parallelism %d draft", q, p), d, wantDraft, 0, cfg.NLayers, true, true)
			checkSlice(t, fmt.Sprintf("%v parallelism %d seeded draft", q, p), d2, wantDraft, 0, cfg.NLayers, true, true)
		}
	}
}

// TestBuildSurvivesRedraw plants a zero first uniform — the one place the
// stream's stride is not fixed — inside a model's weights and in its
// draft's noise, and requires ranged and parallel builds to still equal
// the sequential generator, which redraws and shifts everything after.
func TestBuildSurvivesRedraw(t *testing.T) {
	cfg := buildCfg(quant.Q8)
	embedN := uint64(cfg.VocabSize * cfg.Dim)
	// Variate embedN+1000 (inside layer 0's Wq) reads its first uniform
	// at draw 2*(embedN+1000); variate 5000 of the noise stream likewise.
	seed := seedWithZeroDraw(2 * (embedN + 1000))
	dseed := seedWithZeroDraw(2 * 5000)
	probe := &frozenRNG{state: dseed}
	for i := 0; i < 2*5000; i++ {
		probe.uint64()
	}
	if probe.float64() != 0 {
		t.Fatal("planted draw is not a zero uniform")
	}
	want := frozenModel(cfg, seed)
	plain := frozenModel(cfg, seed+1)
	if sameQuant(want.Layers[0].Wq, plain.Layers[0].Wq) {
		t.Fatal("seeds do not differ")
	}
	wantDraft := frozenDraft(want, 0.05, dseed)
	prev := tensor.SetParallelism(4)
	defer tensor.SetParallelism(prev)
	lo := 0
	for si, n := range []int{1, 2, 1} {
		first, last := si == 0, si == 2
		part, err := NewStage(cfg, seed, lo, lo+n, first, last)
		if err != nil {
			t.Fatal(err)
		}
		checkSlice(t, fmt.Sprintf("stage %d after a redraw", si), part, want, lo, lo+n, first, last)
		lo += n
	}
	seeded, err := NewStage(cfg, seed, 0, 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	checkSlice(t, "seeded draft across redraws", NewDraft(seeded, 0.05, dseed), wantDraft, 0, cfg.NLayers, true, true)
}

// BenchmarkModelBuild is the cold-start layer number on the perf-lab
// model (six layers): the whole target, the widest stage of a three-way
// split (two layers and the output head), and the draft derived from a
// resident target.
func BenchmarkModelBuild(b *testing.B) {
	cfg := TinyConfig()
	cfg.NLayers = 6
	var err error
	b.Run("whole", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if sinkModel, err = New(cfg, 13); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if sinkModel, err = NewStage(cfg, 13, 4, 6, false, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("draft", func(b *testing.B) {
		m, err := New(cfg, 13)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkModel = NewDraft(m, 0.01, 13^0xd4af)
		}
	})
}

var sinkModel *Model
