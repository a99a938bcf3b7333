package model

import (
	"fmt"
	"math"

	"github.com/pipeinfer/pipeinfer/internal/quant"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
)

// Weights are not loaded, they are derived: (cfg, seed) names one stream
// of normal variates, and every matrix is a fixed slice of it — the
// embedding first, then each layer's seven projections in struct order,
// then the output head. The stream is addressable by position
// (tensor.NormStream), so any slice can be derived without the variates
// before it, on any goroutine, and comes out bit for bit what a
// sequential fill of the whole model would have produced. That contract
// is what lets a pipeline stage hold only its own layers while every
// reference stream and parity gate stays valid; TestRangeBuildBitsEqualWhole
// and TestDraftBitsEqualParent hold it against a frozen sequential
// generator.

// New builds a whole model with deterministic weights derived from seed.
func New(cfg Config, seed uint64) (*Model, error) {
	return NewStage(cfg, seed, 0, cfg.NLayers, true, true)
}

// NewStage builds the slice of New(cfg, seed) one pipeline stage holds:
// layers [lo, hi), the embedding when first, the final norm and output
// head when last. Everything else stays empty, so Bytes reports what the
// stage really keeps resident. An empty range with neither end is valid:
// it is the target as a dedicated head knows it — by name only.
func NewStage(cfg Config, seed uint64, lo, hi int, first, last bool) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lo < 0 || lo > hi || hi > cfg.NLayers {
		return nil, fmt.Errorf("model: stage layers [%d,%d) outside a %d-layer model", lo, hi, cfg.NLayers)
	}
	m := &Model{Cfg: cfg, seed: seed, Layers: make([]Layer, cfg.NLayers)}
	b := newBuild(m, nil, 0, 0)
	if first {
		m.Embed = tensor.NewMat(cfg.VocabSize, cfg.Dim)
		b.embed()
	}
	for l := lo; l < hi; l++ {
		m.Layers[l].AttnNorm, m.Layers[l].FFNNorm = ones(cfg.Dim), ones(cfg.Dim)
		b.layer(l)
	}
	if last {
		m.Norm = ones(cfg.Dim)
		b.output()
	}
	b.run()
	return m, nil
}

// NewDraft derives a draft model from target by adding Gaussian noise of
// the given scale to every projection weight. noise=0 yields a perfectly
// aligned draft (acceptance ~100%); larger values lower alignment.
//
// Each draft row is made in one pass, straight into the draft's own
// storage: the target row as its storage format holds it, plus noise,
// stored again. Where target holds the matrix, the row is read from it,
// and the embedding and norm vectors, which are not perturbed, are
// shared with it read-only. Where it does not (NewStage built some other
// slice, or none), the target row is derived from target's seed on the
// spot, so a head that evaluates no target layers never materialises any.
func NewDraft(target *Model, noise float32, seed uint64) *Model {
	cfg := target.Cfg
	d := &Model{Cfg: cfg, Layers: make([]Layer, cfg.NLayers)}
	b := newBuild(d, target, noise, seed)
	d.Embed = target.Embed
	if len(d.Embed.Data) == 0 {
		d.Embed = tensor.NewMat(cfg.VocabSize, cfg.Dim)
		b.embed()
	}
	for l := range d.Layers {
		lay, src := &d.Layers[l], &target.Layers[l]
		lay.AttnNorm, lay.FFNNorm = src.AttnNorm, src.FFNNorm
		if lay.AttnNorm == nil {
			lay.AttnNorm, lay.FFNNorm = ones(cfg.Dim), ones(cfg.Dim)
		}
		b.layer(l)
	}
	d.Norm = target.Norm
	if d.Norm == nil {
		d.Norm = ones(cfg.Dim)
	}
	b.output()
	b.run()
	return d
}

// Join returns one model holding everything resident in any of parts,
// which must be slices of the same (cfg, seed) with no piece held twice:
// the view of the target a process has when its ranks built it between
// them. Weights are shared with the parts, not copied; nil parts are
// skipped.
func Join(parts ...*Model) *Model {
	var m *Model
	for _, p := range parts {
		if p == nil {
			continue
		}
		if m == nil {
			m = &Model{Cfg: p.Cfg, seed: p.seed, Layers: make([]Layer, p.Cfg.NLayers)}
		}
		if len(p.Embed.Data) != 0 {
			m.Embed = p.Embed
		}
		for l := range p.Layers {
			if p.Layers[l].AttnNorm != nil {
				m.Layers[l] = p.Layers[l]
			}
		}
		if p.Norm != nil {
			m.Norm, m.Output = p.Norm, p.Output
		}
	}
	return m
}

func ones(n int) tensor.Vec {
	v := make(tensor.Vec, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// mats lists a layer's projections in the order the stream fills them.
func (l *Layer) mats() [7]*quant.Mat {
	return [7]*quant.Mat{&l.Wq, &l.Wk, &l.Wv, &l.Wo, &l.WGate, &l.WUp, &l.WDown}
}

// matShapes gives (rows, cols) of a layer's projections, in mats order.
func (c Config) matShapes() [7][2]int {
	d, kv, f := c.Dim, c.KVDim(), c.FFNDim
	return [7][2]int{{d, d}, {kv, d}, {kv, d}, {d, d}, {f, d}, {f, d}, {d, f}}
}

// job is one matrix of a build: where its rows go, where its variates
// sit in the stream, and which rows of the whole build are its own.
type job struct {
	dense      tensor.Mat // destination of the embedding, which is kept dense
	dst        *quant.Mat // destination of every other matrix
	src        *quant.Mat // draft builds: the resident target matrix to perturb, nil to derive it
	rows, cols int
	std        float32
	at         uint64 // first variate in the target stream
	row0       int    // first row among the rows of all jobs
}

// build is the one routine behind every constructor: a list of matrices
// to derive, run row by row over the ParallelRange pool. Rows are whole
// quantization blocks and each is a pure function of its position in the
// stream, so the split across workers cannot show in the bits.
type build struct {
	m      *Model
	stream tensor.NormStream // the target's variates
	std    float32           // projection weight scale

	// Draft builds only.
	from       *Model // target being perturbed; nil when building a target
	noise      tensor.NormStream
	noiseScale float32

	embedN, layerN uint64 // variates in the embedding / in one layer
	jobs           []job
	nRows, maxCols int
}

func newBuild(m, from *Model, noiseScale float32, noiseSeed uint64) *build {
	cfg := m.Cfg
	b := &build{m: m, from: from, noiseScale: noiseScale, std: float32(1.0 / math.Sqrt(float64(cfg.Dim)))}
	b.embedN = uint64(cfg.VocabSize * cfg.Dim)
	for _, s := range cfg.matShapes() {
		b.layerN += uint64(s[0] * s[1])
	}
	total := 2*b.embedN + uint64(cfg.NLayers)*b.layerN
	seed := m.seed
	if from != nil {
		seed = from.seed
		// The noise stream has no embedding: it starts at layer 0.
		b.noise = tensor.NewNormStream(noiseSeed, total-b.embedN)
	}
	b.stream = tensor.NewNormStream(seed, total)
	return b
}

func (b *build) add(j job) {
	j.row0 = b.nRows
	b.nRows += j.rows
	b.maxCols = max(b.maxCols, j.cols)
	b.jobs = append(b.jobs, j)
}

func (b *build) embed() {
	b.add(job{dense: b.m.Embed, rows: b.m.Cfg.VocabSize, cols: b.m.Cfg.Dim, std: 1})
}

// quantJob queues a projection or the output head, allocating its
// storage in the model being built.
func (b *build) quantJob(dst, src *quant.Mat, rows, cols int, at uint64) {
	*dst = quant.NewMat(rows, cols, b.m.Cfg.Quant)
	if src != nil && src.Rows == 0 {
		src = nil
	}
	b.add(job{dst: dst, src: src, rows: rows, cols: cols, std: b.std, at: at})
}

func (b *build) layer(l int) {
	at := b.embedN + uint64(l)*b.layerN
	var srcs [7]*quant.Mat
	if b.from != nil {
		srcs = b.from.Layers[l].mats()
	}
	dsts := b.m.Layers[l].mats()
	for k, s := range b.m.Cfg.matShapes() {
		b.quantJob(dsts[k], srcs[k], s[0], s[1], at)
		at += uint64(s[0] * s[1])
	}
}

func (b *build) output() {
	var src *quant.Mat
	if b.from != nil {
		src = &b.from.Output
	}
	cfg := b.m.Cfg
	b.quantJob(&b.m.Output, src, cfg.VocabSize, cfg.Dim, b.embedN+uint64(cfg.NLayers)*b.layerN)
}

func (b *build) run() { tensor.ParallelRange(b.nRows, b.rows) }

// rows derives rows [lo, hi) of the build.
func (b *build) rows(lo, hi int) {
	buf := make([]float32, 2*b.maxCols)
	for i := range b.jobs {
		j := &b.jobs[i]
		r0, r1 := max(lo-j.row0, 0), min(hi-j.row0, j.rows)
		if r0 >= r1 {
			continue
		}
		draft := b.from != nil && j.dst != nil
		skip := uint64(r0 * j.cols)
		rng := b.stream.At(j.at + skip)
		var noise tensor.RNG
		if draft {
			noise = b.noise.At(j.at - b.embedN + skip)
		}
		for r := r0; r < r1; r++ {
			if j.dst == nil {
				rng.FillNormal(j.dense.Row(r), j.std)
				continue
			}
			row := buf[:j.cols]
			if j.src != nil {
				j.src.DequantizeRow(r, row)
			} else {
				rng.FillNormal(row, j.std)
			}
			if draft {
				if j.src == nil {
					// What a resident target would hand back: the row
					// as the storage format rounds it.
					j.dst.QuantizeRow(r, row)
					j.dst.DequantizeRow(r, row)
				}
				perturb := buf[b.maxCols:][:j.cols]
				noise.FillNormal(perturb, b.noiseScale)
				for i, p := range perturb {
					row[i] += p
				}
			}
			j.dst.QuantizeRow(r, row)
		}
	}
}
