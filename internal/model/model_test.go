package model

import (
	"slices"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/quant"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

func tinyModel(t testing.TB, seed uint64) *Model {
	t.Helper()
	cfg := TinyConfig()
	cfg.NLayers = 4 // keep tests fast
	m, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	good := TinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.NHeads = 3 // 64 % 3 != 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for indivisible heads")
	}
	bad = good
	bad.NKVHeads = 3
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for GQA mismatch")
	}
	bad = good
	bad.VocabSize = 10
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for tiny vocab")
	}
}

func TestModelDeterministicInit(t *testing.T) {
	a := tinyModel(t, 1)
	b := tinyModel(t, 1)
	for i := range a.Embed.Data {
		if a.Embed.Data[i] != b.Embed.Data[i] {
			t.Fatal("same seed produced different embeddings")
		}
	}
	c := tinyModel(t, 2)
	if a.Embed.Data[0] == c.Embed.Data[0] {
		t.Fatal("different seeds produced identical first weight")
	}
}

func TestGreedyDeterministic(t *testing.T) {
	m := tinyModel(t, 3)
	prompt := []token.Token{token.BOS, 10, 20, 30}

	r1 := NewRunner(m, 256)
	out1, err := r1.Greedy(prompt, 16)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(m, 256)
	out2, err := r2.Greedy(prompt, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("greedy output differs at %d: %d vs %d", i, out1[i], out2[i])
		}
	}
}

// TestIncrementalMatchesBatched is the central KV-cache invariant: feeding
// tokens one at a time through the cache must produce the same logits,
// and store the same K/V rows, as evaluating them in one batch — bit for
// bit, because every kernel computes an output in one canonical order
// whatever rows share the batch.
func TestIncrementalMatchesBatched(t *testing.T) {
	m := tinyModel(t, 4)
	toks := []token.Token{token.BOS, 5, 9, 100, 42, 7}

	batched := NewRunner(m, 64)
	lb, err := batched.EvalSeq(toks, 0, kvcache.Canonical)
	if err != nil {
		t.Fatal(err)
	}

	inc := NewRunner(m, 64)
	for i, tok := range toks {
		li, err := inc.EvalSeq([]token.Token{tok}, int32(i), kvcache.Canonical)
		if err != nil {
			t.Fatal(err)
		}
		bRow, iRow := lb.Row(i), li.Row(0)
		for j := range bRow {
			if bRow[j] != iRow[j] {
				t.Fatalf("token %d logit %d differs: batched %v vs incremental %v", i, j, bRow[j], iRow[j])
			}
		}
	}
	sameKV(t, "incremental", inc, batched, len(toks))
}

// sameKV asserts that two runners hold bit-identical K/V rows for
// positions [0, n) of the canonical sequence in every layer.
func sameKV(t *testing.T, name string, got, want *Runner, n int) {
	t.Helper()
	last := kvcache.TokenMeta{Pos: int32(n - 1), Seqs: kvcache.NewSeqSet(kvcache.Canonical)}
	gc, wc := got.Cache.VisibleCells(nil, last), want.Cache.VisibleCells(nil, last)
	if len(gc) != n || len(wc) != n {
		t.Fatalf("%s: %d and %d visible cells, want %d", name, len(gc), len(wc), n)
	}
	for l := range want.Store.K {
		for pos := 0; pos < n; pos++ { // VisibleCells is position-sorted
			for _, kv := range [][2]tensor.Mat{{got.Store.K[l], want.Store.K[l]}, {got.Store.V[l], want.Store.V[l]}} {
				g, w := kv[0].Row(gc[pos]), kv[1].Row(wc[pos])
				for j := range w {
					if g[j] != w[j] {
						t.Fatalf("%s: layer %d position %d K/V element %d: %v != %v", name, l, pos, j, g[j], w[j])
					}
				}
			}
		}
	}
}

// TestRowBitsIndependentOfChunking: the last prompt row's logits and
// every stored K/V row are bit-identical whether the prompt is evaluated
// whole, token by token (each row alone), or as a 37-row chunk followed
// by a 64-row chunk — serially and under a ParallelRange split.
func TestRowBitsIndependentOfChunking(t *testing.T) {
	for _, par := range []int{1, 2} {
		prev := tensor.SetParallelism(par)
		m := tinyModel(t, 14)
		rng := tensor.NewRNG(15)
		toks := make([]token.Token, 101)
		for i := range toks {
			toks[i] = token.Token(token.NumSpecial + int(rng.Uint64()%256))
		}
		lastLogits := func(r *Runner, chunks ...int) []float32 {
			var lg tensor.Mat
			at := 0
			for _, c := range chunks {
				var err error
				if lg, err = r.EvalSeq(toks[at:at+c], int32(at), kvcache.Canonical); err != nil {
					t.Fatal(err)
				}
				at += c
			}
			if at != len(toks) {
				t.Fatalf("chunks cover %d of %d tokens", at, len(toks))
			}
			return append([]float32(nil), lg.Row(lg.Rows-1)...)
		}
		whole := NewRunner(m, 128)
		want := lastLogits(whole, len(toks))
		ones := make([]int, len(toks))
		for i := range ones {
			ones[i] = 1
		}
		for name, chunks := range map[string][]int{"alone": ones, "64-row chunk": {37, 64}} {
			r := NewRunner(m, 128)
			got := lastLogits(r, chunks...)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("par=%d %s: logit %d = %v, whole-prompt %v", par, name, j, got[j], want[j])
				}
			}
			sameKV(t, name, r, whole, len(toks))
		}
		tensor.SetParallelism(prev)
	}
}

// TestRowBitsIndependentOfBatchMix: a row evaluated inside a mixed
// multi-shard batch — decode rows and a prefill chunk of four sessions,
// each in its own kvpage shard, as the serving layer composes them — has
// bit-identical logits to the same row evaluated alone in a cache of its
// own.
func TestRowBitsIndependentOfBatchMix(t *testing.T) {
	m := tinyModel(t, 16)
	rng := tensor.NewRNG(17)
	const sessions = 4
	ctxLen := [sessions]int{40, 3, 77, 19} // tokens already cached per session
	rows := [sessions]int{1, 5, 1, 2}      // rows each contributes to the mixed batch
	toks := make([][]token.Token, sessions)
	for s := range toks {
		toks[s] = make([]token.Token, ctxLen[s]+rows[s])
		for i := range toks[s] {
			toks[s][i] = token.Token(token.NumSpecial + int(rng.Uint64()%256))
		}
	}
	metaFor := func(s, from, to int) []kvcache.TokenMeta {
		meta := make([]kvcache.TokenMeta, 0, to-from)
		for p := from; p < to; p++ {
			meta = append(meta, kvcache.TokenMeta{Pos: int32(p), Seqs: kvcache.NewSeqSet(kvcache.SeqID(s))})
		}
		return meta
	}
	eval := func(cache *kvpage.Cache, store *KVStore, sc *Scratch, tk []token.Token, meta []kvcache.TokenMeta) tensor.Mat {
		b, err := sc.BatchFor(cache, tk, meta)
		if err != nil {
			t.Fatal(err)
		}
		x := m.EmbedBatchInto(&sc.x, tk)
		x, ok := m.ForwardLayersScratch(0, m.Cfg.NLayers, x, store, b, nil, sc)
		if !ok {
			t.Fatal("evaluation aborted")
		}
		return m.LogitsInto(&sc.logits, x, sc)
	}

	// Shared multi-shard cache: prefill every session's context, then one
	// mixed batch carrying every session's next rows.
	shared := kvpage.New(kvpage.Config{Cells: 512, PageSize: 16, ShardSeqs: 1})
	store := NewKVStore(m.Cfg, 0, m.Cfg.NLayers, shared.Size())
	sc := NewScratch(m.Cfg)
	for s := 0; s < sessions; s++ {
		eval(shared, store, sc, toks[s][:ctxLen[s]], metaFor(s, 0, ctxLen[s]))
	}
	var mixTok []token.Token
	var mixMeta []kvcache.TokenMeta
	for s := 0; s < sessions; s++ {
		mixTok = append(mixTok, toks[s][ctxLen[s]:]...)
		mixMeta = append(mixMeta, metaFor(s, ctxLen[s], len(toks[s]))...)
	}
	mixed := eval(shared, store, sc, mixTok, mixMeta)
	mixed.Data = slices.Clone(mixed.Data)

	row := 0
	for s := 0; s < sessions; s++ {
		solo := kvpage.New(kvpage.Config{Cells: 128, PageSize: 16, ShardSeqs: 1})
		soloStore := NewKVStore(m.Cfg, 0, m.Cfg.NLayers, solo.Size())
		soloSc := NewScratch(m.Cfg)
		eval(solo, soloStore, soloSc, toks[s][:ctxLen[s]], metaFor(s, 0, ctxLen[s]))
		for p := ctxLen[s]; p < len(toks[s]); p++ {
			alone := eval(solo, soloStore, soloSc, toks[s][p:p+1], metaFor(s, p, p+1))
			for j, w := range alone.Row(0) {
				if mixed.At(row, j) != w {
					t.Fatalf("session %d position %d: logit %d in the mixed batch %v != alone %v",
						s, p, j, mixed.At(row, j), w)
				}
			}
			row++
		}
	}
}

// TestPipelineSplitMatchesWhole verifies that evaluating layer ranges on
// separate KV stores (as pipeline stages do) reproduces the whole-model
// forward pass exactly.
func TestPipelineSplitMatchesWhole(t *testing.T) {
	m := tinyModel(t, 5)
	cfg := m.Cfg
	toks := []token.Token{token.BOS, 11, 22, 33}

	// Whole-model reference.
	whole := NewRunner(m, 64)
	want, err := whole.EvalSeq(toks, 0, kvcache.Canonical)
	if err != nil {
		t.Fatal(err)
	}

	// Two-stage split: layers [0,2) and [2,4), separate caches+stores per
	// stage exactly like two pipeline nodes.
	split := cfg.NLayers / 2
	cacheA := kvcache.New(64)
	cacheB := kvcache.New(64)
	storeA := NewKVStore(cfg, 0, split, 64)
	storeB := NewKVStore(cfg, split, cfg.NLayers, 64)

	prep := func(c *kvcache.Cache) *Batch {
		meta := make([]kvcache.TokenMeta, len(toks))
		for i := range toks {
			meta[i] = kvcache.TokenMeta{Pos: int32(i), Seqs: kvcache.NewSeqSet(0)}
		}
		cells, err := c.FindSlots(len(toks))
		if err != nil {
			t.Fatal(err)
		}
		for i, cell := range cells {
			c.Occupy(cell, meta[i].Pos, meta[i].Seqs)
		}
		b := &Batch{Tokens: toks, Meta: meta, Cells: cells}
		for i := range toks {
			vis := c.VisibleCells(nil, meta[i])
			b.Groups = append(b.Groups, kvpage.VisibleGroup{Cells: vis, Rows: []int{i}, Lens: []int{len(vis)}})
		}
		return b
	}

	sc := NewScratch(cfg)
	x := m.EmbedBatchInto(new(tensor.Mat), toks)
	x, ok := m.ForwardLayersScratch(0, split, x, storeA, prep(cacheA), nil, sc)
	if !ok {
		t.Fatal("stage A aborted")
	}
	x, ok = m.ForwardLayersScratch(split, cfg.NLayers, x, storeB, prep(cacheB), nil, sc)
	if !ok {
		t.Fatal("stage B aborted")
	}
	got := m.LogitsInto(new(tensor.Mat), x, sc)

	for b := 0; b < want.Rows; b++ {
		wr, gr := want.Row(b), got.Row(b)
		for j := range wr {
			d := wr[j] - gr[j]
			if d < -1e-4 || d > 1e-4 {
				t.Fatalf("token %d logit %d: whole %v split %v", b, j, wr[j], gr[j])
			}
		}
	}
}

// TestSequenceIsolation verifies that two sequences with different
// contents do not contaminate each other through the shared cell pool.
func TestSequenceIsolation(t *testing.T) {
	m := tinyModel(t, 6)

	// Sequence 1 alone.
	solo := NewRunner(m, 128)
	want, err := solo.EvalSeq([]token.Token{token.BOS, 50, 60}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Sequence 1 interleaved with an unrelated sequence 2.
	mixed := NewRunner(m, 128)
	if _, err := mixed.EvalSeq([]token.Token{token.BOS, 200, 210, 220}, 0, 2); err != nil {
		t.Fatal(err)
	}
	got, err := mixed.EvalSeq([]token.Token{token.BOS, 50, 60}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	lastW := want.Row(want.Rows - 1)
	lastG := got.Row(got.Rows - 1)
	for j := range lastW {
		d := lastW[j] - lastG[j]
		if d < -1e-4 || d > 1e-4 {
			t.Fatalf("cross-sequence contamination at logit %d: %v vs %v", j, lastW[j], lastG[j])
		}
	}
}

// TestSeqCpSharedPrefix verifies the multibuffering primitive end to end:
// a sequence created by SeqCp of a prefix plus its own new token matches
// evaluating the full sequence from scratch.
func TestSeqCpSharedPrefix(t *testing.T) {
	m := tinyModel(t, 7)
	prefix := []token.Token{token.BOS, 10, 20}
	next := token.Token(30)

	// Reference: full sequence in one cache.
	ref := NewRunner(m, 128)
	full := append(append([]token.Token{}, prefix...), next)
	want, err := ref.EvalSeq(full, 0, kvcache.Canonical)
	if err != nil {
		t.Fatal(err)
	}

	// Shared: prefix in canonical seq, then SeqCp into seq 3 and evaluate
	// only the new token there.
	sh := NewRunner(m, 128)
	if _, err := sh.EvalSeq(prefix, 0, kvcache.Canonical); err != nil {
		t.Fatal(err)
	}
	sh.Cache.SeqCp(kvcache.Canonical, 3, 0, int32(len(prefix)))
	got, err := sh.EvalSeq([]token.Token{next}, int32(len(prefix)), 3)
	if err != nil {
		t.Fatal(err)
	}

	wr := want.Row(want.Rows - 1)
	gr := got.Row(0)
	for j := range wr {
		d := wr[j] - gr[j]
		if d < -1e-4 || d > 1e-4 {
			t.Fatalf("shared-prefix eval differs at logit %d: %v vs %v", j, wr[j], gr[j])
		}
	}
}

func TestDraftAlignmentMonotonic(t *testing.T) {
	m := tinyModel(t, 8)
	prompt := []token.Token{token.BOS, 40, 41, 42}
	ref := NewRunner(m, 256)
	want, err := ref.Greedy(prompt, 24)
	if err != nil {
		t.Fatal(err)
	}

	agree := func(noise float32) int {
		d := NewDraft(m, noise, 99)
		r := NewRunner(d, 256)
		got, err := r.Greedy(prompt, 24)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for i := range got {
			if got[i] == want[i] {
				n++
			} else {
				break // prefix agreement is what speculation sees
			}
		}
		return n
	}

	zero := agree(0)
	if zero != 24 {
		t.Fatalf("noise=0 draft should agree fully, got %d/24", zero)
	}
	heavy := agree(2.0)
	if heavy >= zero {
		t.Fatalf("heavy noise should reduce agreement: %d vs %d", heavy, zero)
	}
}

func TestPerLayerHookAbort(t *testing.T) {
	m := tinyModel(t, 9)
	r := NewRunner(m, 32)
	sc := NewScratch(m.Cfg)
	batch, err := sc.BatchFor(r.Cache, []token.Token{token.BOS},
		[]kvcache.TokenMeta{{Pos: 0, Seqs: kvcache.NewSeqSet(0)}})
	if err != nil {
		t.Fatal(err)
	}
	x := m.EmbedBatchInto(new(tensor.Mat), batch.Tokens)
	calls := 0
	_, ok := m.ForwardLayersScratch(0, m.Cfg.NLayers, x, r.Store, batch, func(l int) bool {
		calls++
		return calls < 2 // abort after the second layer
	}, sc)
	if ok {
		t.Fatal("expected aborted evaluation")
	}
	if calls != 2 {
		t.Fatalf("hook called %d times, want 2", calls)
	}
}

func TestQuantizedModelRuns(t *testing.T) {
	cfg := TinyConfig()
	cfg.NLayers = 2
	cfg.Quant = quant.Q8
	m, err := New(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(m, 64)
	out, err := r.Greedy([]token.Token{token.BOS, 3, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("generated %d tokens, want 4", len(out))
	}
}

func TestBytesAccounting(t *testing.T) {
	m := tinyModel(t, 11)
	cfg := m.Cfg
	stage := func(lo, hi int, first, last bool) int64 {
		s, err := NewStage(cfg, 11, lo, hi, first, last)
		if err != nil {
			t.Fatal(err)
		}
		return s.Bytes()
	}
	// Resident bytes: a stage is charged its own layers, the embedding
	// only when first, the norm and output head only when last, and the
	// slices of any split sum to exactly the whole.
	perLayer := stage(0, 1, false, false)
	if got := stage(1, 3, false, false); got != 2*perLayer {
		t.Fatalf("two middle layers weigh %d, want 2 x %d", got, perLayer)
	}
	embed, head := stage(0, 0, true, false), stage(0, 0, false, true)
	if embed != m.Embed.Bytes() || head != m.Output.Bytes()+int64(cfg.Dim)*4 {
		t.Fatalf("ends weigh %d / %d, want %d / %d", embed, head, m.Embed.Bytes(), m.Output.Bytes()+int64(cfg.Dim)*4)
	}
	if got := stage(0, 2, true, false); got != embed+2*perLayer {
		t.Fatalf("a first-only stage weighs %d, want embedding + 2 layers = %d", got, embed+2*perLayer)
	}
	if got := stage(3, cfg.NLayers, false, true); got != head+int64(cfg.NLayers-3)*perLayer {
		t.Fatalf("a last-only stage weighs %d, want head + layers = %d", got, head+int64(cfg.NLayers-3)*perLayer)
	}
	if sum := stage(0, 2, true, false) + stage(2, 3, false, false) + stage(3, cfg.NLayers, false, true); sum != m.Bytes() {
		t.Fatalf("stage slices sum to %d, whole model holds %d", sum, m.Bytes())
	}
	if NewKVStore(m.Cfg, 0, 2, 16).Bytes() != int64(2*2*16*m.Cfg.KVDim()*4) {
		t.Fatal("KV store bytes wrong")
	}
}

func TestRunnerSlotExhaustion(t *testing.T) {
	m := tinyModel(t, 12)
	r := NewRunner(m, 2)
	// Capacity rounds up to a whole page; one token past it must fail.
	toks := make([]token.Token, r.Cache.Size()+1)
	for i := range toks {
		toks[i] = token.Token(i % 9)
	}
	if _, err := r.EvalSeq(toks, 0, 0); err == nil {
		t.Fatal("expected slot exhaustion error")
	}
}

func BenchmarkForwardSingleToken(b *testing.B) {
	m := tinyModel(b, 13)
	r := NewRunner(m, 4096)
	if _, err := r.EvalSeq([]token.Token{token.BOS, 1, 2, 3}, 0, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.EvalSeq([]token.Token{5}, int32(4+i), 0); err != nil {
			b.Fatal(err)
		}
	}
}
