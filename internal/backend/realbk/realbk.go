// Package realbk is the real-compute backend: pipeline workers evaluate
// genuine transformer layer shards (internal/model) over in-process
// message passing, and the head runs a real draft model. It executes the
// same engine code as the simulated backend, providing the ground-truth
// correctness validation: under greedy sampling every strategy must
// reproduce the single-node reference output bit for bit (§V-B).
package realbk

import (
	"fmt"
	"math"

	"github.com/pipeinfer/pipeinfer/internal/batch"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Worker evaluates one contiguous layer shard of the target model.
//
// All evaluation state (batch assembly, activations, the encoded output
// payload) lives in per-worker staging buffers reused across runs, so a
// steady-state decode run performs no heap allocation. The payload
// returned by Eval aliases the staging buffer and is valid until the
// worker's next Eval call — the engine worker loop copies it into a
// pooled wire buffer before evaluating the next run.
type Worker struct {
	m     *model.Model
	lo    int
	hi    int
	first bool
	last  bool
	cache *kvpage.Cache
	store *model.KVStore

	sc   *model.Scratch
	toks []token.Token
	meta []kvcache.TokenMeta
	x    tensor.Mat // activation staging (embedding or decoded upstream payload)
	out  tensor.Mat // logits staging for the last stage
	enc  []byte     // encoded output payload staging

	// Row staging: live (unmasked) row indices, the multi-session
	// result-frame tags, a reusable zero row for masked slots of
	// inter-stage payloads, and the sampling-row selection.
	live     []int
	rowTags  []uint16
	sessTags []uint16
	zeros    []byte
	samp     []int
}

// NewWorker builds a stage worker over layers [lo, hi). The paged KV
// metadata cache is sized by kv (capacity rounded up to whole pages; the
// K/V tensor store matches the rounded size, rows indexed by cell id =
// page*pageSize + slot). kv.ShardSeqs is the serving layer's per-session
// namespace width; zero means one shard for single-request engines.
func NewWorker(m *model.Model, lo, hi int, first, last bool, kv kvpage.Config) *Worker {
	cache := kvpage.New(kv)
	return &Worker{
		m: m, lo: lo, hi: hi, first: first, last: last,
		cache: cache,
		store: model.NewKVStore(m.Cfg, lo, hi, cache.Size()),
		sc:    model.NewScratch(m.Cfg),
	}
}

// Eval implements engine.Worker with real tensor computation. Only live
// rows — all of them, unless per-session cancellation has masked some out
// of a tagged run — are placed in the cache and computed; per-row sequence
// sets keep every session's attention inside its own shard, so each row's
// arithmetic is bit-identical to its solo run. Between stages the
// activation payload keeps the run's full row shape (masked rows
// zero-filled), so per-stage differences in cancellation knowledge can
// never skew decoding. The last stage projects the sampling rows only —
// every live row of an unranged run; of a ranged (chunked-prefill) run the
// rows computing their range's final position, so an intermediate prompt
// chunk never pays the vocab-sized projection — and a tagged run's logits
// travel behind the self-describing result-frame header that names them.
// The per-layer hook doubles as the cancellation probe point.
func (w *Worker) Eval(run *engine.RunMsg, input []byte, cancelled func() bool) ([]byte, int, bool) {
	n := run.Len()
	live := w.live[:0]
	for i := 0; i < n; i++ {
		if !run.RowDead(i) {
			live = append(live, i)
		}
	}
	w.live = live
	nl := len(live)
	if nl == 0 {
		return nil, 0, false
	}
	if cap(w.toks) < nl {
		w.toks = make([]token.Token, nl)
		w.meta = make([]kvcache.TokenMeta, nl)
	}
	toks, meta := w.toks[:nl], w.meta[:nl]
	for k, i := range live {
		toks[k] = run.Tokens[i].Tok
		meta[k] = kvcache.TokenMeta{Pos: run.Tokens[i].Pos, Seqs: run.Tokens[i].Seqs}
	}
	b, err := w.sc.BatchFor(w.cache, toks, meta)
	if err != nil {
		panic(fmt.Sprintf("realbk: stage cache exhausted: %v", err))
	}

	var x tensor.Mat
	if w.first {
		x = w.m.EmbedBatchInto(&w.x, toks)
	} else {
		x = decodeRowsInto(&w.x, input, n, w.m.Cfg.Dim, live)
	}
	x, ok := w.m.ForwardLayersScratch(w.lo, w.hi, x, w.store, b, func(int) bool {
		return !cancelled()
	}, w.sc)
	if !ok {
		return nil, 0, false
	}
	enc := w.enc[:0]
	if w.last {
		samp := w.samp[:0]
		rt, st := w.rowTags[:0], w.sessTags[:0]
		for k, i := range live {
			if run.SamplingRow(i) {
				samp = append(samp, k)
				rt = append(rt, uint16(i))
				st = append(st, run.RowSession(i))
			}
		}
		w.samp, w.rowTags, w.sessTags = samp, rt, st
		if run.Batched() {
			enc = batch.AppendResultHeader(enc, n, rt, st)
		}
		enc = encodeMatInto(enc, w.m.LogitsRowsInto(&w.out, x, samp, w.sc))
	} else {
		if len(w.zeros) < 4*w.m.Cfg.Dim {
			w.zeros = make([]byte, 4*w.m.Cfg.Dim)
		}
		li := 0
		for i := 0; i < n; i++ {
			if li < nl && live[li] == i {
				enc = encodeVecInto(enc, x.Row(li))
				li++
			} else {
				enc = append(enc, w.zeros[:4*w.m.Cfg.Dim]...)
			}
		}
	}
	w.enc = enc
	return enc, len(enc), true
}

// ApplyKV applies pipelined cache metadata operations.
func (w *Worker) ApplyKV(ops []kvcache.Op) { w.cache.ApplyAll(ops) }

// Cache exposes the metadata cache for test assertions.
func (w *Worker) Cache() *kvpage.Cache { return w.cache }

// MemoryBytes reports resident weights plus KV storage. m is the slice
// of the target this stage built (model.NewStage), so its footprint is
// the stage's own: the embedding only on the first stage, the output
// head only on the last.
func (w *Worker) MemoryBytes() int64 {
	return w.m.Bytes() + w.store.Bytes()
}

// maxDraftStreams bounds the number of draft contexts the head maintains
// at once. The serving layer caps speculative sessions at 16 (width-4
// namespaces over 64 sequence ids), so 16 streams give every concurrent
// session its own incrementally maintained draft context.
const maxDraftStreams = 16

// draftStream is one incrementally evaluated draft-model context. Each
// stream owns one sequence of the draft runner's cache; keeping several
// lets the serving layer interleave Propose calls for many sessions
// without re-evaluating a whole context on every session switch.
type draftStream struct {
	evaluated []token.Token
	last      tensor.Vec
	haveLast  bool
	lastUse   uint64
}

// Head is the real head backend: a live draft model with incremental KV
// reuse (longest-common-prefix rollback, one stream per concurrent
// context lineage) plus logits-based result parsing.
type Head struct {
	draft *model.Runner
	// build, while non-nil, is a draft still to be derived (NewLazyHead);
	// ready is non-nil once StartDraft has put it on its own goroutine
	// and closes when draft is set. Both are touched only by the
	// goroutine that drives the head.
	build func() *model.Runner
	ready chan struct{}

	vocab   int
	streams []draftStream
	tick    uint64
	dist    tensor.Vec  // softmax staging for Propose
	topk    []int       // TopKInto scratch
	res     realResults // Results staging, reused across calls
	// Batched result-frame decode scratch.
	rowTags  []uint16
	sessTags []uint16
}

// NewHead builds the head backend. draft may be nil for the iterative
// strategy, which never drafts.
func NewHead(draft *model.Runner, vocab int) *Head {
	return &Head{draft: draft, vocab: vocab}
}

// NewLazyHead builds a head backend whose draft model does not exist yet:
// build derives it, on its own goroutine, once StartDraft says the first
// run is on its way down the pipeline — weight derivation is the bulk of
// a cold start, and run ahead of the first prefill it would sit squarely
// in the time to first token.
func NewLazyHead(build func() *model.Runner, vocab int) *Head {
	return &Head{build: build, vocab: vocab}
}

// StartDraft begins deriving a lazy head's draft, once; later calls and
// calls on a head built with NewHead do nothing. The head's first
// Propose waits for the derivation to finish (and starts it, if nothing
// has): it blocks rather than answer "no proposal", which the engines
// read as a confidence stall and answer by decaying the cutoff.
func (h *Head) StartDraft() {
	if h.build == nil || h.ready != nil {
		return
	}
	h.ready = make(chan struct{})
	go func() {
		defer close(h.ready)
		h.draft = h.build()
	}()
}

// Settle waits for a draft derivation in flight, so that none outlives
// the rank that started it.
func (h *Head) Settle() {
	if h.ready != nil {
		<-h.ready
	}
}

// Propose runs the draft model incrementally over ctx and returns the
// top-width tokens of its output distribution with their probabilities.
func (h *Head) Propose(ctx []token.Token, width int) ([]token.Token, []float32) {
	if h.build != nil {
		h.StartDraft()
		h.Settle()
		h.build = nil
	}
	if h.draft == nil || len(ctx) == 0 {
		return nil, nil
	}
	s, err := h.ensure(ctx)
	if err != nil {
		panic(fmt.Sprintf("realbk: draft evaluation failed: %v", err))
	}
	if cap(h.dist) < len(s.last) {
		h.dist = make(tensor.Vec, len(s.last))
	}
	dist := h.dist[:len(s.last)]
	copy(dist, s.last)
	tensor.Softmax(dist)
	h.topk = tensor.TopKInto(h.topk, dist, width)
	toks := make([]token.Token, len(h.topk))
	probs := make([]float32, len(h.topk))
	for i, j := range h.topk {
		toks[i] = token.Token(j)
		probs[i] = dist[j]
	}
	return toks, probs
}

// commonLen returns the length of the longest common prefix of a and b.
func commonLen(a, b []token.Token) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// ensure returns a draft stream whose KV cache covers ctx, re-evaluating
// only the suffix past the longest common prefix. Contexts with no
// common prefix get their own stream (up to maxDraftStreams, then LRU
// eviction), so sessions proposing through a shared head keep
// incremental drafting instead of thrashing one cache. The final logit
// row is copied out of the runner's scratch so it survives later
// evaluations; stream i lives in draft-cache sequence i.
func (h *Head) ensure(ctx []token.Token) (*draftStream, error) {
	h.tick++
	best, bestCommon := -1, 0
	for i := range h.streams {
		if c := commonLen(h.streams[i].evaluated, ctx); c > bestCommon {
			best, bestCommon = i, c
		}
	}
	// Reuse a stream only when most of it survives the rollback: a token
	// or two of shared prefix (a common BOS, a shared prompt header) is
	// not worth destroying another lineage's context over — that is the
	// thrash the multi-stream cache exists to prevent.
	if best >= 0 && 2*bestCommon < len(h.streams[best].evaluated) {
		best, bestCommon = -1, 0
	}
	if best < 0 {
		// A fresh lineage: reuse an evicted (empty) stream, open a new
		// one, or evict the least recently used once all slots are taken.
		for i := range h.streams {
			if len(h.streams[i].evaluated) == 0 {
				best = i
				break
			}
		}
		if best < 0 && len(h.streams) < maxDraftStreams {
			h.streams = append(h.streams, draftStream{})
			best = len(h.streams) - 1
		}
		if best < 0 {
			best = 0
			for i := range h.streams {
				if h.streams[i].lastUse < h.streams[best].lastUse {
					best = i
				}
			}
			h.evictStream(best)
		}
	}
	s := &h.streams[best]
	s.lastUse = h.tick
	seq := kvcache.SeqID(best)
	common := bestCommon
	if common == len(ctx) {
		if common == len(s.evaluated) && s.haveLast {
			return s, nil
		}
		// Same tokens but stale logits: re-evaluate the final token.
		common = len(ctx) - 1
	}
	if common < len(s.evaluated) {
		h.draft.Cache.SeqRm(seq, int32(common), math.MaxInt32)
		s.evaluated = s.evaluated[:common]
	}
	// Completed sessions leave dead streams behind; reclaim their cells
	// rather than letting the draft cache fill up (LRU order, never the
	// stream being extended).
	h.evictForSpace(best, len(ctx)-common)
	logits, err := h.draft.EvalSeq(ctx[common:], int32(common), seq)
	if err != nil {
		return nil, err
	}
	s.last = append(s.last[:0], logits.Row(logits.Rows-1)...)
	s.evaluated = append(s.evaluated[:common], ctx[common:]...)
	s.haveLast = true
	return s, nil
}

// evictStream clears stream i's cache entries and context, keeping its
// buffers for reuse.
func (h *Head) evictStream(i int) {
	h.draft.Cache.SeqRm(kvcache.SeqID(i), 0, math.MaxInt32)
	h.streams[i] = draftStream{evaluated: h.streams[i].evaluated[:0], last: h.streams[i].last}
}

// evictForSpace frees draft-cache cells until needed slots are available
// (or no evictable stream remains), evicting least-recently-used streams
// and never touching keep.
func (h *Head) evictForSpace(keep, needed int) {
	free := h.draft.Cache.Size() - h.draft.Cache.Used()
	for free < needed {
		lru := -1
		for i := range h.streams {
			if i == keep || len(h.streams[i].evaluated) == 0 {
				continue
			}
			if lru < 0 || h.streams[i].lastUse < h.streams[lru].lastUse {
				lru = i
			}
		}
		if lru < 0 {
			return // nothing evictable; EvalSeq will report exhaustion
		}
		free += len(h.streams[lru].evaluated)
		h.evictStream(lru)
	}
}

// Results decodes the final stage's logits, eagerly: the greedy target
// choice for every batch row is extracted immediately so the payload
// buffer can be released to the message pool as soon as Results returns.
// The returned value aliases head-owned staging and is valid until the
// next Results call — every engine consumes it before awaiting another
// result, which keeps the serving layer's accepted-token path
// allocation-free.
func (h *Head) Results(run *engine.RunMsg, _ []token.Token, payload []byte) engine.Results {
	rows := run.Len()
	if len(payload) != 4*rows*h.vocab {
		panic(fmt.Sprintf("realbk: result payload %dB for %d rows of vocab %d",
			len(payload), rows, h.vocab))
	}
	if cap(h.res.next) < rows {
		h.res.next = make([]token.Token, rows)
	}
	h.res.next = h.res.next[:rows]
	for i := 0; i < rows; i++ {
		h.res.next[i] = token.Token(argmaxRow(payload, i, h.vocab))
	}
	return &h.res
}

// BatchResults decodes a multi-session result frame (internal/batch):
// surviving rows' logits are argmaxed eagerly into the shared staging,
// indexed by the row's position in the original run message, so the
// serving demux calls Next with original row indices exactly as for solo
// runs. Rows masked out at a stage are absent from the frame; the head
// has masked at least those rows itself (it issued every mask), so the
// demux never asks for them.
func (h *Head) BatchResults(run *engine.RunMsg, _ [][]token.Token, payload []byte) engine.Results {
	total, rows, sessions, logits, err := batch.DecodeResult(payload, h.rowTags[:0], h.sessTags[:0])
	if err != nil {
		panic(fmt.Sprintf("realbk: bad batched result frame: %v", err))
	}
	h.rowTags, h.sessTags = rows[:0], sessions[:0]
	if total != run.Len() {
		panic(fmt.Sprintf("realbk: result frame for %d rows, run has %d", total, run.Len()))
	}
	if len(logits) != 4*len(rows)*h.vocab {
		panic(fmt.Sprintf("realbk: batched result payload %dB for %d rows of vocab %d",
			len(logits), len(rows), h.vocab))
	}
	if cap(h.res.next) < total {
		h.res.next = make([]token.Token, total)
	}
	h.res.next = h.res.next[:total]
	for i := range h.res.next {
		h.res.next[i] = -1
	}
	for k, orig := range rows {
		if run.RowSessions[orig] != sessions[k] {
			panic(fmt.Sprintf("realbk: result frame row %d tagged session %d, run says %d",
				orig, sessions[k], run.RowSessions[orig]))
		}
		h.res.next[orig] = token.Token(argmaxRow(logits, k, h.vocab))
	}
	return &h.res
}

// MemoryBytes reports the draft model footprint: zero when the head
// never drafts, or finished before anything made it derive its draft.
func (h *Head) MemoryBytes() int64 {
	h.Settle()
	if h.draft == nil {
		return 0
	}
	return h.draft.M.Bytes() + h.draft.Store.Bytes()
}

type realResults struct {
	next []token.Token
}

// Next returns the argmax of logits row i (greedy target choice). A
// negative entry marks a batched row that was masked out at a stage and
// never computed — asking for it is a demux bug.
func (r *realResults) Next(i int) token.Token {
	if i < 0 || i >= len(r.next) {
		panic(fmt.Sprintf("realbk: result row %d of %d", i, len(r.next)))
	}
	if r.next[i] < 0 {
		panic(fmt.Sprintf("realbk: result row %d was masked out of its batched run", i))
	}
	return r.next[i]
}

// --- float32 wire codec ---

func encodeMat(m tensor.Mat) []byte {
	return encodeMatInto(make([]byte, 0, 4*len(m.Data)), m)
}

// encodeMatInto appends the little-endian f32 encoding of m to buf.
func encodeMatInto(buf []byte, m tensor.Mat) []byte {
	for _, v := range m.Data {
		bits := math.Float32bits(v)
		buf = append(buf, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	return buf
}

// encodeVecInto appends the little-endian f32 encoding of one row.
func encodeVecInto(buf []byte, v tensor.Vec) []byte {
	for _, f := range v {
		bits := math.Float32bits(f)
		buf = append(buf, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	return buf
}

// decodeRowsInto decodes the selected rows of a full-shape rows x cols
// payload into dst (backing storage reused): dst row k holds payload row
// sel[k]. Eval uses it to pick the live rows out of an upstream activation
// frame.
func decodeRowsInto(dst *tensor.Mat, buf []byte, rows, cols int, sel []int) tensor.Mat {
	if len(buf) != 4*rows*cols {
		panic(fmt.Sprintf("realbk: activation payload %dB for %dx%d", len(buf), rows, cols))
	}
	if cap(dst.Data) < len(sel)*cols {
		dst.Data = make([]float32, len(sel)*cols)
	}
	dst.Rows, dst.Cols = len(sel), cols
	dst.Data = dst.Data[:len(sel)*cols]
	for k, r := range sel {
		off := 4 * r * cols
		row := dst.Data[k*cols : (k+1)*cols]
		for i := range row {
			row[i] = math.Float32frombits(uint32(buf[off+4*i]) | uint32(buf[off+4*i+1])<<8 |
				uint32(buf[off+4*i+2])<<16 | uint32(buf[off+4*i+3])<<24)
		}
	}
	return *dst
}

// decodeMat decodes a whole rows x cols payload.
func decodeMat(buf []byte, rows, cols int) tensor.Mat {
	sel := make([]int, rows)
	for i := range sel {
		sel[i] = i
	}
	var m tensor.Mat
	return decodeRowsInto(&m, buf, rows, cols, sel)
}

func decodeRow(buf []byte, row, cols int) tensor.Vec {
	out := make(tensor.Vec, cols)
	off := 4 * row * cols
	for i := range out {
		out[i] = math.Float32frombits(uint32(buf[off+4*i]) | uint32(buf[off+4*i+1])<<8 |
			uint32(buf[off+4*i+2])<<16 | uint32(buf[off+4*i+3])<<24)
	}
	return out
}

// argmaxRow decodes logits row `row` from the wire payload on the fly and
// returns the index of its maximum (ties to the lowest index, matching
// tensor.ArgMax), without staging the row as a float slice.
func argmaxRow(buf []byte, row, cols int) int {
	off := 4 * row * cols
	best := float32(math.Inf(-1))
	bi := 0
	for i := 0; i < cols; i++ {
		v := math.Float32frombits(uint32(buf[off+4*i]) | uint32(buf[off+4*i+1])<<8 |
			uint32(buf[off+4*i+2])<<16 | uint32(buf[off+4*i+3])<<24)
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
