// Package realbk is the real-compute backend: pipeline stages evaluate
// genuine transformer layer shards (internal/model), and the head runs a
// real draft model. Its ranks serve through the same rank routine and
// stage as the simulated backend's (backend.ServeRank, backend.Stage),
// which it hands only its source of tokens — model layers, and a draft
// derived lazily from the weights its ranks share — so it is the
// ground-truth correctness validation of the protocol simbk times: under
// greedy sampling every strategy must reproduce the single-node reference
// output bit for bit (§V-B).
package realbk

import (
	"fmt"
	"math"

	"github.com/pipeinfer/pipeinfer/internal/backend"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// Worker is a stage's layers (backend.Layers): one contiguous layer
// shard of the target model. All evaluation state (batch, activations,
// the encoded output payload) lives in per-worker staging buffers reused
// across runs, so a steady-state decode run performs no heap allocation.
// The payload returned by Eval aliases the staging buffer and is valid
// until the worker's next Eval call — the engine worker loop copies it
// into a pooled wire buffer before evaluating the next run.
type Worker struct {
	m     *model.Model
	lo    int
	hi    int
	first bool
	last  bool
	store *model.KVStore

	sc    *model.Scratch
	batch model.Batch
	x     tensor.Mat // activation staging (embedding or decoded upstream payload)
	out   tensor.Mat // logits staging for the last stage
	enc   []byte     // encoded output payload staging
	zeros []byte     // a zero row for masked slots of inter-stage payloads
}

// NewWorker builds the layers of a stage over [lo, hi) whose cache holds
// cells cells: the K/V tensor store has a row per cell id (page*pageSize
// + slot).
func NewWorker(m *model.Model, lo, hi int, first, last bool, cells int) *Worker {
	return &Worker{
		m: m, lo: lo, hi: hi, first: first, last: last,
		store: model.NewKVStore(m.Cfg, lo, hi, cells),
		sc:    model.NewScratch(m.Cfg),
	}
}

// Eval implements backend.Layers with real tensor computation over the
// placed rows; per-row sequence sets keep every session's attention inside
// its own shard, so each row's arithmetic is bit-identical to its solo
// run. Between stages the activation payload keeps the run's full row
// shape (masked rows zero-filled), so per-stage differences in
// cancellation knowledge can never skew decoding. The last stage projects
// the result rows only — every live row of an unranged run; of a ranged
// (chunked-prefill) run the rows computing their range's final position,
// so an intermediate prompt chunk never pays the vocab-sized projection.
// The per-layer hook doubles as the cancellation probe point.
func (w *Worker) Eval(run *engine.RunMsg, input []byte, rows *backend.Rows, cancelled func() bool) ([]byte, int, bool) {
	w.batch = model.Batch{Tokens: rows.Toks, Meta: rows.Meta, Cells: rows.Cells, Groups: rows.Groups}
	var x tensor.Mat
	if w.first {
		x = w.m.EmbedBatchInto(&w.x, rows.Toks)
	} else {
		x = decodeRowsInto(&w.x, input, run.Len(), w.m.Cfg.Dim, rows.Live)
	}
	x, ok := w.m.ForwardLayersScratch(w.lo, w.hi, x, w.store, &w.batch, func(int) bool {
		return !cancelled()
	}, w.sc)
	if !ok {
		return nil, 0, false
	}
	enc := w.enc[:0]
	if w.last {
		enc = encodeVecInto(enc, w.m.LogitsRowsInto(&w.out, x, rows.Result, w.sc).Data)
	} else {
		row := 4 * w.m.Cfg.Dim
		if len(w.zeros) < row {
			w.zeros = make([]byte, row)
		}
		li := 0
		for i := range run.Len() {
			if li < len(rows.Live) && rows.Live[li] == i {
				enc = encodeVecInto(enc, x.Row(li))
				li++
			} else {
				enc = append(enc, w.zeros[:row]...)
			}
		}
	}
	w.enc = enc
	return enc, len(enc), true
}

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

// catchUpSlice is the most tokens one draft evaluation takes. The
// catch-up on a long context (the first Propose after the draft became
// ready evaluates every token accepted so far) runs as evaluations of
// this many tokens, each yielding between layers like a one-token step,
// so a waiting result is held for at most one layer over catchUpSlice
// rows. On the perf-lab host (2-vCPU Xeon, the lab's 6-layer model) a
// layer over 4 rows takes about 13 µs against 48 µs over 16, while a
// token costs 20 µs of catch-up in 4-row slices against 18 µs in 16-row
// ones.
const catchUpSlice = 4

// draftStream is one incrementally evaluated draft-model context. Each
// stream owns one sequence of the draft runner's cache; keeping several
// lets the serving layer interleave Propose calls for many sessions
// without re-evaluating a whole context on every session switch.
//
// evaluated is what the stream's cache holds, last the logits after its
// final token. suspended, when not empty, is the slice past evaluated
// whose evaluation the draft runner holds part-way (Head.susp names the
// stream): its cells are placed, and its layers run on the next Propose
// that extends it.
type draftStream struct {
	evaluated []token.Token
	suspended []token.Token
	last      tensor.Vec
	haveLast  bool
	lastUse   uint64
}

// Head is the real head backend: a live draft model with incremental KV
// reuse (longest-common-prefix rollback, one stream per concurrent
// context lineage) plus logits-based result parsing.
type Head struct {
	draft *model.Runner
	// build, when non-nil, derives the draft (NewLazyHead); ready is
	// non-nil once StartDraft has put the derivation on its way and
	// closes when draft is set. Only the derivation writes draft before
	// ready closes; everything else is touched only by the goroutine that
	// drives the head.
	build func() *model.Runner
	ready chan struct{}

	vocab   int
	streams []draftStream
	tick    uint64
	dist    tensor.Vec    // softmax staging for Propose
	topk    []int         // TopKInto scratch
	toks    []token.Token // Propose's results, reused across calls
	probs   []float32
	res     engine.RowTokens // Results staging, reused across calls

	// yield, when set (YieldTo), is asked between the draft's layers
	// whether to stop for more urgent work; susp is the stream whose
	// evaluation is suspended, -1 for none.
	yield func() bool
	susp  int
}

// NewHead builds the head backend. draft may be nil for the iterative
// strategy, which never drafts.
func NewHead(draft *model.Runner, vocab int) *Head {
	return &Head{draft: draft, vocab: vocab, susp: -1}
}

// NewLazyHead builds a head backend whose draft model does not exist yet:
// build derives it, on its own goroutine, once StartDraft says the first
// run is on its way down the pipeline — weight derivation is the bulk of
// a cold start, and run ahead of the first prefill it would sit squarely
// in the time to first token. Until it has finished the head answers
// Ready with false and decodes without speculation.
func NewLazyHead(build func() *model.Runner, vocab int) *Head {
	return &Head{build: build, vocab: vocab, susp: -1}
}

// YieldTo makes the draft preemptible: between any two layers of a draft
// evaluation the head asks waiting, and when it says yes the evaluation
// suspends and Propose reports a cut-short draft. The serving head passes
// engine.Head.YieldDraft, so a drafting session's result that returns
// mid-draft is consumed, and its successor launched, before the draft
// goes on.
func (h *Head) YieldTo(waiting func() bool) { h.yield = waiting }

// Attach hands a lazy head the serving head eh that drives it: the draft
// yields to eh's waiting results (YieldTo), its derivation starts once
// eh's first run is on the wire (StartDraft), and eh's flight ring marks
// both ends of the derivation. A head built with NewHead needs none of it.
func (h *Head) Attach(eh *engine.Head) {
	if h.build == nil {
		return
	}
	h.YieldTo(eh.YieldDraft)
	build := h.build
	h.build = func() *model.Runner {
		r := build()
		eh.Flight.Record(eh.EP.Now(), trace.FlightBuild, 0, trace.BuildReady)
		return r
	}
	eh.AfterFirstLaunch = func() {
		eh.Flight.Record(eh.EP.Now(), trace.FlightBuild, 0, trace.BuildBegin)
		h.StartDraft()
	}
}

// deriveAsync runs a lazy head's derivation on a goroutine of its own, so
// that the head keeps decoding while it runs.
func deriveAsync(derive func()) { go derive() }

// deriveOn puts a lazy head's derivation on its way. Tests in this
// package replace it to derive the draft on the spot, so that it is ready
// at the first decode step, or to hold it back until they release it.
var deriveOn = deriveAsync

// StartDraft begins deriving a lazy head's draft, once; later calls and
// calls on a head built with NewHead do nothing. Ready tells when the
// derivation has finished; nothing waits for it but Settle.
func (h *Head) StartDraft() {
	if h.build == nil || h.ready != nil {
		return
	}
	ready, build := make(chan struct{}), h.build
	h.ready = ready
	deriveOn(func() {
		defer close(ready)
		h.draft = build()
	})
}

// Ready reports, without blocking, whether the head can draft: always on
// a head built with NewHead, and on a lazy head once its derivation has
// finished.
func (h *Head) Ready() bool {
	if h.build == nil {
		return true
	}
	select {
	case <-h.ready: // nil until StartDraft: never ready before it
		return true
	default:
		return false
	}
}

// Settle waits for a draft derivation in flight, so that none outlives
// the rank that started it.
func (h *Head) Settle() {
	if h.ready != nil {
		<-h.ready
	}
}

// Propose runs the draft model incrementally over ctx and returns the
// top-width tokens of its output distribution with their probabilities,
// in head-owned buffers valid until the next Propose. The first call
// after the draft became ready catches it up on the whole context
// (ensure); calling it before Ready has said so is a bug. ok is false
// when the evaluation yielded to a waiting result (YieldTo): nothing is
// proposed, and the next Propose that extends the same context resumes
// it from the next layer.
func (h *Head) Propose(ctx []token.Token, width int) (toks []token.Token, probs []float32, ok bool) {
	if !h.Ready() {
		panic("realbk: Propose before the draft is ready")
	}
	if h.draft == nil || len(ctx) == 0 {
		return nil, nil, true
	}
	s, err := h.ensure(ctx)
	if err != nil {
		panic(fmt.Sprintf("realbk: draft evaluation failed: %v", err))
	}
	if s == nil {
		return nil, nil, false
	}
	if cap(h.dist) < len(s.last) {
		h.dist = make(tensor.Vec, len(s.last))
	}
	dist := h.dist[:len(s.last)]
	copy(dist, s.last)
	tensor.Softmax(dist)
	h.topk = tensor.TopKInto(h.topk, dist, width)
	h.toks, h.probs = h.toks[:0], h.probs[:0]
	for _, j := range h.topk {
		h.toks = append(h.toks, token.Token(j))
		h.probs = append(h.probs, dist[j])
	}
	return h.toks, h.probs, true
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
// only the suffix past the longest common prefix, in slices of at most
// catchUpSlice tokens. Contexts with no common prefix get their own
// stream (up to maxDraftStreams, then LRU eviction), so sessions
// proposing through a shared head keep incremental drafting instead of
// thrashing one cache. The final logit row is copied out of the runner's
// scratch so it survives later evaluations; stream i lives in
// draft-cache sequence i.
//
// A nil stream means the evaluation yielded: it stays suspended on the
// runner, and the next ensure resumes it if ctx still extends its
// tokens. Otherwise — the result it yielded to rejected them, or another
// stream's context came first — that ensure drops it and removes its
// cells, before anything else touches the runner.
func (h *Head) ensure(ctx []token.Token) (*draftStream, error) {
	h.tick++
	if h.susp >= 0 {
		s := &h.streams[h.susp]
		if a := len(s.evaluated); commonLen(s.evaluated, ctx) == a && commonLen(s.suspended, ctx[a:]) == len(s.suspended) {
			s.lastUse = h.tick
			return h.evaluate(s, h.susp, ctx)
		}
		h.draft.Drop()
		h.draft.Cache.SeqRm(kvcache.SeqID(h.susp), int32(len(s.evaluated)), math.MaxInt32)
		s.suspended, h.susp = s.suspended[:0], -1
	}
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
	return h.evaluate(s, best, ctx)
}

// evaluate extends stream s (sequence i) over ctx past what it holds, one
// slice of at most catchUpSlice tokens at a time, resuming the suspended
// slice first if there is one. It returns nil when an evaluation yields.
func (h *Head) evaluate(s *draftStream, i int, ctx []token.Token) (*draftStream, error) {
	for len(s.evaluated) < len(ctx) {
		a := len(s.evaluated)
		if len(s.suspended) == 0 {
			s.suspended = append(s.suspended, ctx[a:min(len(ctx), a+catchUpSlice)]...)
			// Completed sessions leave dead streams behind; reclaim their
			// cells rather than letting the draft cache fill up (LRU
			// order, never the stream being extended).
			h.evictForSpace(i, len(s.suspended))
			if err := h.draft.Start(s.suspended, int32(a), kvcache.SeqID(i)); err != nil {
				s.suspended = s.suspended[:0]
				return nil, err
			}
			h.susp = i
		}
		logits, done := h.draft.Resume(h.yield)
		if !done {
			return nil, nil
		}
		s.last = append(s.last[:0], logits...)
		s.evaluated = append(s.evaluated, s.suspended...)
		s.suspended, h.susp = s.suspended[:0], -1
		s.haveLast = true
	}
	return s, nil
}

// evictStream clears stream i's cache entries and context, keeping its
// buffers for reuse.
func (h *Head) evictStream(i int) {
	h.draft.Cache.SeqRm(kvcache.SeqID(i), 0, math.MaxInt32)
	st := &h.streams[i]
	*st = draftStream{evaluated: st.evaluated[:0], suspended: st.suspended[:0], last: st.last}
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

// Results decodes the final stage's logits, eagerly: each row's greedy
// target choice is its logits row's argmax (engine.RowTokens). The
// returned value aliases head-owned staging and is valid until the next
// Results call — every engine consumes it before awaiting another result,
// which keeps the serving layer's accepted-token path allocation-free.
func (h *Head) Results(run *engine.Run, dead uint64, rows []byte) engine.Results {
	return h.res.Fill(run.Msg, dead, rows, h.RowBytes(), argmaxLogits)
}

// RowBytes is one logits row: vocab float32s.
func (h *Head) RowBytes() int { return 4 * h.vocab }

// MemoryBytes reports the draft model footprint: zero when the head
// never drafts, or finished before anything made it derive its draft.
func (h *Head) MemoryBytes() int64 {
	h.Settle()
	if h.draft == nil {
		return 0
	}
	return h.draft.M.Bytes() + h.draft.Store.Bytes()
}

// --- float32 wire codec ---

// encodeVecInto appends the little-endian f32 encoding of v (a row, or a
// whole matrix's data) to buf.
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

// argmaxLogits decodes one logits row from the wire payload on the fly
// and returns the index of its maximum (ties to the lowest index, matching
// tensor.ArgMax), without staging the row as a float slice.
func argmaxLogits(row []byte) token.Token {
	best := float32(math.Inf(-1))
	bi := 0
	for i := 0; i < len(row)/4; i++ {
		v := math.Float32frombits(uint32(row[4*i]) | uint32(row[4*i+1])<<8 |
			uint32(row[4*i+2])<<16 | uint32(row[4*i+3])<<24)
		if v > best {
			best, bi = v, i
		}
	}
	return token.Token(bi)
}
