// Package engine contains the scaffolding shared by all three inference
// strategies (pipeline-iterative, pipeline-speculative, PipeInfer): the
// run message format that travels the pipeline, the head-side run tracking
// FIFO (§IV-A.1), the generic worker loop every non-head rank executes,
// and the backend interfaces that let the same engine code run either on
// real tensor math (backend/realbk) or on the cost-model simulator
// (backend/simbk).
package engine

import (
	"fmt"
	"iter"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// RunKind distinguishes the pipeline run types (§IV-D.3 treats them
// differently: non-speculative runs are never cancelled mid-stream).
type RunKind uint8

const (
	// KindPrefill processes the prompt.
	KindPrefill RunKind = iota
	// KindNonSpec is a single-token canonical-sequence run.
	KindNonSpec
	// KindSpec is a speculative run (micro-batch segment or tree).
	KindSpec
)

// String names the kind.
func (k RunKind) String() string {
	switch k {
	case KindPrefill:
		return "prefill"
	case KindNonSpec:
		return "nonspec"
	case KindSpec:
		return "spec"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// TokenPlace is one batch token with its cache placement.
type TokenPlace struct {
	Tok  token.Token
	Pos  int32
	Seqs kvcache.SeqSet
}

// RowRange is one row's (position, length) range in a ranged batched run
// (wire format v3 range extension): the row's chunk covers a prefix of
// the logical range [Pos, Pos+Len) of its session's sequence. A plain
// decode row is the degenerate range (pos, 1).
type RowRange struct {
	Pos int32
	Len int32
}

// RunMsg is the run configuration the head sends down the pipeline at the
// start of a decode transaction: identity, batch contents and placement,
// and the KV operations to apply before evaluation (prefix sharing,
// §IV-C.3).
type RunMsg struct {
	ID   uint32
	Kind RunKind
	Seq  kvcache.SeqID // primary sequence (spec runs); Canonical otherwise
	// Session tags the run with the serving-layer session slot that owns
	// it (0 outside the serving layer). The head FIFO uses it to account
	// in-flight runs per session and stages carry it through so results
	// and cancellations demux to the right request's cache partitions.
	// For multi-session batched runs it is the first row's session; the
	// authoritative per-row owner is RowSessions.
	Session uint16
	Tokens  []TokenPlace
	KVOps   []kvcache.Op

	// RowSessions, when non-nil, tags every token row with its owning
	// session slot — a cross-session batched run (wire format v3, PR 4):
	// the serving layer's batch composer coalesces several sessions'
	// compatible steps into one pipeline run, and stages/results demux
	// per row. One session's rows are contiguous. nil means every row
	// belongs to Session (wire format v2, unchanged on the wire).
	RowSessions []uint16

	// RowRanges, when non-nil, extends a batched run with per-row
	// (position, length) ranges (wire format v3 range extension, PR 5):
	// row i belongs to a logical token range [Pos, Pos+Len) of its
	// session's sequence, of which the run carries a contiguous chunk.
	// Chunked cross-session prefill rides on this: a prompt split into
	// PrefillChunk-token chunks tags each chunk row with the remaining
	// prefill range, so stages know that only the row computing the
	// range's final position yields a consumable logit row (SamplingRow)
	// — intermediate chunk rows write KV and forward activations but skip
	// logits and the result frame entirely. Parallel to Tokens; requires
	// RowSessions (ranges are meaningless without row groups). nil means
	// every row samples, exactly the pre-range batched behaviour.
	RowRanges []RowRange

	// DeadSessions is the set of session slots (bit per slot) whose rows
	// have been masked out of this batched run by per-session
	// cancellation. It is NOT wire-encoded: the head sets bits as it
	// cancels a session's rows (Head.CancelRows), and every stage derives
	// its own view from the row-masked cancellation signals it has
	// received by the time it evaluates the run — so per-stage views may
	// lag, which is safe because masked rows' sequences are always
	// cleaned up namespace-wide afterwards.
	DeadSessions uint64
}

// Len returns the batch size.
func (r *RunMsg) Len() int { return len(r.Tokens) }

// Batched reports whether the run carries per-row session tags (a
// multi-session batched run). Length, not nil-ness, is the test: pooled
// messages keep an emptied RowSessions backing array between uses.
func (r *RunMsg) Batched() bool { return len(r.RowSessions) > 0 }

// Ranged reports whether the run carries per-row (position, length)
// ranges (the v3 range extension). Like Batched, length is the test.
func (r *RunMsg) Ranged() bool { return len(r.RowRanges) > 0 }

// SamplingRow reports whether token row i's logits are consumed at the
// head: always true for unranged runs; for ranged runs only the row that
// computes its range's final position samples — the rows of an
// intermediate prefill chunk never do, so stages skip their logits and
// leave them out of the result frame.
func (r *RunMsg) SamplingRow(i int) bool {
	if len(r.RowRanges) == 0 {
		return true
	}
	rr := r.RowRanges[i]
	return r.Tokens[i].Pos == rr.Pos+rr.Len-1
}

// RowSession returns the session slot owning token row i.
func (r *RunMsg) RowSession(i int) uint16 {
	if len(r.RowSessions) > 0 {
		return r.RowSessions[i]
	}
	return r.Session
}

// InvolvesSession reports whether any row of the run belongs to session
// slot s.
func (r *RunMsg) InvolvesSession(s uint16) bool {
	lo, hi := r.GroupOf(s)
	return lo < hi
}

// Groups ranges over the run's row groups — one contiguous span of rows
// [lo, hi) per session, RowSession(lo) its owner: one session's rows are
// contiguous by contract, so the walk visits every session of the run
// exactly once. An untagged run is one group: every row belongs to
// Session.
func (r *RunMsg) Groups() iter.Seq2[int, int] {
	return func(yield func(lo, hi int) bool) {
		for lo := 0; lo < len(r.Tokens); {
			hi := len(r.Tokens)
			if len(r.RowSessions) > 0 {
				for hi = lo + 1; hi < len(r.RowSessions) && r.RowSessions[hi] == r.RowSessions[lo]; {
					hi++
				}
			}
			if !yield(lo, hi) {
				return
			}
			lo = hi
		}
	}
}

// GroupOf returns the row span [lo, hi) of session slot's group
// (lo == hi when the session has no rows in the run).
func (r *RunMsg) GroupOf(slot uint16) (lo, hi int) {
	for lo, hi := range r.Groups() {
		if r.RowSession(lo) == slot {
			return lo, hi
		}
	}
	return 0, 0
}

// RowDead reports whether token row i has been masked out of the run by
// per-session cancellation.
func (r *RunMsg) RowDead(i int) bool {
	s := r.RowSession(i)
	return s < 64 && r.DeadSessions&(1<<s) != 0
}

// AllDead reports whether every row of the run is masked out.
func (r *RunMsg) AllDead() bool {
	if r.DeadSessions == 0 || len(r.Tokens) == 0 {
		return false
	}
	for i := range r.Tokens {
		if !r.RowDead(i) {
			return false
		}
	}
	return true
}

// kindBatched is the flag bit on the wire Kind byte marking a v3 frame:
// per-row session tags follow the KV op section. v2 frames never set it
// (RunKind values are tiny), which is what lets the v3 decoder accept v2
// frames unchanged.
const kindBatched = 0x80

// kindRanged is the flag bit marking the v3 range extension: one
// (position, length) range per token row follows the session tags. It is
// only ever set together with kindBatched — ranges describe row groups,
// which only batched runs have — and unranged v3 frames decode unchanged,
// which is what keeps v2/v3 compatibility intact.
const kindRanged = 0x40

// Encode serialises the message.
func (r *RunMsg) Encode() []byte {
	return r.AppendEncode(make([]byte, 0, r.EncodedSize()))
}

// EncodedSize reports the wire size of the message, so senders can size
// pooled buffers exactly.
func (r *RunMsg) EncodedSize() int {
	n := 12 + 16*len(r.Tokens) + 11*len(r.KVOps)
	if r.Batched() {
		n += 2 * len(r.Tokens)
	}
	if r.Ranged() {
		n += 8 * len(r.Tokens)
	}
	return n
}

// AppendEncode appends the wire encoding to buf and returns it, letting
// the head and stage loops serialise into pooled message buffers.
// Batched runs (RowSessions non-nil) encode as wire format v3: the Kind
// byte carries the kindBatched flag and one session tag per token row
// follows the KV ops. DeadSessions is head-/stage-local state and is
// never encoded.
func (r *RunMsg) AppendEncode(buf []byte) []byte {
	kind := byte(r.Kind)
	if r.Batched() {
		if len(r.RowSessions) != len(r.Tokens) {
			panic(fmt.Sprintf("engine: %d row sessions for %d tokens", len(r.RowSessions), len(r.Tokens)))
		}
		kind |= kindBatched
	}
	if r.Ranged() {
		if !r.Batched() {
			panic("engine: row ranges without row sessions")
		}
		if len(r.RowRanges) != len(r.Tokens) {
			panic(fmt.Sprintf("engine: %d row ranges for %d tokens", len(r.RowRanges), len(r.Tokens)))
		}
		kind |= kindRanged
	}
	buf = append(buf, byte(r.ID), byte(r.ID>>8), byte(r.ID>>16), byte(r.ID>>24))
	buf = append(buf, kind, byte(r.Seq))
	buf = append(buf, byte(r.Session), byte(r.Session>>8))
	buf = append(buf, byte(len(r.Tokens)), byte(len(r.Tokens)>>8))
	for _, t := range r.Tokens {
		buf = appendU32(buf, uint32(t.Tok))
		buf = appendU32(buf, uint32(t.Pos))
		buf = appendU64(buf, uint64(t.Seqs))
	}
	buf = append(buf, byte(len(r.KVOps)), byte(len(r.KVOps)>>8))
	buf = kvcache.AppendOps(buf, r.KVOps)
	if r.Batched() {
		for _, s := range r.RowSessions {
			buf = append(buf, byte(s), byte(s>>8))
		}
	}
	if r.Ranged() {
		for _, rr := range r.RowRanges {
			buf = appendU32(buf, uint32(rr.Pos))
			buf = appendU32(buf, uint32(rr.Len))
		}
	}
	return buf
}

// DecodeRunMsg reverses Encode. It never retains buf, and a truncated or
// corrupt message yields an error, not a panic. The decoder accepts both
// wire formats: v2 frames (no kindBatched flag) decode with nil
// RowSessions, exactly as before v3 existed.
func DecodeRunMsg(buf []byte) (*RunMsg, error) {
	if len(buf) < 10 {
		return nil, fmt.Errorf("engine: run message too short (%d bytes)", len(buf))
	}
	kind := buf[4]
	batched := kind&kindBatched != 0
	ranged := kind&kindRanged != 0
	if ranged && !batched {
		return nil, fmt.Errorf("engine: ranged run message without row sessions")
	}
	r := &RunMsg{
		ID:      uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24,
		Kind:    RunKind(kind &^ (kindBatched | kindRanged)),
		Seq:     kvcache.SeqID(buf[5]),
		Session: uint16(buf[6]) | uint16(buf[7])<<8,
	}
	n := int(buf[8]) | int(buf[9])<<8
	off := 10
	if len(buf) < off+16*n+2 {
		return nil, fmt.Errorf("engine: run message truncated")
	}
	r.Tokens = make([]TokenPlace, n)
	for i := 0; i < n; i++ {
		r.Tokens[i] = TokenPlace{
			Tok:  token.Token(readU32(buf[off:])),
			Pos:  int32(readU32(buf[off+4:])),
			Seqs: kvcache.SeqSet(readU64(buf[off+8:])),
		}
		off += 16
	}
	nOps := int(buf[off]) | int(buf[off+1])<<8
	off += 2
	if 11*nOps > len(buf)-off {
		return nil, fmt.Errorf("engine: run message truncated: %d KV ops need %d bytes, %d left",
			nOps, 11*nOps, len(buf)-off)
	}
	ops, err := kvcache.DecodeOps(buf[off : off+11*nOps])
	if err != nil {
		return nil, err
	}
	r.KVOps = ops
	off += 11 * nOps
	if batched {
		if n == 0 {
			return nil, fmt.Errorf("engine: batched run message without token rows")
		}
		if len(buf) < off+2*n {
			return nil, fmt.Errorf("engine: batched run message truncated: %d row sessions need %d bytes, %d left",
				n, 2*n, len(buf)-off)
		}
		r.RowSessions = make([]uint16, n)
		for i := 0; i < n; i++ {
			r.RowSessions[i] = uint16(buf[off]) | uint16(buf[off+1])<<8
			off += 2
		}
	}
	if ranged {
		if len(buf) < off+8*n {
			return nil, fmt.Errorf("engine: ranged run message truncated: %d row ranges need %d bytes, %d left",
				n, 8*n, len(buf)-off)
		}
		r.RowRanges = make([]RowRange, n)
		for i := 0; i < n; i++ {
			r.RowRanges[i] = RowRange{
				Pos: int32(readU32(buf[off:])),
				Len: int32(readU32(buf[off+4:])),
			}
			off += 8
		}
	}
	return r, nil
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func appendU64(b []byte, v uint64) []byte {
	return append(appendU32(b, uint32(v)), byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func readU64(b []byte) uint64 {
	return uint64(readU32(b)) | uint64(readU32(b[4:]))<<32
}

// CancelSig is one cancellation signal entry (§IV-D.2 extended for
// cross-session batching): Sessions == 0 cancels the whole run (the
// classic signal, "only a uniquely assigned identifier"); a non-zero
// Sessions bitmask surgically masks just those session slots' rows out of
// an in-flight batched run, leaving the other sessions' rows to complete
// untouched.
type CancelSig struct {
	ID       uint32
	Sessions uint64
}

// cancelSigBytes is the fixed wire size of one cancellation entry.
const cancelSigBytes = 12

// EncodeCancel packs run IDs into whole-run cancellation signal entries.
func EncodeCancel(ids []uint32) []byte {
	buf := make([]byte, 0, cancelSigBytes*len(ids))
	for _, id := range ids {
		buf = appendCancelSig(buf, CancelSig{ID: id})
	}
	return buf
}

// EncodeCancelSigs packs cancellation entries (whole-run or row-masked).
func EncodeCancelSigs(sigs []CancelSig) []byte {
	buf := make([]byte, 0, cancelSigBytes*len(sigs))
	for _, s := range sigs {
		buf = appendCancelSig(buf, s)
	}
	return buf
}

func appendCancelSig(buf []byte, s CancelSig) []byte {
	buf = appendU32(buf, s.ID)
	return appendU64(buf, s.Sessions)
}

// DecodeCancel reverses EncodeCancel/EncodeCancelSigs, ignoring a
// trailing partial entry.
func DecodeCancel(buf []byte) []CancelSig {
	sigs := make([]CancelSig, 0, len(buf)/cancelSigBytes)
	for off := 0; off+cancelSigBytes <= len(buf); off += cancelSigBytes {
		sigs = append(sigs, CancelSig{ID: readU32(buf[off:]), Sessions: readU64(buf[off+4:])})
	}
	return sigs
}

// Worker is a pipeline stage's compute backend: the real implementation
// evaluates its layer shard with tensors; the simulated one charges the
// cost model.
type Worker interface {
	// Eval evaluates the stage's layer range for the run. input is the
	// upstream activation payload (nil for the first target stage, which
	// embeds the run tokens itself). cancelled is polled between layer
	// chunks (§IV-D.2 probe points); when it returns true the evaluation
	// stops immediately and Eval returns (nil, 0, false).
	//
	// On completion it returns the payload to forward downstream (an
	// activation, or the result payload if this is the last stage) plus
	// the wire size to charge the interconnect.
	//
	// Buffer ownership: input is only read during the call — the worker
	// must copy anything it needs afterwards. The returned payload may
	// alias worker-owned staging storage and is only valid until the
	// worker's next Eval call; callers frame or copy it (DataPayload)
	// before evaluating another run.
	Eval(run *RunMsg, input []byte, cancelled func() bool) (out []byte, wire int, ok bool)
	// ApplyKV applies pipelined cache operations in transaction order.
	ApplyKV(ops []kvcache.Op)
	// MemoryBytes reports the stage's resident footprint (weights + KV).
	MemoryBytes() int64
}

// Results interprets a completed run's result payload on the head.
type Results interface {
	// Next returns the target model's greedy token following batch
	// position i (the prediction for run.Tokens[i].Pos + 1).
	Next(i int) token.Token
}

// BatchResultsBackend is optionally implemented by head backends that
// interpret multi-session batched result frames (internal/batch codec):
// the last stage of a batched run emits a self-describing frame tagging
// every surviving row with its original index and session, because stages
// may have masked cancelled sessions' rows out en route. ctxs, when
// non-nil, holds each original row's session context (the batched
// counterpart of the ctx argument of Results); context-free backends
// ignore it.
type BatchResultsBackend interface {
	BatchResults(run *RunMsg, ctxs [][]token.Token, payload []byte) Results
}

// HeadBackend is the head node's compute: the draft model plus result
// interpretation. Drafting must consume time (wall time for the real
// drafter, virtual time for the simulated one).
type HeadBackend interface {
	// Propose returns up to width draft continuations of ctx with
	// confidences in descending order (spec.Proposer contract).
	Propose(ctx []token.Token, width int) ([]token.Token, []float32)
	// Results parses a result payload for the given run. ctx is the full
	// token sequence up to and including the run's input tokens, which
	// the simulated backend uses to reproduce target choices.
	Results(run *RunMsg, ctx []token.Token, payload []byte) Results
	// MemoryBytes reports the head's resident footprint (draft model).
	MemoryBytes() int64
}

// Topology fixes the pipeline role assignment.
type Topology struct {
	// Head is the sampling/orchestration rank (always 0 here).
	Head int
	// Stages lists the ranks holding target-model shards, in pipeline
	// order. For iterative/speculative inference the head doubles as
	// stage 0 (Stages[0] == Head); for PipeInfer the head is dedicated to
	// drafting and Stages starts at rank 1 (§IV-A).
	Stages []int
}

// Validate checks the topology.
func (t Topology) Validate(size int) error {
	if t.Head != 0 {
		return fmt.Errorf("engine: head must be rank 0, got %d", t.Head)
	}
	if len(t.Stages) == 0 {
		return fmt.Errorf("engine: no stages")
	}
	seen := map[int]bool{}
	for _, s := range t.Stages {
		if s < 0 || s >= size {
			return fmt.Errorf("engine: stage rank %d out of cluster size %d", s, size)
		}
		if seen[s] {
			return fmt.Errorf("engine: rank %d assigned twice", s)
		}
		seen[s] = true
	}
	return nil
}

// HeadIsStage reports whether the head also evaluates the first shard.
func (t Topology) HeadIsStage() bool { return len(t.Stages) > 0 && t.Stages[0] == t.Head }

// FirstRemote returns the first stage rank that is not the head, or -1.
func (t Topology) FirstRemote() int {
	for _, s := range t.Stages {
		if s != t.Head {
			return s
		}
	}
	return -1
}

// LastStage returns the final stage rank.
func (t Topology) LastStage() int { return t.Stages[len(t.Stages)-1] }

// Config bundles the tunable engine parameters.
type Config struct {
	MaxNew int // tokens to generate (incl. the prompt-sampled token)

	// Speculation parameters.
	MicroBatch     int     // continuous-speculation micro-batch size (1-4, §IV-B.1)
	SpecCutoff     float32 // base confidence cutoff (§II-A.1)
	CutoffRecovery float32 // added per continuous iteration (§IV-B.2)
	CutoffDecay    float32 // subtracted when speculation stalls (§IV-B.2)
	TreeWidth      int     // branching factor for tree speculation
	TreeCap        int     // max nodes per speculation tree
	MaxSeqs        int     // KV sequence partitions available to runs
	MaxInflight    int     // max simultaneous runs in the pipeline

	// Ablation switches (Fig 8).
	DisableCancel     bool // no early inference cancellation
	DisableContinuous bool // one large speculation batch at a time
}

// Defaults fills unset fields with the reference configuration.
func (c Config) Defaults() Config {
	if c.MaxNew <= 0 {
		c.MaxNew = 64
	}
	if c.MicroBatch <= 0 {
		c.MicroBatch = 2
	}
	if c.SpecCutoff <= 0 {
		c.SpecCutoff = 0.30
	}
	if c.CutoffRecovery <= 0 {
		c.CutoffRecovery = 0.05
	}
	if c.CutoffDecay <= 0 {
		c.CutoffDecay = 0.05
	}
	if c.TreeWidth <= 0 {
		c.TreeWidth = 2
	}
	if c.TreeCap <= 0 {
		c.TreeCap = 4
	}
	if c.MaxSeqs <= 0 {
		c.MaxSeqs = 8
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 12
	}
	return c
}

// Stats aggregates the §V-A evaluation metrics for one generation.
type Stats struct {
	Generated int // tokens produced (incl. the prompt-sampled token)

	PrefillDone time.Duration // when prompt processing finished
	FirstToken  time.Duration // first acceptance after prefill (TTFT anchor)
	Done        time.Duration // generation finished

	// AcceptTimes is the timestamp of every acceptance event, kept by the
	// single-request engines and in each serving Result (bounded by the
	// request's MaxNew). The serving aggregate carries only the summary:
	// AcceptCount events, the first at FirstToken, the latest at
	// LastAccept — all ITL reads.
	AcceptTimes []time.Duration
	AcceptCount int
	LastAccept  time.Duration

	Proposed      int // draft tokens offered for verification
	Accepted      int // draft tokens accepted
	RunsLaunched  int
	RunsCancelled int
	Superfluous   int

	// Memory-pressure protocol counters (serving layer, PR 3): sessions
	// whose speculative KV pages were dropped, sessions preempted (whole
	// namespace evicted, request parked), and parked sessions readmitted
	// by re-prefilling their accepted prefix.
	SpecDrops    int
	Preemptions  int
	Readmissions int

	// Cross-session batching counters (serving layer, PR 4): tagged runs
	// launched — every run of several sessions, and every ranged one,
	// which includes a lone prefill chunk — the per-session row groups
	// they carried (BatchedRows / BatchedRuns is the realised mean batch
	// width), and per-session rows surgically masked out of in-flight
	// tagged runs instead of cancelling the whole run.
	BatchedRuns int
	BatchedRows int
	RowCancels  int

	// Prefill counters (serving layer, PR 5): runs that carried at least
	// one prompt-prefill chunk group alongside (or instead of) decode
	// rows; an unchunked prefill is one such run.
	PrefillBatchedRuns int

	// Fault-tolerance counters (serving layer, PR 6): runs declared failed
	// by the watchdog (deadline passed or a newer result proved theirs
	// lost), sessions recovered by eviction + prefix-recompute readmission,
	// transport links re-established after a dead connection, and times the
	// repeated-failure breaker tripped (speculation off, batch width
	// clamped until results flow again).
	RunTimeouts  int
	Recoveries   int
	Reconnects   int
	BreakerTrips int

	// Prefix-reuse counters (serving layer, PR 9): admissions that mapped
	// a published shared prefix instead of recomputing it, and the prompt
	// tokens those hits skipped.
	PrefixHits      int
	PrefixHitTokens int

	// Overload-control counters (serving layer, PR 10): queued requests
	// shed because their TTFT deadline became provably unmeetable,
	// submissions rejected at admission (queue at bound or beyond the
	// sustainable-rate estimate), and — for deadline-carrying requests
	// that were actually served — whether every configured deadline was
	// met. Per-session Stats carry DeadlineHits/DeadlineMisses as 0/1.
	Sheds          int
	Overloads      int
	DeadlineHits   int
	DeadlineMisses int
}

// MeanBatch is the realised mean number of per-session steps coalesced
// per batched run (0 when batching never engaged).
func (s *Stats) MeanBatch() float64 {
	if s.BatchedRuns == 0 {
		return 0
	}
	return float64(s.BatchedRows) / float64(s.BatchedRuns)
}

// TTFT is the time-to-first-token latency (§V-A metric 2).
func (s *Stats) TTFT() time.Duration { return s.FirstToken - s.PrefillDone }

// TimeToFirst is the serving-layer time-to-first-token: the wall (or
// virtual) time from run start until the first token is emitted — the
// prompt-sampled token that becomes available the moment prefill
// completes. For a burst of simultaneously arriving sessions this is the
// latency each user experiences before any output appears; TTFT (above)
// measures only the post-prefill decode gap.
func (s *Stats) TimeToFirst() time.Duration { return s.PrefillDone }

// GenTime is the wall/virtual time spent generating (prefill excluded).
func (s *Stats) GenTime() time.Duration { return s.Done - s.PrefillDone }

// Speed is the average generation speed in tokens/second (§V-A metric 1).
func (s *Stats) Speed() float64 {
	if s.GenTime() <= 0 {
		return 0
	}
	return float64(s.Generated) / s.GenTime().Seconds()
}

// ITL is the average inter-token latency (§V-A metric 3): the mean gap
// between successive token acceptances.
func (s *Stats) ITL() time.Duration {
	n, first, last := s.AcceptCount, s.FirstToken, s.LastAccept
	if k := len(s.AcceptTimes); k > 0 {
		n, first, last = k, s.AcceptTimes[0], s.AcceptTimes[k-1]
	}
	if n < 2 {
		return 0
	}
	return (last - first) / time.Duration(n-1)
}

// AcceptanceRate is the fraction of proposed draft tokens accepted.
func (s *Stats) AcceptanceRate() float64 {
	if s.Proposed == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Proposed)
}
