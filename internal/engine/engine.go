// Package engine contains the scaffolding shared by all three inference
// strategies (pipeline-iterative, pipeline-speculative, PipeInfer): the
// run message format that travels the pipeline, the head-side run tracking
// FIFO (§IV-A.1), the generic worker loop every non-head rank executes,
// and the backend interfaces that let the same engine code run either on
// real tensor math (backend/realbk) or on the cost-model simulator
// (backend/simbk). No strategy's head loop lives here: each is a schedule
// of the one scheduler (serve.Drive) over a Head.
//
// Cancellation (§IV-D) has one rule, decided at the head: Head.CancelSession
// masks a session out of each run it names and tells the stages either to
// skip the session's rows or to compute the run without a result
// (CancelSig). WorkerLoop applies what it receives without looking at a
// run's kind or shape — a run's shape is its row groups (RunMsg.Groups),
// whatever per-row sections its message carries.
package engine

import (
	"fmt"
	"iter"
	"slices"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// RunKind distinguishes the pipeline run types (§IV-D.3 treats them
// differently: a non-speculative run's cache entries are never skipped
// unless the session is cleaned up, which Head.CancelSession decides).
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

// RowRange is one row's (position, length) range in a ranged run: the
// row's chunk covers a prefix of the logical range [Pos, Pos+Len) of its
// session's sequence. A plain decode row is the degenerate range (pos, 1).
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
	// For multi-session runs it is the first row's session; the
	// authoritative per-row owner is RowSessions.
	Session uint16
	Tokens  []TokenPlace
	KVOps   []kvcache.Op

	// RowSessions, when non-empty, tags every token row with its owning
	// session slot: the serving layer's batch composer coalesces several
	// sessions' compatible steps into one pipeline run, and stages and
	// results demux per row group (Groups). One session's rows are
	// contiguous. Empty means every row belongs to Session — the one-group
	// run, which the composer always sends untagged. Length, not
	// nil-ness, is the test: pooled messages keep an emptied backing
	// array between uses.
	RowSessions []uint16

	// RowRanges, when non-empty, gives every row a (position, length)
	// range: row i belongs to a logical token range [Pos, Pos+Len) of its
	// session's sequence, of which the run carries a contiguous chunk.
	// Prefill rides on this: each row of a prompt chunk carries the
	// remaining prefill range, so stages know that only the row computing
	// the range's final position yields a consumable logit row
	// (SamplingRow) — the other rows write KV and forward activations but
	// skip logits and the result frame entirely. Parallel to Tokens and
	// independent of RowSessions: a whole-prompt prefill is one untagged,
	// ranged group. Empty means every row samples.
	RowRanges []RowRange

	// DeadSessions is the set of session slots (bit per slot) whose rows
	// have been masked out of this run by cancellation. It is NOT
	// wire-encoded: the head sets bits as it cancels a session's share
	// (Head.CancelSession), and every stage derives its own view from the
	// skip entries it has received by the time it evaluates the run — so
	// per-stage views may lag, which changes only what a stage computes,
	// never what it places (Worker.Place). The last
	// stage's view travels back in its result frame (ResultFrame.Dead),
	// naming the rows the frame leaves out.
	DeadSessions uint64
}

// Len returns the batch size.
func (r *RunMsg) Len() int { return len(r.Tokens) }

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
func (r *RunMsg) RowDead(i int) bool { return r.rowIn(i, r.DeadSessions) }

// ResultRow reports whether token row i travels in the run's result frame
// when the last stage has masked out the sessions in dead: it does iff it
// samples (SamplingRow) and its session is not in dead. This is the one
// definition of a frame's rows — the last stage projects and ships exactly
// these, in row order, under its own DeadSessions, and the head decodes
// the same set under the mask the frame carries.
func (r *RunMsg) ResultRow(i int, dead uint64) bool {
	return r.SamplingRow(i) && !r.rowIn(i, dead)
}

// rowIn reports whether token row i's session is in the session mask.
func (r *RunMsg) rowIn(i int, mask uint64) bool {
	s := r.RowSession(i)
	return s < 64 && mask&(1<<s) != 0
}

// AllMasked reports whether the session mask covers every row group of
// the run — the one test of a wholly cancelled run, at the head and at
// every stage.
func (r *RunMsg) AllMasked(mask uint64) bool {
	if mask == 0 || len(r.Tokens) == 0 {
		return false
	}
	for lo := range r.Groups() {
		if !r.rowIn(lo, mask) {
			return false
		}
	}
	return true
}

// Two flag bits on the wire Kind byte announce the optional per-row
// sections that follow the KV ops, each independent of the other: one u16
// session tag per row (kindTagged), then one (u32 position, u32 length)
// range per row (kindRanged). RunKind values are tiny, so a frame with
// neither flag is the plain layout, unchanged since before either section
// existed.
const (
	kindTagged = 0x80
	kindRanged = 0x40
)

// EncodedSize reports the wire size of the message, so senders can size
// pooled buffers exactly.
func (r *RunMsg) EncodedSize() int {
	n := 12 + 16*len(r.Tokens) + 11*len(r.KVOps)
	if len(r.RowSessions) > 0 {
		n += 2 * len(r.Tokens)
	}
	if len(r.RowRanges) > 0 {
		n += 8 * len(r.Tokens)
	}
	return n
}

// AppendEncode appends the wire encoding to buf and returns it, letting
// the head and stage loops serialise into pooled message buffers. Each of
// RowSessions and RowRanges is encoded, flagged in the Kind byte, iff it
// is non-empty. DeadSessions is head-/stage-local state and is never
// encoded.
func (r *RunMsg) AppendEncode(buf []byte) []byte {
	kind := byte(r.Kind)
	if len(r.RowSessions) > 0 {
		if len(r.RowSessions) != len(r.Tokens) {
			panic(fmt.Sprintf("engine: %d row sessions for %d tokens", len(r.RowSessions), len(r.Tokens)))
		}
		kind |= kindTagged
	}
	if len(r.RowRanges) > 0 {
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
	for _, s := range r.RowSessions {
		buf = append(buf, byte(s), byte(s>>8))
	}
	for _, rr := range r.RowRanges {
		buf = appendU32(buf, uint32(rr.Pos))
		buf = appendU32(buf, uint32(rr.Len))
	}
	return buf
}

// DecodeRunMsg reverses Encode. It never retains buf, and a truncated or
// corrupt message yields an error, not a panic. Each per-row section is
// read iff its flag is set, so every frame an earlier layout produced —
// plain, tagged, tagged and ranged — decodes as it always did.
func DecodeRunMsg(buf []byte) (*RunMsg, error) {
	r := &RunMsg{}
	if err := r.Decode(buf); err != nil {
		return nil, err
	}
	return r, nil
}

// Decode is DecodeRunMsg into r, reusing the storage of r's slices, so a
// stage that decodes every run into one message allocates nothing once
// it has seen its widest run. On an error r holds a partial decode.
func (r *RunMsg) Decode(buf []byte) error {
	if len(buf) < 10 {
		return fmt.Errorf("engine: run message too short (%d bytes)", len(buf))
	}
	kind := buf[4]
	tagged, ranged := kind&kindTagged != 0, kind&kindRanged != 0
	*r = RunMsg{
		ID:          uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24,
		Kind:        RunKind(kind &^ (kindTagged | kindRanged)),
		Seq:         kvcache.SeqID(buf[5]),
		Session:     uint16(buf[6]) | uint16(buf[7])<<8,
		Tokens:      r.Tokens[:0],
		KVOps:       r.KVOps[:0],
		RowSessions: r.RowSessions[:0],
		RowRanges:   r.RowRanges[:0],
	}
	n := int(buf[8]) | int(buf[9])<<8
	off := 10
	if len(buf) < off+16*n+2 {
		return fmt.Errorf("engine: run message truncated")
	}
	r.Tokens = slices.Grow(r.Tokens, n)[:n]
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
		return fmt.Errorf("engine: run message truncated: %d KV ops need %d bytes, %d left",
			nOps, 11*nOps, len(buf)-off)
	}
	ops, err := kvcache.AppendDecodeOps(r.KVOps, buf[off:off+11*nOps])
	if err != nil {
		return err
	}
	r.KVOps = ops
	off += 11 * nOps
	if (tagged || ranged) && n == 0 {
		return fmt.Errorf("engine: run message flags per-row sections but has no token rows")
	}
	if tagged {
		if len(buf) < off+2*n {
			return fmt.Errorf("engine: tagged run message truncated: %d row sessions need %d bytes, %d left",
				n, 2*n, len(buf)-off)
		}
		r.RowSessions = slices.Grow(r.RowSessions, n)[:n]
		for i := 0; i < n; i++ {
			r.RowSessions[i] = uint16(buf[off]) | uint16(buf[off+1])<<8
			off += 2
		}
	}
	if ranged {
		if len(buf) < off+8*n {
			return fmt.Errorf("engine: ranged run message truncated: %d row ranges need %d bytes, %d left",
				n, 8*n, len(buf)-off)
		}
		r.RowRanges = slices.Grow(r.RowRanges, n)[:n]
		for i := 0; i < n; i++ {
			r.RowRanges[i] = RowRange{
				Pos: int32(readU32(buf[off:])),
				Len: int32(readU32(buf[off+4:])),
			}
			off += 8
		}
	}
	return nil
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

// CancelSig is one cancellation signal entry (§IV-D.2, per session): the
// run's unique ID and a session mask, whose meaning Head.CancelSession
// decides alone. A non-zero Sessions says "skip these sessions' rows" —
// stages place them like every row but do not evaluate them, and a run
// with every row group named is not evaluated at all. Sessions == 0 says
// "compute the run but send no result": the last stage answers with the
// empty marker, §IV-D.3's skipped final sampling for a non-speculative run.
type CancelSig struct {
	ID       uint32
	Sessions uint64
}

// cancelSigBytes is the fixed wire size of one cancellation entry.
const cancelSigBytes = 12

// AppendCancelSigs appends the wire encoding of sigs to buf and returns
// it, so the head packs a cancel payload into a pooled buffer.
func AppendCancelSigs(buf []byte, sigs ...CancelSig) []byte {
	for _, s := range sigs {
		buf = appendU32(buf, s.ID)
		buf = appendU64(buf, s.Sessions)
	}
	return buf
}

// AppendDecodeCancel reverses AppendCancelSigs, appending to sigs and
// ignoring a trailing partial entry, so a stage that decodes into one
// reused slice allocates nothing once it has grown.
func AppendDecodeCancel(sigs []CancelSig, buf []byte) []CancelSig {
	for off := 0; off+cancelSigBytes <= len(buf); off += cancelSigBytes {
		sigs = append(sigs, CancelSig{ID: readU32(buf[off:]), Sessions: readU64(buf[off+4:])})
	}
	return sigs
}

// Worker is a pipeline stage's compute backend: the real implementation
// evaluates its layer shard with tensors; the simulated one charges the
// cost model.
type Worker interface {
	// Place applies the run's KVOps and gives every row a cache cell, for
	// every run frame the stage receives, masked, cancelled or skipped
	// alike, as the head's shadow did at launch.
	Place(run *RunMsg) error
	// Eval evaluates the stage's layer range over the rows outside
	// run.DeadSessions of the run last placed. input is the upstream
	// activation (nil for the first target stage, which embeds the run
	// tokens itself). cancelled is polled between layer chunks (§IV-D.2
	// probe points); when it returns true the evaluation stops at once
	// and Eval returns (nil, 0, false).
	//
	// On completion it returns the payload to forward downstream plus the
	// wire size to charge the interconnect. That is an activation, or —
	// at the last stage — the result rows alone: the bytes of each row
	// run.ResultRow(i, run.DeadSessions) selects, back to back in row
	// order. The worker loop frames them (ResultFrame); a worker never
	// writes a result header.
	//
	// Buffer ownership: run and input are only read during the call — the
	// worker loop decodes every run into one reused message — so the
	// worker must copy anything it needs afterwards. The returned payload may
	// alias worker-owned staging storage and is only valid until the
	// worker's next Eval call; callers copy it into a frame (a run frame's
	// activation, a ResultFrame) before evaluating another run.
	Eval(run *RunMsg, input []byte, cancelled func() bool) (out []byte, wire int, ok bool)
	// ApplyKV applies a KV transaction's ops in order, or returns the
	// first it cannot apply. ops is only read during the call: the worker
	// loop decodes every transaction into one reused slice.
	ApplyKV(ops []kvcache.Op) error
	// MemoryBytes reports the stage's resident footprint (weights + KV).
	MemoryBytes() int64
}

// Results interprets a completed run's result payload on the head.
type Results interface {
	// Next returns the target model's greedy token following batch
	// position i (the prediction for run.Tokens[i].Pos + 1).
	Next(i int) token.Token
}

// RowTokens is the Results value every head backend fills, eagerly, so the
// frame's buffer can return to the pool as soon as Results returns: each
// row's greedy target choice by its position in the run message. A row the
// frame leaves out — masked at a stage, or a prefill chunk row that never
// samples — is absent; the head issued every mask, so the serving demux
// never asks for one.
type RowTokens struct {
	next []token.Token
}

// Fill decodes a run's result rows into r, storage reused: rows holds
// rowBytes bytes for each row msg.ResultRow(i, dead) selects, back to back
// in row order, and decode turns one into its token. It returns r, which
// is valid until the next Fill.
func (r *RowTokens) Fill(msg *RunMsg, dead uint64, rows []byte, rowBytes int, decode func(row []byte) token.Token) *RowTokens {
	r.next = slices.Grow(r.next[:0], msg.Len())[:msg.Len()]
	k := 0
	for i := range r.next {
		r.next[i] = -1
		if msg.ResultRow(i, dead) {
			r.next[i] = decode(rows[k*rowBytes : (k+1)*rowBytes])
			k++
		}
	}
	return r
}

// Next returns row i's target choice. Asking for a row the result frame
// left out is a demux bug.
func (r *RowTokens) Next(i int) token.Token {
	if i < 0 || i >= len(r.next) || r.next[i] < 0 {
		panic(fmt.Sprintf("engine: result row %d of %d is not in its result frame", i, len(r.next)))
	}
	return r.next[i]
}

// HeadBackend is the head node's compute: the draft model plus result
// interpretation. Drafting must consume time (wall time for the real
// drafter, virtual time for the simulated one).
type HeadBackend interface {
	// Propose returns up to width draft continuations of ctx with
	// confidences in descending order (spec.Proposer contract), in
	// head-owned buffers valid until the next Propose. ok false is a
	// cut-short draft: the head stopped its draft forward between layers
	// because the drafting session's result was waiting (Head.YieldDraft),
	// returns nothing, and the next Propose for the same context resumes
	// from the next layer. The scheduler treats it as a head that is not
	// Ready: it drafts nothing this time and consumes the result first.
	Propose(ctx []token.Token, width int) (toks []token.Token, probs []float32, ok bool)
	// Ready reports, without blocking, whether the head can draft now.
	// A head whose draft is still being derived answers false, and
	// Propose may be called only once it has answered true: until then
	// the head decodes without speculation.
	Ready() bool
	// Results interprets a completed run's result frame, which the head
	// has already checked against the run: rows holds RowBytes bytes for
	// each row run.Msg.ResultRow(i, dead) selects — dead being the
	// sessions the last stage had masked out — back to back in row order.
	// Both backends decode them into a RowTokens.
	Results(run *Run, dead uint64, rows []byte) Results
	// RowBytes is the size of one result row in the frame: a vocab-sized
	// logits row for the real backend; a 4-byte token id for the
	// simulated one, whose last stage picks the target token from its
	// cells and still charges the wire a logits row.
	RowBytes() int
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

	// AcceptTimes is the timestamp of every acceptance event, kept in
	// each serving Result (bounded by the request's MaxNew). The head's
	// aggregate carries only the summary:
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

	// Cross-session batching counters (serving layer, PR 4): multi-session
	// runs launched (more than one row group), the per-session row groups
	// they carried (BatchedRows / BatchedRuns is the realised mean batch
	// width), and sessions masked out of in-flight runs that kept other
	// sessions' rows.
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

	// DraftYields counts drafts the head cut short between layers because
	// a result was waiting (HeadBackend.Propose); each resumes later.
	DraftYields int
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
