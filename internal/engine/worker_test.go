package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
)

// mockWorker scripts stage behaviour and records everything it sees.
type mockWorker struct {
	mu        sync.Mutex
	placed    []uint32
	evals     []uint32
	kvBatches [][]kvcache.Op
	// cancelAfter, when >= 0, makes Eval report cancellation after that
	// many cancelled() polls.
	cancelAfter int
	pollsPerRun int
}

func newMockWorker() *mockWorker { return &mockWorker{cancelAfter: -1, pollsPerRun: 3} }

func (m *mockWorker) Eval(run *RunMsg, input []byte, cancelled func() bool) ([]byte, int, bool) {
	m.mu.Lock()
	m.evals = append(m.evals, run.ID)
	m.mu.Unlock()
	for i := 0; i < m.pollsPerRun; i++ {
		if cancelled() && (m.cancelAfter < 0 || i >= m.cancelAfter) {
			return nil, 0, false
		}
	}
	out := append([]byte{byte(run.ID)}, input...)
	return out, len(out), true
}

func (m *mockWorker) Place(run *RunMsg) error {
	m.mu.Lock()
	m.placed = append(m.placed, run.ID)
	m.mu.Unlock()
	return m.ApplyKV(run.KVOps)
}

func (m *mockWorker) ApplyKV(ops []kvcache.Op) error {
	m.mu.Lock()
	m.kvBatches = append(m.kvBatches, slices.Clone(ops)) // ops is only lent
	m.mu.Unlock()
	return nil
}

func (m *mockWorker) MemoryBytes() int64 { return 42 }

// pipeline2 builds head(0) -> worker(1) with a PipeInfer-style topology.
func pipeline2(t *testing.T, w Worker) (headEP comm.Endpoint, done chan error, topo Topology) {
	t.Helper()
	c := chancomm.New(2)
	topo = Topology{Head: 0, Stages: []int{1}}
	done = make(chan error, 1)
	go func() { done <- WorkerLoop(c.Endpoint(1), topo, w, WorkerObs{}) }()
	return c.Endpoint(0), done, topo
}

// frame appends the op byte to a frame's body.
func frame(body []byte, op FrameOp) []byte { return append(slices.Clip(body), byte(op)) }

// runFrame is msg's run frame; act is the activation a stage past the
// first target stage receives (nil for the first).
func runFrame(msg *RunMsg, act ...byte) []byte {
	return frame(append(msg.AppendEncode(nil), act...), OpRun)
}

func sendDecode(ep comm.Endpoint, dst int, msg *RunMsg) {
	f := runFrame(msg)
	ep.Send(dst, comm.TagRun, f, len(f))
}

func sendShutdown(ep comm.Endpoint, dst int) {
	ep.Send(dst, comm.TagRun, frame(nil, OpShutdown), 1)
}

// resultRows parses a result frame and returns its rows; ok is false for
// the empty marker.
func resultRows(t *testing.T, p []byte) ([]byte, bool) {
	t.Helper()
	f, err := ParseResult(p)
	if err != nil {
		t.Fatal(err)
	}
	return f.Rows, f.OK
}

func TestWorkerLoopEvaluatesAndReturnsResult(t *testing.T) {
	w := newMockWorker()
	ep, done, _ := pipeline2(t, w)

	msg := &RunMsg{ID: 1, Kind: KindNonSpec, Tokens: []TokenPlace{{Tok: 5, Pos: 0, Seqs: 1}}}
	sendDecode(ep, 1, msg)
	data, ok := resultRows(t, ep.Recv(1, comm.TagResult))
	if !ok || !bytes.Equal(data, []byte{1}) {
		t.Fatalf("result rows wrong: %v ok=%v", data, ok)
	}
	sendShutdown(ep, 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(w.evals) != 1 || w.evals[0] != 1 {
		t.Fatalf("evals = %v", w.evals)
	}
}

func TestWorkerLoopCancelSkipsSpecRun(t *testing.T) {
	w := newMockWorker()
	ep, done, _ := pipeline2(t, w)

	// Skip session 0's rows of run 1 before it arrives: chancomm delivers
	// a Send before it returns, so the worker sees the entry when it
	// decides, skips the evaluation and returns the empty marker.
	ep.Send(1, comm.TagCancel, AppendCancelSigs(nil, CancelSig{ID: 1, Sessions: 1}), 0)
	msg := &RunMsg{ID: 1, Kind: KindSpec, Seq: 2, Tokens: []TokenPlace{{Tok: 5, Pos: 0, Seqs: 4}}}
	sendDecode(ep, 1, msg)
	payload := ep.Recv(1, comm.TagResult)
	if f, err := ParseResult(payload); err != nil || f.OK || f.ID != 1 {
		t.Fatalf("skipped run answered %+v, %v; want the empty marker for run 1", f, err)
	}
	sendShutdown(ep, 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(w.evals) != 0 {
		t.Fatalf("skipped run was evaluated: evals=%v", w.evals)
	}
}

func TestWorkerLoopNonSpecNeverSkipped(t *testing.T) {
	w := newMockWorker()
	ep, done, _ := pipeline2(t, w)

	ep.Send(1, comm.TagCancel, AppendCancelSigs(nil, CancelSig{ID: 7}), 0)
	msg := &RunMsg{ID: 7, Kind: KindNonSpec, Tokens: []TokenPlace{{Tok: 5, Pos: 0, Seqs: 1}}}
	sendDecode(ep, 1, msg)
	payload := ep.Recv(1, comm.TagResult)
	// (id, 0) keeps a non-speculative run computing (§IV-D.3): the eval
	// happens, and only the final sampling is skipped — the empty marker.
	if f, err := ParseResult(payload); err != nil || f.OK {
		t.Fatalf("result %+v, %v; want the empty marker", f, err)
	}
	sendShutdown(ep, 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(w.evals) != 1 {
		t.Fatalf("non-spec run was skipped: evals=%v", w.evals)
	}
}

// rowWorker is a last stage that records which rows each Eval computed
// (the rows outside run.DeadSessions) and answers with one byte per
// result row, the row's index.
type rowWorker struct {
	nopWorker
	evaluated [][]int
}

func (w *rowWorker) Eval(run *RunMsg, _ []byte, _ func() bool) ([]byte, int, bool) {
	var rows []int
	var out []byte
	for i := range run.Tokens {
		if !run.RowDead(i) {
			rows = append(rows, i)
		}
		if run.ResultRow(i, run.DeadSessions) {
			out = append(out, byte(i))
		}
	}
	w.evaluated = append(w.evaluated, rows)
	return out, len(out), true
}

// TestWorkerLoopStageRule is the stage's one cancel rule as a table over
// {spec, non-spec} x {one group, three} x {skip one session, skip every
// session, (id, 0), no signal}: the entries reach a last-stage WorkerLoop
// before the run does (chancomm delivers a Send before it returns), and
// the test pins which rows were evaluated and the frame that came back —
// the empty marker, the frame without the skipped session's rows, or the
// full frame. The run's kind never changes the outcome.
func TestWorkerLoopStageRule(t *testing.T) {
	type outcome struct {
		evaluated []int  // nil: not evaluated
		frame     []byte // nil: the empty marker
		dead      uint64
	}
	all6 := []int{0, 1, 2, 3, 4, 5}
	cases := []struct {
		groups int
		signal string
		sigs   func(id uint32) []CancelSig
		want   outcome
	}{
		{1, "skip one", func(id uint32) []CancelSig { return []CancelSig{{ID: id, Sessions: 1 << 3}} }, outcome{}},
		{1, "skip all", func(id uint32) []CancelSig { return []CancelSig{{ID: id, Sessions: 1<<3 | 1<<5}} }, outcome{}},
		{1, "(id, 0)", func(id uint32) []CancelSig { return []CancelSig{{ID: id}} }, outcome{evaluated: []int{0, 1}}},
		{1, "none", func(uint32) []CancelSig { return nil }, outcome{evaluated: []int{0, 1}, frame: []byte{0, 1}}},
		{3, "skip one", func(id uint32) []CancelSig { return []CancelSig{{ID: id, Sessions: 1 << 1}} },
			outcome{evaluated: []int{0, 1, 4, 5}, frame: []byte{0, 1, 4, 5}, dead: 1 << 1}},
		{3, "skip all", func(id uint32) []CancelSig {
			return []CancelSig{{ID: id, Sessions: 1 << 1}, {ID: id, Sessions: 1<<0 | 1<<2}}
		}, outcome{}},
		{3, "(id, 0)", func(id uint32) []CancelSig { return []CancelSig{{ID: id}} }, outcome{evaluated: all6}},
		{3, "none", func(uint32) []CancelSig { return nil }, outcome{evaluated: all6, frame: []byte{0, 1, 2, 3, 4, 5}}},
	}
	for _, kind := range []RunKind{KindSpec, KindNonSpec} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%v/groups=%d/%s", kind, tc.groups, tc.signal), func(t *testing.T) {
				w := &rowWorker{}
				ep, done, _ := pipeline2(t, w)
				msg := &RunMsg{ID: 9, Kind: kind, Session: 3, Tokens: make([]TokenPlace, 2)}
				if tc.groups > 1 {
					msg = wideMsg(tc.groups, 2)
					msg.ID, msg.Kind = 9, kind
				}
				if sigs := tc.sigs(msg.ID); sigs != nil {
					ep.Send(1, comm.TagCancel, AppendCancelSigs(nil, sigs...), 0)
				}
				sendDecode(ep, 1, msg)
				f, err := ParseResult(ep.Recv(1, comm.TagResult))
				sendShutdown(ep, 1)
				if werr := <-done; werr != nil {
					t.Fatal(werr)
				}
				if err != nil || f.ID != msg.ID {
					t.Fatalf("result %+v, %v", f, err)
				}
				var evaluated []int
				if len(w.evaluated) > 0 {
					evaluated = w.evaluated[0]
				}
				if len(w.evaluated) > 1 || !slices.Equal(evaluated, tc.want.evaluated) {
					t.Fatalf("evaluated rows %v, want %v", w.evaluated, tc.want.evaluated)
				}
				if f.OK != (tc.want.frame != nil) || !bytes.Equal(f.Rows, tc.want.frame) || f.Dead != tc.want.dead {
					t.Fatalf("frame ok=%v dead=%#x rows=%v, want ok=%v dead=%#x rows=%v",
						f.OK, f.Dead, f.Rows, tc.want.frame != nil, tc.want.dead, tc.want.frame)
				}
			})
		}
	}
}

func TestWorkerLoopKVTransactionOrdering(t *testing.T) {
	w := newMockWorker()
	ep, done, _ := pipeline2(t, w)

	// KV txn, then decode, then KV txn: ApplyKV calls must interleave in
	// exactly that order (run messages carry their own ops batch too).
	ops1 := []kvcache.Op{{Kind: kvcache.OpSeqCp, Src: 0, Dst: 1, P0: 0, P1: 5}}
	f := frame(kvcache.AppendOps(nil, ops1), OpKV)
	ep.Send(1, comm.TagRun, f, len(f))

	msg := &RunMsg{ID: 1, Kind: KindNonSpec,
		Tokens: []TokenPlace{{Tok: 5, Pos: 0, Seqs: 1}},
		KVOps:  []kvcache.Op{{Kind: kvcache.OpSeqRm, Src: 3, P0: 0, P1: 9}}}
	sendDecode(ep, 1, msg)

	ops3 := []kvcache.Op{{Kind: kvcache.OpEvictShard, Src: 4, Dst: 4}}
	f = frame(kvcache.AppendOps(nil, ops3), OpKV)
	ep.Send(1, comm.TagRun, f, len(f))

	ep.Recv(1, comm.TagResult)
	sendShutdown(ep, 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(w.kvBatches) != 3 {
		t.Fatalf("kv batches = %d, want 3", len(w.kvBatches))
	}
	if w.kvBatches[0][0].Kind != kvcache.OpSeqCp ||
		w.kvBatches[1][0].Kind != kvcache.OpSeqRm ||
		w.kvBatches[2][0].Kind != kvcache.OpEvictShard {
		t.Fatalf("kv op order broken: %v", w.kvBatches)
	}
}

func TestWorkerLoopForwardsDownstream(t *testing.T) {
	// Three ranks: head(0) -> stage(1) -> stage(2); verify relay of run,
	// activation, and shutdown.
	c := chancomm.New(3)
	topo := Topology{Head: 0, Stages: []int{1, 2}}
	w1, w2 := newMockWorker(), newMockWorker()
	done1 := make(chan error, 1)
	done2 := make(chan error, 1)
	go func() { done1 <- WorkerLoop(c.Endpoint(1), topo, w1, WorkerObs{}) }()
	go func() { done2 <- WorkerLoop(c.Endpoint(2), topo, w2, WorkerObs{}) }()

	ep := c.Endpoint(0)
	msg := &RunMsg{ID: 1, Kind: KindNonSpec, Tokens: []TokenPlace{{Tok: 5, Pos: 0, Seqs: 1}}}
	sendDecode(ep, 1, msg)
	data, ok := resultRows(t, ep.Recv(2, comm.TagResult)) // final stage delivers to head
	// Each stage prepends the run ID to its input: stage 1 is first (no
	// input), and stage 2's input is stage 1's output.
	if !ok || !bytes.Equal(data, []byte{1, 1}) {
		t.Fatalf("relay rows wrong: %v ok=%v", data, ok)
	}
	sendShutdown(ep, 1) // must propagate 1 -> 2
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
	if len(w1.evals) != 1 || len(w2.evals) != 1 {
		t.Fatalf("evals: %v %v", w1.evals, w2.evals)
	}
}

func TestWorkerLoopRejectsNonStageRank(t *testing.T) {
	c := chancomm.New(2)
	topo := Topology{Head: 0, Stages: []int{0}} // rank 1 has no role
	if err := WorkerLoop(c.Endpoint(1), topo, newMockWorker(), WorkerObs{}); err == nil {
		t.Fatal("expected role error")
	}
	// Head's inline stage must not run a worker loop either.
	topoInline := Topology{Head: 0, Stages: []int{0, 1}}
	c2 := chancomm.New(2)
	if err := WorkerLoop(c2.Endpoint(0), topoInline, newMockWorker(), WorkerObs{}); err == nil {
		t.Fatal("expected inline-stage error")
	}
}

func TestWorkerLoopEmptyInputSkipsEval(t *testing.T) {
	// Stage 2 receives an empty activation (upstream cancelled): it must
	// skip evaluation and forward the empty result.
	c := chancomm.New(3)
	topo := Topology{Head: 0, Stages: []int{1, 2}}
	w2 := newMockWorker()
	done := make(chan error, 1)
	go func() { done <- WorkerLoop(c.Endpoint(2), topo, w2, WorkerObs{}) }()

	// Pose as stage 1: forward a decode with an empty activation payload.
	ep1 := c.Endpoint(1)
	msg := &RunMsg{ID: 9, Kind: KindSpec, Seq: 1, Tokens: []TokenPlace{{Tok: 5, Pos: 0, Seqs: 2}}}
	f := runFrame(msg, payloadEmpty)
	ep1.Send(2, comm.TagRun, f, len(f))

	headEP := c.Endpoint(0)
	if _, ok := resultRows(t, headEP.Recv(2, comm.TagResult)); ok {
		t.Fatal("empty input produced a data result")
	}
	if len(w2.evals) != 0 {
		t.Fatal("stage evaluated a cancelled run's empty input")
	}
	sendShutdown(ep1, 2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// cacheWorker is a mockWorker whose KV operations and rows apply to a
// paged cache of width-4 shards and 8-cell pages, in which sequence 0
// holds one page published as shared entry 1.
type cacheWorker struct {
	*mockWorker
	cache *kvpage.Cache
}

func newCacheWorker(t *testing.T) cacheWorker {
	cache := kvpage.New(kvpage.Config{Cells: 32, PageSize: 8, ShardSeqs: 4})
	meta := make([]kvcache.TokenMeta, 8)
	for p := range meta {
		meta[p] = kvcache.TokenMeta{Pos: int32(p), Seqs: kvcache.NewSeqSet(0)}
	}
	if _, err := cache.PlaceRowsInto(nil, meta); err != nil {
		t.Fatal(err)
	}
	cache.SharePrefix(0, 1, 8)
	return cacheWorker{newMockWorker(), cache}
}

// Place applies the run's KV operations and places its rows, as a
// stage does.
func (w cacheWorker) Place(run *RunMsg) error {
	if err := w.ApplyKV(run.KVOps); err != nil {
		return err
	}
	metas := make([]kvcache.TokenMeta, len(run.Tokens))
	for i, t := range run.Tokens {
		metas[i] = kvcache.TokenMeta{Pos: t.Pos, Seqs: t.Seqs}
	}
	_, err := w.cache.PlaceRowsInto(nil, metas)
	return err
}

func (w cacheWorker) ApplyKV(ops []kvcache.Op) error { return w.cache.ApplyAll(ops) }

// TestWorkerLoopRejectsMalformedFrames: a frame a stage cannot read — an
// empty one, an unknown op, a truncated run, an activation that is
// missing or unknown — or a KV op or row that decodes but that the
// stage's cache cannot apply or place makes WorkerLoop return an error,
// never panic, and nothing is evaluated.
func TestWorkerLoopRejectsMalformedFrames(t *testing.T) {
	msg := &RunMsg{ID: 3, Kind: KindNonSpec, Tokens: []TokenPlace{{Tok: 5, Pos: 0, Seqs: 1}, {Tok: 6, Pos: 1, Seqs: 1}}}
	enc := msg.AppendEncode(nil)
	// A KV frame of a well-formed op and o, and a run carrying o.
	kv := func(o kvcache.Op) []byte {
		return frame(kvcache.AppendOps(nil, []kvcache.Op{{Kind: kvcache.OpSeqRm, Src: 1, P1: 1}, o}), OpKV)
	}
	runWith := func(o kvcache.Op) []byte {
		m := *msg
		m.KVOps = []kvcache.Op{o}
		return frame(m.AppendEncode(nil), OpRun)
	}
	// A run whose second row has the sequence set seqs.
	rowSeqs := func(seqs kvcache.SeqSet) []byte {
		m := *msg
		m.Tokens = []TokenPlace{msg.Tokens[0], {Tok: 6, Pos: 1, Seqs: seqs}}
		return runFrame(&m)
	}
	cases := []struct {
		name  string
		stage int // 1: the first target stage; 2: the stage behind it
		frame []byte
	}{
		{"empty frame", 1, []byte{}},
		{"zero op", 1, []byte{0}},
		{"unknown op", 1, frame(enc, 0x7f)},
		{"run truncated in its header", 1, frame(enc[:6], OpRun)},
		{"run truncated in its tokens", 1, frame(enc[:len(enc)-3], OpRun)},
		{"first stage with bytes past the header", 1, runFrame(msg, payloadData, 1)},
		{"run without activation", 2, runFrame(msg)},
		{"unknown activation marker", 2, runFrame(msg, 7, 1, 2)},
		{"empty activation with bytes", 2, runFrame(msg, payloadEmpty, 1)},
		{"KV ops of a partial length", 1, frame(make([]byte, 12), OpKV)},
		{"KV op of an unknown kind", 1, kv(kvcache.Op{Kind: 9})},
		{"KV op of the retired kind 2", 1, kv(kvcache.Op{Kind: 2})},
		{"KV op naming sequence 200", 1, kv(kvcache.Op{Kind: kvcache.OpSeqRm, Src: 200, P1: 1})},
		{"KV copy to a sequence past the ids", 1, kv(kvcache.Op{Kind: kvcache.OpSeqCp, Src: 0, Dst: kvcache.MaxSeqs, P1: 1})},
		{"KV share from a sequence past the ids", 1, kv(kvcache.Op{Kind: kvcache.OpSharePrefix, Src: kvcache.MaxSeqs, P1: 8})},
		{"KV map into a sequence past the ids", 1, kv(kvcache.Op{Kind: kvcache.OpMapShared, Src: 255, P1: 8})},
		{"KV namespace window past the ids", 1, kv(kvcache.Op{Kind: kvcache.OpDropSpec, Src: 60, Dst: 8})},
		{"KV empty namespace window", 1, kv(kvcache.Op{Kind: kvcache.OpEvictShard, Src: 4, Dst: 0})},
		{"run carrying a KV op of an unknown kind", 1, runWith(kvcache.Op{Kind: 9})},
		{"run carrying a KV op naming sequence 200", 1, runWith(kvcache.Op{Kind: kvcache.OpSeqCp, Src: 0, Dst: 200, P1: 1})},
		{"KV copy across shards", 1, kv(kvcache.Op{Kind: kvcache.OpSeqCp, Src: 0, Dst: 4, P1: 8})},
		{"KV map of an unregistered entry", 1, kv(kvcache.Op{Kind: kvcache.OpMapShared, Src: 0, Dst: 7, P1: 8})},
		{"KV unref of an unregistered entry", 1, kv(kvcache.Op{Kind: kvcache.OpUnrefPrefix, Dst: 7})},
		{"KV namespace window across shards", 1, kv(kvcache.Op{Kind: kvcache.OpDropSpec, Src: 2, Dst: 4})},
		{"KV share of a part page", 1, kv(kvcache.Op{Kind: kvcache.OpSharePrefix, Src: 0, Dst: 2, P1: 4})},
		{"KV share of a sequence with no cells", 1, kv(kvcache.Op{Kind: kvcache.OpSharePrefix, Src: 4, Dst: 2, P1: 8})},
		{"KV share under a live entry", 1, kv(kvcache.Op{Kind: kvcache.OpSharePrefix, Src: 0, Dst: 1, P1: 8})},
		{"KV map to a part page", 1, kv(kvcache.Op{Kind: kvcache.OpMapShared, Src: 4, Dst: 1, P1: 4})},
		{"KV map past the chain", 1, kv(kvcache.Op{Kind: kvcache.OpMapShared, Src: 4, Dst: 1, P1: 16})},
		{"run carrying a copy across shards", 1, runWith(kvcache.Op{Kind: kvcache.OpSeqCp, Src: 0, Dst: 4, P1: 8})},
		{"run row with an empty sequence set", 1, rowSeqs(0)},
		{"run row with a sequence set across shards", 1, rowSeqs(kvcache.NewSeqSet(0, 4))},
		{"shutdown with a body", 1, frame([]byte{1}, OpShutdown)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := chancomm.New(3)
			topo := Topology{Head: 0, Stages: []int{1, 2}}
			w := newCacheWorker(t)
			done := make(chan error, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						done <- fmt.Errorf("panic: %v", p)
					}
				}()
				done <- WorkerLoop(c.Endpoint(tc.stage), topo, w, WorkerObs{})
			}()
			c.Endpoint(tc.stage-1).Send(tc.stage, comm.TagRun, tc.frame, len(tc.frame))
			select {
			case err := <-done:
				if err == nil || strings.HasPrefix(err.Error(), "panic") {
					t.Fatalf("WorkerLoop returned %v, want an error", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("WorkerLoop accepted the frame and waits for the next")
			}
			if len(w.evals) != 0 {
				t.Fatalf("a malformed frame was evaluated: %v", w.evals)
			}
		})
	}
}

// chargeEP records the wire bytes each Send is charged.
type chargeEP struct {
	comm.Endpoint
	charged []int
}

func (e *chargeEP) Send(dst int, tag comm.Tag, p []byte, wire int) {
	e.charged = append(e.charged, wire)
	e.Endpoint.Send(dst, tag, p, wire)
}

// TestFrameCharges: a frame is charged what the operation's messages were
// charged when it took several (a start byte, the header, the activation
// marker and wire), so simulated time cannot tell the two apart.
func TestFrameCharges(t *testing.T) {
	c := chancomm.New(2)
	ep := &chargeEP{Endpoint: c.Endpoint(0)}
	msg := &RunMsg{ID: 1, Tokens: []TokenPlace{{Tok: 5, Pos: 0, Seqs: 1}}}
	hdr := msg.EncodedSize()
	sendRun(ep, 1, msg.AppendEncode(nil), false, false, nil, 0)
	sendRun(ep, 1, msg.AppendEncode(nil), true, false, nil, 0)
	sendRun(ep, 1, msg.AppendEncode(nil), true, true, []byte{1, 2}, 4096)
	h := &Head{EP: ep, Topo: Topology{Head: 0, Stages: []int{1}}}
	h.SendKV([]kvcache.Op{{Kind: kvcache.OpSeqRm}, {Kind: kvcache.OpSeqCp}})
	h.Shutdown()
	want := []int{1 + hdr, 1 + hdr + 1, 1 + hdr + 1 + 4096, 1 + 11*2, 1}
	if !slices.Equal(ep.charged, want) {
		t.Fatalf("charged %v, want %v", ep.charged, want)
	}
	for i, op := range []FrameOp{OpRun, OpRun, OpRun, OpKV, OpShutdown} {
		if got := FrameOpOf(c.Endpoint(1).Recv(0, comm.TagRun)); got != op {
			t.Fatalf("frame %d is op %d, want %d", i, got, op)
		}
	}
}
