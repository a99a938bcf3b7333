package engine

import (
	"sync"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/transact"
)

// mockWorker scripts stage behaviour and records everything it sees.
type mockWorker struct {
	mu        sync.Mutex
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

func (m *mockWorker) ApplyKV(ops []kvcache.Op) {
	m.mu.Lock()
	m.kvBatches = append(m.kvBatches, ops)
	m.mu.Unlock()
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

func sendDecode(ep comm.Endpoint, dst int, msg *RunMsg) {
	transact.Begin(ep, dst, transact.TypeDecode)
	enc := msg.Encode()
	ep.Send(dst, comm.TagRun, enc, len(enc))
}

func sendShutdown(ep comm.Endpoint, dst int) {
	transact.Begin(ep, dst, transact.TypeShutdown)
}

func TestWorkerLoopEvaluatesAndReturnsResult(t *testing.T) {
	w := newMockWorker()
	ep, done, _ := pipeline2(t, w)

	msg := &RunMsg{ID: 1, Kind: KindNonSpec, Tokens: []TokenPlace{{Tok: 5, Pos: 0, Seqs: 1}}}
	sendDecode(ep, 1, msg)
	payload := ep.Recv(1, comm.TagResult)
	data, ok := PayloadData(payload)
	if !ok || data[0] != 1 {
		t.Fatalf("result payload wrong: %v ok=%v", data, ok)
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

	// Cancel run 1 before it arrives: the worker must skip evaluation and
	// return the empty payload.
	ep.Send(1, comm.TagCancel, EncodeCancel([]uint32{1}), 0)
	// Give the cancel a chance to be queued first (same-destination
	// streams are independent, so force ordering via a second message
	// after confirming the first landed is unnecessary: the worker drains
	// cancels before deciding).
	msg := &RunMsg{ID: 1, Kind: KindSpec, Seq: 2, Tokens: []TokenPlace{{Tok: 5, Pos: 0, Seqs: 4}}}
	sendDecode(ep, 1, msg)
	payload := ep.Recv(1, comm.TagResult)
	if _, ok := PayloadData(payload); ok {
		// Timing-dependent: the cancel may have raced the decode. Accept
		// either, but if data came back the eval must have completed.
		if len(w.evals) != 1 {
			t.Fatal("data result without evaluation")
		}
	}
	sendShutdown(ep, 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestWorkerLoopNonSpecNeverSkipped(t *testing.T) {
	w := newMockWorker()
	ep, done, _ := pipeline2(t, w)

	ep.Send(1, comm.TagCancel, EncodeCancel([]uint32{7}), 0)
	msg := &RunMsg{ID: 7, Kind: KindNonSpec, Tokens: []TokenPlace{{Tok: 5, Pos: 0, Seqs: 1}}}
	sendDecode(ep, 1, msg)
	payload := ep.Recv(1, comm.TagResult)
	// Non-speculative runs are always evaluated (§IV-D.3); the result may
	// be the empty marker (sampling skipped) but the eval must happen.
	_ = payload
	sendShutdown(ep, 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(w.evals) != 1 {
		t.Fatalf("non-spec run was skipped: evals=%v", w.evals)
	}
}

func TestWorkerLoopKVTransactionOrdering(t *testing.T) {
	w := newMockWorker()
	ep, done, _ := pipeline2(t, w)

	// KV txn, then decode, then KV txn: ApplyKV calls must interleave in
	// exactly that order (run messages carry their own ops batch too).
	ops1 := []kvcache.Op{{Kind: kvcache.OpSeqCp, Src: 0, Dst: 1, P0: 0, P1: 5}}
	transact.Begin(ep, 1, transact.TypeKV)
	enc := kvcache.EncodeOps(ops1)
	ep.Send(1, comm.TagRun, enc, len(enc))

	msg := &RunMsg{ID: 1, Kind: KindNonSpec,
		Tokens: []TokenPlace{{Tok: 5, Pos: 0, Seqs: 1}},
		KVOps:  []kvcache.Op{{Kind: kvcache.OpSeqRm, Src: 3, P0: 0, P1: 9}}}
	sendDecode(ep, 1, msg)

	ops3 := []kvcache.Op{{Kind: kvcache.OpSeqKeep, Src: 0}}
	transact.Begin(ep, 1, transact.TypeKV)
	enc3 := kvcache.EncodeOps(ops3)
	ep.Send(1, comm.TagRun, enc3, len(enc3))

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
		w.kvBatches[2][0].Kind != kvcache.OpSeqKeep {
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
	payload := ep.Recv(2, comm.TagResult) // final stage delivers to head
	data, ok := PayloadData(payload)
	if !ok {
		t.Fatal("no result data")
	}
	// Stage 2 prepends its run ID to stage 1's output (which itself
	// prepended to nil input... stage1 is first: input nil).
	if data[0] != 1 {
		t.Fatalf("relay payload wrong: %v", data)
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
	transact.Begin(ep1, 2, transact.TypeDecode)
	enc := msg.Encode()
	ep1.Send(2, comm.TagRun, enc, len(enc))
	ep1.Send(2, comm.TagActivation, EmptyPayload(), 1)

	headEP := c.Endpoint(0)
	payload := headEP.Recv(2, comm.TagResult)
	if _, ok := PayloadData(payload); ok {
		t.Fatal("empty input produced a data result")
	}
	if len(w2.evals) != 0 {
		t.Fatal("stage evaluated a cancelled run's empty input")
	}
	transact.Begin(ep1, 2, transact.TypeShutdown)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
