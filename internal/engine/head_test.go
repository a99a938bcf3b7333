package engine

import (
	"strings"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// nopHeadBackend drafts nothing and reads nothing out of results, whose
// rows it takes to be rowBytes each.
type nopHeadBackend struct{ rowBytes int }

func (nopHeadBackend) Propose([]token.Token, int) ([]token.Token, []float32) { return nil, nil }
func (nopHeadBackend) Results(*Run, uint64, []byte) Results                  { return nil }
func (b nopHeadBackend) RowBytes() int                                       { return b.rowBytes }
func (nopHeadBackend) MemoryBytes() int64                                    { return 0 }

// nopWorker is an inline stage that answers every run with zero-byte rows.
type nopWorker struct{}

func (nopWorker) Eval(*RunMsg, []byte, func() bool) ([]byte, int, bool) { return nil, 0, true }
func (nopWorker) ApplyKV([]kvcache.Op)                                  {}
func (nopWorker) MemoryBytes() int64                                    { return 0 }

// soloHead builds a single-node head whose inline stage is the whole
// pipeline, so launches complete locally and results pop in FIFO order.
func soloHead(t *testing.T) *Head {
	t.Helper()
	h, err := NewHead(chancomm.New(1).Endpoint(0), Topology{Head: 0, Stages: []int{0}},
		Config{}, nopHeadBackend{}, nopWorker{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// wideMsg builds a tagged run of groups sessions, rowsPer rows each.
func wideMsg(groups, rowsPer int) *RunMsg {
	msg := &RunMsg{Kind: KindNonSpec}
	for s := 0; s < groups; s++ {
		for r := 0; r < rowsPer; r++ {
			msg.Tokens = append(msg.Tokens, TokenPlace{Pos: int32(r)})
			msg.RowSessions = append(msg.RowSessions, uint16(s))
		}
	}
	return msg
}

// TestSessionInflightByGroups pins the per-session in-flight accounting
// on both message shapes: an untagged run credits its one session, a
// tagged run each row group's session exactly once — here 64 rows in 16
// groups — at launch, and debits the same at result.
func TestSessionInflightByGroups(t *testing.T) {
	h := soloHead(t)
	solo := &RunMsg{Kind: KindNonSpec, Session: 3, Tokens: make([]TokenPlace, 2)}
	wide := wideMsg(16, 4)
	if got := DistinctSessions(solo); got != 1 {
		t.Fatalf("untagged run fans out to %d sessions, want 1", got)
	}
	if got := DistinctSessions(wide); got != 16 {
		t.Fatalf("64-row / 16-group run fans out to %d sessions, want 16", got)
	}
	h.Launch(solo, nil, nil)
	h.Launch(wide, nil, nil)
	for s := uint16(0); s < 20; s++ {
		want := 0
		if s < 16 {
			want = 1
		}
		if s == 3 {
			want = 2
		}
		if got := h.SessionInflight(s); got != want {
			t.Fatalf("session %d: %d runs in flight, want %d", s, got, want)
		}
	}
	if st := h.Stats.Snapshot(); st.BatchedRuns != 1 || st.BatchedRows != 16 {
		t.Fatalf("batched runs/rows %d/%d, want 1/16", st.BatchedRuns, st.BatchedRows)
	}
	for h.Inflight() > 0 {
		if _, _, _, err := h.AwaitResult(); err != nil {
			t.Fatal(err)
		}
	}
	for s := uint16(0); s < 20; s++ {
		if got := h.SessionInflight(s); got != 0 {
			t.Fatalf("session %d: %d runs in flight after every result, want 0", s, got)
		}
	}
}

// TestCancelSession checks the one per-session cancel: a run that is the
// session's alone is cancelled whole, a shared run loses just the
// session's rows, and neither touches the FIFO accounting.
func TestCancelSession(t *testing.T) {
	h := soloHead(t)
	solo := h.Launch(&RunMsg{Kind: KindSpec, Session: 3, Tokens: make([]TokenPlace, 2)}, nil, nil)
	wide := h.Launch(wideMsg(16, 4), nil, nil)
	h.CancelSession(3, []*Run{solo, wide}, true)
	if !solo.Cancelled {
		t.Fatal("the session's own run was not cancelled whole")
	}
	if wide.Cancelled {
		t.Fatal("a shared run was cancelled whole for one session")
	}
	for i := range wide.Msg.Tokens {
		if dead, want := wide.Msg.RowDead(i), wide.Msg.RowSessions[i] == 3; dead != want {
			t.Fatalf("row %d (session %d) dead=%v", i, wide.Msg.RowSessions[i], dead)
		}
	}
	if st := h.Stats.Snapshot(); st.RunsCancelled != 1 || st.RowCancels != 1 {
		t.Fatalf("runs/rows cancelled %d/%d, want 1/1", st.RunsCancelled, st.RowCancels)
	}
	if got := h.SessionInflight(3); got != 2 {
		t.Fatalf("cancellation changed the FIFO accounting: %d in flight, want 2", got)
	}
}

// TestHeadChecksResultFrame pins the two checks the head makes on a result
// frame before any backend reads it: the last stage can only have masked
// sessions the head masked itself (the head sends every mask), and the
// frame carries exactly the rows that mask leaves. Posing as the last
// stage, the test answers a three-session run — two rows each, session 1
// masked by the head without a signal — with frames of either kind.
func TestHeadChecksResultFrame(t *testing.T) {
	const rowBytes = 4
	cl := chancomm.New(2)
	h, err := NewHead(cl.Endpoint(0), Topology{Head: 0, Stages: []int{1}}, Config{}, nopHeadBackend{rowBytes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(f ResultFrame) error {
		run := h.Launch(wideMsg(3, 2), nil, nil)
		h.CancelRows(run, 1, false)
		f.ID, f.OK = run.Msg.ID, true
		cl.Endpoint(1).Send(0, comm.TagResult, ResultPayload(f), 0)
		_, _, ok, err := h.AwaitResult()
		if ok != (err == nil) {
			t.Fatalf("ok=%v with err=%v", ok, err)
		}
		return err
	}
	rows := func(n int) []byte { return make([]byte, n*rowBytes) }
	// A stage that never heard of the mask ships all six rows; one that
	// did ships the four of sessions 0 and 2.
	for _, f := range []ResultFrame{{Rows: rows(6)}, {Dead: 1 << 1, Rows: rows(4)}} {
		if err := answer(f); err != nil {
			t.Fatalf("mask %#x, %d bytes: %v", f.Dead, len(f.Rows), err)
		}
	}
	// Session 2 was never masked at the head.
	if err := answer(ResultFrame{Dead: 1<<1 | 1<<2, Rows: rows(2)}); err == nil || !strings.Contains(err.Error(), "never masked") {
		t.Fatalf("a frame masking a session the head never masked: %v", err)
	}
	// Lengths that disagree with the row set the mask leaves.
	for _, f := range []ResultFrame{
		{Rows: rows(4)},
		{Dead: 1 << 1, Rows: rows(6)},
		{Dead: 1 << 1, Rows: rows(4)[:15]},
	} {
		if err := answer(f); err == nil || !strings.Contains(err.Error(), "carries") {
			t.Fatalf("mask %#x with %d bytes accepted: %v", f.Dead, len(f.Rows), err)
		}
	}
	if h.Inflight() != 0 {
		t.Fatalf("%d runs left in flight", h.Inflight())
	}
}
