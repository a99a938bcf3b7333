package engine

import (
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

type nopHeadBackend struct{}

func (nopHeadBackend) Propose([]token.Token, int) ([]token.Token, []float32) { return nil, nil }
func (nopHeadBackend) Results(*RunMsg, []token.Token, []byte) Results        { return nil }
func (nopHeadBackend) MemoryBytes() int64                                    { return 0 }

// soloHead builds a single-node head whose inline stage is the whole
// pipeline, so launches complete locally and results pop in FIFO order.
func soloHead(t *testing.T) *Head {
	t.Helper()
	h, err := NewHead(chancomm.New(1).Endpoint(0), Topology{Head: 0, Stages: []int{0}},
		Config{}, nopHeadBackend{}, newMockWorker())
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
