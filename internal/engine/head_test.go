package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// nopHeadBackend drafts nothing and reads nothing out of results, whose
// rows it takes to be rowBytes each.
type nopHeadBackend struct{ rowBytes int }

func (nopHeadBackend) Propose([]token.Token, int) ([]token.Token, []float32, bool) {
	return nil, nil, true
}
func (nopHeadBackend) Results(*Run, uint64, []byte) Results { return nil }
func (nopHeadBackend) Ready() bool                          { return true }
func (b nopHeadBackend) RowBytes() int                      { return b.rowBytes }
func (nopHeadBackend) MemoryBytes() int64                   { return 0 }

// nopWorker is an inline stage that answers every run with zero-byte rows.
type nopWorker struct{}

func (nopWorker) Eval(*RunMsg, []byte, func() bool) ([]byte, int, bool) { return nil, 0, true }
func (nopWorker) Place(*RunMsg) error                                   { return nil }
func (nopWorker) ApplyKV([]kvcache.Op) error                            { return nil }
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
	h.Launch(&Run{Msg: solo})
	h.Launch(&Run{Msg: wide})
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
		if _, _, _, _, err := h.AwaitResult(); err != nil {
			t.Fatal(err)
		}
	}
	for s := uint16(0); s < 20; s++ {
		if got := h.SessionInflight(s); got != 0 {
			t.Fatalf("session %d: %d runs in flight after every result, want 0", s, got)
		}
	}
}

// TestCancelSession is the head's cancel rule as a table over {one group,
// three} x {spec, non-spec} x {cleanup, not} x {cancellation on, the
// ablation}: cancelling the sessions of one run in turn, each step pins
// the head-side marks (the run's session mask, Cancelled), RunsCancelled
// and RowCancels, and the exact entries a stage reads off its TagCancel
// stream — a skip mask, (id, 0), or nothing.
func TestCancelSession(t *testing.T) {
	type step struct {
		slot       uint16
		want       []uint64 // the entries' masks; each carries the run's ID
		cancelled  bool
		runs, rows int64
	}
	const skip3, skip0, skip1, skip2 = 1 << 3, 1 << 0, 1 << 1, 1 << 2
	// A one-group run is session 3's; a three-group run carries sessions
	// 0, 1 and 2, cancelled 1, 0, 2.
	solo := func(skip bool) []step {
		if skip {
			return []step{{3, []uint64{skip3}, true, 1, 0}}
		}
		return []step{{3, []uint64{0}, true, 1, 0}}
	}
	wide := func(skip bool) []step {
		if skip {
			return []step{{1, []uint64{skip1}, false, 0, 1}, {0, []uint64{skip0}, false, 0, 2}, {2, []uint64{skip2}, true, 1, 3}}
		}
		return []step{{1, nil, false, 0, 1}, {0, nil, false, 0, 2}, {2, []uint64{0}, true, 1, 3}}
	}
	for _, disable := range []bool{false, true} {
		for _, groups := range []int{1, 3} {
			for _, kind := range []RunKind{KindSpec, KindNonSpec} {
				for _, cleanup := range []bool{false, true} {
					name := fmt.Sprintf("groups=%d/%v/cleanup=%v/disable=%v", groups, kind, cleanup, disable)
					t.Run(name, func(t *testing.T) {
						cl := chancomm.New(2)
						h, err := NewHead(cl.Endpoint(0), Topology{Head: 0, Stages: []int{1}}, Config{DisableCancel: disable}, nopHeadBackend{}, nil)
						if err != nil {
							t.Fatal(err)
						}
						stage := cl.Endpoint(1)
						msg, steps := &RunMsg{Session: 3, Tokens: make([]TokenPlace, 2)}, solo(kind == KindSpec || cleanup)
						if groups > 1 {
							msg, steps = wideMsg(groups, 2), wide(kind == KindSpec || cleanup)
						}
						msg.Kind = kind
						run := &Run{Msg: msg}
						h.Launch(run)
						var masked uint64
						for _, st := range steps {
							h.CancelSession(st.slot, []*Run{run}, cleanup)
							masked |= 1 << st.slot
							var got []CancelSig
							for n := 0; stage.Iprobe(0, comm.TagCancel); n++ {
								if n > 0 {
									t.Fatalf("slot %d: one cancel sent more than one message", st.slot)
								}
								got = AppendDecodeCancel(nil, stage.Recv(0, comm.TagCancel))
							}
							var want []CancelSig
							for _, m := range st.want {
								if !disable {
									want = append(want, CancelSig{ID: run.Msg.ID, Sessions: m})
								}
							}
							if !slices.Equal(got, want) {
								t.Fatalf("slot %d: stage read %+v, want %+v", st.slot, got, want)
							}
							if run.Msg.DeadSessions != masked || run.Cancelled != st.cancelled {
								t.Fatalf("slot %d: head marks mask %#x cancelled %v, want %#x %v",
									st.slot, run.Msg.DeadSessions, run.Cancelled, masked, st.cancelled)
							}
							if s := h.Stats.Snapshot(); int64(s.RunsCancelled) != st.runs || int64(s.RowCancels) != st.rows {
								t.Fatalf("slot %d: runs/rows cancelled %d/%d, want %d/%d", st.slot, s.RunsCancelled, s.RowCancels, st.runs, st.rows)
							}
						}
						// Cancelling again changes nothing and sends nothing,
						// and the FIFO accounting never moved.
						h.CancelSession(steps[0].slot, []*Run{run}, cleanup)
						if stage.Iprobe(0, comm.TagCancel) || h.Stats.RunsCancelled.Load() != 1 {
							t.Fatal("a repeated cancel signalled or counted again")
						}
						if got := h.SessionInflight(steps[0].slot); got != 1 {
							t.Fatalf("cancellation changed the FIFO accounting: %d in flight, want 1", got)
						}
					})
				}
			}
		}
	}
}

// TestCancelSessionOneBroadcast pins that one call signals every run it
// cancels in one message, entries in run order — the single-request
// pipeline's sweep over its speculative and non-speculative runs alike.
func TestCancelSessionOneBroadcast(t *testing.T) {
	cl := chancomm.New(2)
	h, err := NewHead(cl.Endpoint(0), Topology{Head: 0, Stages: []int{1}}, Config{}, nopHeadBackend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Run{Msg: &RunMsg{Kind: KindSpec, Tokens: make([]TokenPlace, 2)}}
	nonSpec := &Run{Msg: &RunMsg{Kind: KindNonSpec, Tokens: make([]TokenPlace, 1)}}
	h.Launch(spec)
	h.Launch(nonSpec)
	h.CancelSession(0, []*Run{spec, nonSpec}, false)
	got := AppendDecodeCancel(nil, cl.Endpoint(1).Recv(0, comm.TagCancel))
	if want := []CancelSig{{ID: spec.Msg.ID, Sessions: 1}, {ID: nonSpec.Msg.ID}}; !slices.Equal(got, want) {
		t.Fatalf("entries %+v, want %+v", got, want)
	}
	if cl.Endpoint(1).Iprobe(0, comm.TagCancel) {
		t.Fatal("a second cancel message")
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
		run := &Run{Msg: wideMsg(3, 2)}
		h.Launch(run)
		h.CancelSession(1, []*Run{run}, false)
		f.ID, f.OK = run.Msg.ID, true
		cl.Endpoint(1).Send(0, comm.TagResult, ResultPayload(f), 0)
		_, _, ok, _, err := h.AwaitResult()
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

// TestAwaitResult is the head's one await as a table over two runs in
// flight to one remote stage, whose result frames the test sends by hand.
// Frames are named by their offset from the oldest run's ID: -1 is a
// failed run's late duplicate, 0 the awaited result, +1 the newer run's
// result overtaking a lost one. The oldest run's Deadline is the await's
// budget. A stale frame is dropped either way; a newer frame fails the
// oldest run under a budget — counted, marked, signalled to the stage in
// one broadcast, and consumed by the next await — and is an error
// without one; a budget that runs out on an empty mailbox fails the
// oldest run too.
func TestAwaitResult(t *testing.T) {
	cases := []struct {
		name   string
		budget time.Duration // the oldest run's; 0 is none
		frames []int
		failed bool
		err    string
	}{
		{"stale dropped, match consumed", 0, []int{-1, 0}, false, ""},
		{"stale dropped under a budget", time.Minute, []int{-1, 0}, false, ""},
		{"newer frame fails the oldest under a budget", time.Minute, []int{1}, true, ""},
		{"newer frame without a budget is an error", 0, []int{1}, false, "result lost"},
		{"budget expires on an empty mailbox", 20 * time.Millisecond, nil, true, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cl := chancomm.New(2)
			h, err := NewHead(cl.Endpoint(0), Topology{Head: 0, Stages: []int{1}}, Config{}, nopHeadBackend{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			stage := cl.Endpoint(1)
			oldest := &Run{Msg: wideMsg(2, 1)}
			newer := &Run{Msg: &RunMsg{Kind: KindNonSpec, Tokens: make([]TokenPlace, 1)}}
			h.Launch(oldest)
			h.Launch(newer)
			if c.budget > 0 {
				oldest.Deadline = h.EP.Now() + c.budget
			}
			for _, off := range c.frames {
				stage.Send(0, comm.TagResult, ResultPayload(ResultFrame{ID: oldest.Msg.ID + uint32(off), OK: true}), 0)
			}
			run, _, ok, failed, err := h.AwaitResult()
			cancels := 0
			for ; stage.Iprobe(0, comm.TagCancel); cancels++ {
				got := AppendDecodeCancel(nil, stage.Recv(0, comm.TagCancel))
				if want := []CancelSig{{ID: oldest.Msg.ID, Sessions: 0b11}}; !slices.Equal(got, want) {
					t.Fatalf("stage read %+v, want %+v", got, want)
				}
			}
			timeouts := h.Stats.RunTimeouts.Load()
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("err = %v, want one mentioning %q", err, c.err)
				}
				if timeouts != 0 || cancels != 0 || h.Inflight() != 2 {
					t.Fatalf("a failed await moved the head: %d timeouts, %d cancels, %d in flight", timeouts, cancels, h.Inflight())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			if c.failed {
				want = 1
			}
			if run != oldest || failed != c.failed || ok == c.failed {
				t.Fatalf("popped run %d ok=%v failed=%v, want run %d failed=%v", run.Msg.ID, ok, failed, oldest.Msg.ID, c.failed)
			}
			if timeouts != int64(want) || cancels != want || run.FailedLive != c.failed || run.Cancelled != c.failed {
				t.Fatalf("%d timeouts, %d cancel broadcasts, FailedLive %v, Cancelled %v; want %d, %d, %v, %v",
					timeouts, cancels, run.FailedLive, run.Cancelled, want, want, c.failed, c.failed)
			}
			if c.failed && len(c.frames) > 0 {
				// The frame that proved the loss is the next await's.
				if run, _, ok, failed, err := h.AwaitResult(); err != nil || run != newer || !ok || failed {
					t.Fatalf("next await: run %v ok=%v failed=%v err=%v, want the newer run's result", run == newer, ok, failed, err)
				}
			}
		})
	}
	t.Run("a single-node head's local results never fail", func(t *testing.T) {
		h := soloHead(t)
		run := &Run{Msg: &RunMsg{Kind: KindNonSpec, Tokens: make([]TokenPlace, 1)}}
		h.Launch(run)
		run.Deadline = 1 // long past
		got, _, ok, failed, err := h.AwaitResult()
		if err != nil || got != run || !ok || failed || h.Stats.RunTimeouts.Load() != 0 {
			t.Fatalf("local result: ok=%v failed=%v err=%v, %d timeouts", ok, failed, err, h.Stats.RunTimeouts.Load())
		}
	})
}
