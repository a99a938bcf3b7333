package batch

import (
	"bytes"
	"slices"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// TestComposeInto checks composition of staged rows into a v3 run: row
// order, per-row session tags, distinct-session count and context
// collection.
func TestComposeInto(t *testing.T) {
	var c Composer
	ctxA := []token.Token{1, 2}
	ctxB := []token.Token{3}
	c.Stage(Row{Session: 2, Tok: 10, Pos: 5, Seqs: kvcache.NewSeqSet(2), Ctx: ctxA})
	c.Stage(Row{Session: 2, Tok: 11, Pos: 6, Seqs: kvcache.NewSeqSet(2), Ctx: ctxA})
	c.Stage(Row{Session: 7, Tok: 12, Pos: 1, Seqs: kvcache.NewSeqSet(7), Ctx: ctxB})
	if c.Sessions() != 2 || c.Rows() != 3 {
		t.Fatalf("staged %d sessions / %d rows", c.Sessions(), c.Rows())
	}
	msg := &engine.RunMsg{}
	ctxs := c.ComposeInto(msg, engine.KindSpec, nil, true)
	if !msg.Batched() || msg.Len() != 3 || msg.Kind != engine.KindSpec {
		t.Fatalf("composed %+v", msg)
	}
	if msg.RowSessions[0] != 2 || msg.RowSessions[2] != 7 || msg.Session != 2 {
		t.Fatalf("row sessions %v primary %d", msg.RowSessions, msg.Session)
	}
	if msg.Tokens[1].Tok != 11 || msg.Tokens[2].Pos != 1 {
		t.Fatalf("tokens %v", msg.Tokens)
	}
	if len(ctxs) != 3 || &ctxs[0][0] != &ctxA[0] || &ctxs[2][0] != &ctxB[0] {
		t.Fatalf("contexts not collected per row")
	}
	if c.Rows() != 0 || c.Sessions() != 0 {
		t.Fatal("composer not reset after compose")
	}
}

// TestComposeIntoRanges checks the range-extension composition rules: a
// batch with any ranged row (a prefill chunk) emits per-row ranges for
// every row, filling unranged decode rows with the degenerate (pos, 1)
// range, while a batch with no ranged rows emits no ranges at all — the
// pre-range wire format byte for byte.
func TestComposeIntoRanges(t *testing.T) {
	var c Composer
	// A 2-row intermediate chunk of session 3 (remaining range 10 from
	// position 4) plus session 1's decode row.
	rng := engine.RowRange{Pos: 4, Len: 10}
	c.Stage(Row{Session: 3, Tok: 20, Pos: 4, Seqs: kvcache.NewSeqSet(3), Range: rng})
	c.Stage(Row{Session: 3, Tok: 21, Pos: 5, Seqs: kvcache.NewSeqSet(3), Range: rng})
	c.Stage(Row{Session: 1, Tok: 30, Pos: 8, Seqs: kvcache.NewSeqSet(1)})
	msg := &engine.RunMsg{}
	c.ComposeInto(msg, engine.KindNonSpec, nil, false)
	if !msg.Ranged() || len(msg.RowRanges) != 3 {
		t.Fatalf("ranged composition: %+v", msg)
	}
	if msg.RowRanges[0] != rng || msg.RowRanges[1] != rng {
		t.Fatalf("chunk ranges %v", msg.RowRanges)
	}
	if msg.RowRanges[2] != (engine.RowRange{Pos: 8, Len: 1}) {
		t.Fatalf("decode row range %+v, want degenerate (8, 1)", msg.RowRanges[2])
	}
	if msg.SamplingRow(0) || msg.SamplingRow(1) || !msg.SamplingRow(2) {
		t.Fatal("sampling rows wrong for a mixed chunk+decode batch")
	}
	// A pure decode batch composed into the same (pooled) message must
	// drop the ranges again.
	c.Stage(Row{Session: 1, Tok: 31, Pos: 9, Seqs: kvcache.NewSeqSet(1)})
	c.Stage(Row{Session: 3, Tok: 22, Pos: 6, Seqs: kvcache.NewSeqSet(3)})
	c.ComposeInto(msg, engine.KindNonSpec, nil, false)
	if msg.Ranged() {
		t.Fatal("pure decode batch still carries ranges")
	}
	plain := &engine.RunMsg{
		Kind: engine.KindNonSpec, Session: 1,
		Tokens: []engine.TokenPlace{
			{Tok: 31, Pos: 9, Seqs: kvcache.NewSeqSet(1)},
			{Tok: 22, Pos: 6, Seqs: kvcache.NewSeqSet(3)},
		},
		RowSessions: []uint16{1, 3},
	}
	if !bytes.Equal(msg.Encode(), plain.Encode()) {
		t.Fatal("pure decode batch encoding differs from the pre-range format")
	}
}

// TestGroups checks the per-session group iteration both ways, on a
// tagged message and on the one-group reading of an untagged one.
func TestGroups(t *testing.T) {
	spans := func(msg *engine.RunMsg) (out [][3]int) {
		for lo, hi := range msg.Groups() {
			out = append(out, [3]int{int(msg.RowSession(lo)), lo, hi})
		}
		return out
	}
	msg := &engine.RunMsg{
		Tokens:      make([]engine.TokenPlace, 5),
		RowSessions: []uint16{3, 3, 1, 5, 5},
	}
	if got, want := spans(msg), [][3]int{{3, 0, 2}, {1, 2, 3}, {5, 3, 5}}; !slices.Equal(got, want) {
		t.Fatalf("groups %v, want %v", got, want)
	}
	lo, hi := msg.GroupOf(5)
	if lo != 3 || hi != 5 {
		t.Fatalf("GroupOf(5) = [%d,%d)", lo, hi)
	}
	lo, hi = msg.GroupOf(9)
	if lo != hi {
		t.Fatalf("GroupOf(absent) = [%d,%d)", lo, hi)
	}

	// Untagged: every row is Session's, one group.
	solo := &engine.RunMsg{Session: 6, Tokens: make([]engine.TokenPlace, 3)}
	if got, want := spans(solo), [][3]int{{6, 0, 3}}; !slices.Equal(got, want) {
		t.Fatalf("untagged groups %v, want %v", got, want)
	}
	if lo, hi := solo.GroupOf(6); lo != 0 || hi != 3 {
		t.Fatalf("untagged GroupOf(owner) = [%d,%d), want [0,3)", lo, hi)
	}
	if lo, hi := solo.GroupOf(2); lo != hi {
		t.Fatalf("untagged GroupOf(other) = [%d,%d), want empty", lo, hi)
	}
}

// TestComposeOneGroup pins where the wire format changes: one session's
// unranged group — a decode row, a speculative chain — composes to
// exactly the hand-built untagged message, byte for byte; a second
// session, or a range, makes it a tagged (and ranged) v3 run.
func TestComposeOneGroup(t *testing.T) {
	var c Composer
	canon, part := kvcache.NewSeqSet(8), kvcache.NewSeqSet(9)
	ctx := []token.Token{1, 2, 3}

	// A decode row.
	c.Stage(Row{Session: 2, Tok: 40, Pos: 17, Seqs: canon, Ctx: ctx})
	msg := &engine.RunMsg{ID: 7, Seq: 8}
	ctxs := c.ComposeInto(msg, engine.KindNonSpec, nil, true)
	want := &engine.RunMsg{ID: 7, Kind: engine.KindNonSpec, Seq: 8, Session: 2,
		Tokens: []engine.TokenPlace{{Tok: 40, Pos: 17, Seqs: canon}}}
	if msg.Batched() || msg.Ranged() || !bytes.Equal(msg.Encode(), want.Encode()) {
		t.Fatalf("one decode row composed to %+v", msg)
	}
	if len(ctxs) != 1 || &ctxs[0][0] != &ctx[0] {
		t.Fatal("the untagged run's context is not its row's")
	}

	// A 3-token speculative chain with its prefix-sharing ops, composed
	// into the same pooled message.
	for i := 0; i < 3; i++ {
		c.Stage(Row{Session: 2, Tok: token.Token(50 + i), Pos: int32(18 + i), Seqs: part})
	}
	msg.Seq = 9
	msg.KVOps = []kvcache.Op{{Kind: kvcache.OpSeqCp, Src: 8, Dst: 9, P0: 0, P1: 18}}
	c.ComposeInto(msg, engine.KindSpec, nil, false)
	want = &engine.RunMsg{ID: 7, Kind: engine.KindSpec, Seq: 9, Session: 2,
		Tokens: []engine.TokenPlace{
			{Tok: 50, Pos: 18, Seqs: part}, {Tok: 51, Pos: 19, Seqs: part}, {Tok: 52, Pos: 20, Seqs: part},
		},
		KVOps: msg.KVOps}
	if msg.Batched() || !bytes.Equal(msg.Encode(), want.Encode()) {
		t.Fatalf("one speculative chain composed to %+v", msg)
	}

	// Two groups: tagged.
	c.Stage(Row{Session: 2, Tok: 40, Pos: 17, Seqs: canon})
	c.Stage(Row{Session: 5, Tok: 41, Pos: 3, Seqs: kvcache.NewSeqSet(20)})
	c.ComposeInto(msg, engine.KindNonSpec, nil, false)
	if !msg.Batched() || msg.Ranged() || msg.RowSessions[0] != 2 || msg.RowSessions[1] != 5 {
		t.Fatalf("two groups composed to %+v", msg)
	}

	// One ranged group (a prefill chunk): tagged and ranged.
	rng := engine.RowRange{Pos: 0, Len: 2}
	c.Stage(Row{Session: 5, Tok: 60, Pos: 0, Seqs: canon, Range: rng})
	c.Stage(Row{Session: 5, Tok: 61, Pos: 1, Seqs: canon, Range: rng})
	c.ComposeInto(msg, engine.KindPrefill, nil, false)
	if !msg.Batched() || !msg.Ranged() || msg.Session != 5 || msg.SamplingRow(0) || !msg.SamplingRow(1) {
		t.Fatalf("one ranged group composed to %+v", msg)
	}
}

// TestResultFrameRoundTrip checks a composed multi-session run against the
// engine's result frame: with one session masked at the last stage, the
// frame round-trips, and the rows it carries — named by the run message
// and the mask, with no tags of their own — are the surviving rows in row
// order, each with its session, the payload passed through.
func TestResultFrameRoundTrip(t *testing.T) {
	var c Composer
	for i, s := range []uint16{8, 5, 1, 63} {
		c.Stage(Row{Session: s, Tok: token.Token(10 + i), Pos: int32(i), Seqs: kvcache.NewSeqSet(kvcache.SeqID(i))})
	}
	msg := &engine.RunMsg{}
	c.ComposeInto(msg, engine.KindNonSpec, nil, false)
	payload := []byte{0xaa, 0xbb, 0xcc}
	f, err := engine.ParseResult(engine.ResultPayload(engine.ResultFrame{ID: 3, OK: true, Dead: 1 << 5, Rows: payload}))
	if err != nil {
		t.Fatal(err)
	}
	var rows, sessions []int
	for i := range msg.Tokens {
		if msg.ResultRow(i, f.Dead) {
			rows = append(rows, i)
			sessions = append(sessions, int(msg.RowSession(i)))
		}
	}
	if msg.Len() != 4 || !slices.Equal(rows, []int{0, 2, 3}) || !slices.Equal(sessions, []int{8, 1, 63}) {
		t.Fatalf("frame of %d rows carries rows %v of sessions %v", msg.Len(), rows, sessions)
	}
	if !bytes.Equal(f.Rows, payload) {
		t.Fatalf("payload %x, want %x", f.Rows, payload)
	}
}
