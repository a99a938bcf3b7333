package core

import (
	"math"
	"slices"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// The chain needs no pipeline: a scripted drafter and a scripted target
// are the whole world.

// drafter proposes the token one past the context's last, at confidence
// conf[len(ctx)] (default 1), and counts how often it was asked.
type drafter struct {
	conf  map[int]float32
	calls int
}

func (d *drafter) Propose(ctx []token.Token, _ int) ([]token.Token, []float32) {
	d.calls++
	p, ok := d.conf[len(ctx)]
	if !ok {
		p = 1
	}
	return []token.Token{ctx[len(ctx)-1] + 1}, []float32{p}
}
func (*drafter) Results(*engine.RunMsg, []token.Token, []byte) engine.Results { return nil }
func (*drafter) MemoryBytes() int64                                           { return 0 }

// target is a result payload: the target model's choice after each row.
type target []token.Token

func (r target) Next(i int) token.Token { return r[i] }

// row group [base, base+len(toks)) in partition seq.
func group(base int, seq kvcache.SeqID, toks ...token.Token) []engine.TokenPlace {
	out := make([]engine.TokenPlace, len(toks))
	for i, t := range toks {
		out[i] = engine.TokenPlace{Tok: t, Pos: int32(base + i), Seqs: kvcache.NewSeqSet(seq)}
	}
	return out
}

func promote(src kvcache.SeqID, pos int32) kvcache.Op {
	return kvcache.Op{Kind: kvcache.OpSeqCp, Src: src, Dst: 0, P0: pos, P1: pos + 1}
}

var testCfg = engine.Config{MicroBatch: 2, SpecCutoff: 0.30, CutoffRecovery: 0.05, CutoffDecay: 0.05}

// chainAt is a chain that has accepted 10,11,12 and has 13,14 pending in
// partition 1 (run 7) and 15 in partition 2 (run 8).
func chainAt() *Chain {
	return &Chain{
		Accepted: []token.Token{10, 11, 12},
		Pending:  []Pending{{13, 1, 7}, {14, 1, 7}, {15, 2, 8}},
		Cutoff:   0.5,
	}
}

func TestVerify(t *testing.T) {
	cases := []struct {
		name    string
		toks    []engine.TokenPlace // the row group consumed
		res     target
		lo      int
		limit   int
		out     Outcome
		accept  []token.Token // appended to Accepted
		ops     []kvcache.Op  // promotions
		pending int           // chain length left
		cutoff  float32
	}{
		{
			// The non-speculative run of token 12 confirms 13; the rest of
			// the chain stays pending on its own runs.
			name: "one row confirms the head of the chain",
			toks: group(2, 0, 12), res: target{13}, limit: math.MaxInt,
			out: Exhausted, accept: []token.Token{13}, ops: []kvcache.Op{promote(1, 3)},
			pending: 2, cutoff: 0.30,
		},
		{
			// Each promotion copies out of the partition that token was
			// drafted into.
			name: "full acceptance across two partitions",
			toks: group(2, 0, 12, 13, 14), res: target{13, 14, 15}, limit: math.MaxInt,
			out: Exhausted, accept: []token.Token{13, 14, 15},
			ops:     []kvcache.Op{promote(1, 3), promote(1, 4), promote(2, 5)},
			pending: 0, cutoff: 0.30,
		},
		{
			name: "rejection at the second draft token",
			toks: group(2, 0, 12, 13, 14), res: target{13, 99, 15}, limit: math.MaxInt,
			out: Rejected, accept: []token.Token{13, 99}, ops: []kvcache.Op{promote(1, 3)},
			pending: 2, // 14 and 15: stale, left for the driver to cancel
			cutoff:  0.30,
		},
		{
			name: "rejection at once keeps the cutoff",
			toks: group(2, 0, 12), res: target{99}, limit: math.MaxInt,
			out: Rejected, accept: []token.Token{99}, pending: 3, cutoff: 0.5,
		},
		{
			name: "bonus token past the chain's end",
			toks: group(2, 0, 12, 13, 14, 15), res: target{13, 14, 15, 16}, limit: math.MaxInt,
			out: Bonus, accept: []token.Token{13, 14, 15, 16},
			ops:     []kvcache.Op{promote(1, 3), promote(1, 4), promote(2, 5)},
			pending: 0, cutoff: 0.30,
		},
		{
			name: "acceptance limit stops the walk",
			toks: group(2, 0, 12, 13, 14), res: target{13, 14, 15}, limit: 5,
			out: Exhausted, accept: []token.Token{13, 14},
			ops:     []kvcache.Op{promote(1, 3), promote(1, 4)},
			pending: 1, cutoff: 0.30,
		},
		{
			// Rows [lo, lo+len) of a shared run's result, and a group that
			// starts before the accepted end: row 0 (token 11) predicts 12,
			// already accepted, and is skipped.
			name: "group offset in a shared result",
			toks: group(1, 0, 11, 12), res: target{-1, -1, -1, 12, 13}, lo: 3, limit: math.MaxInt,
			out: Exhausted, accept: []token.Token{13}, ops: []kvcache.Op{promote(1, 3)},
			pending: 2, cutoff: 0.30,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := chainAt()
			if c.Stale(tc.toks) || !c.Valid(tc.toks) {
				t.Fatal("a live group reads as stale or invalid")
			}
			ops, out, err := c.Verify(&testCfg, tc.toks, tc.res, tc.lo, tc.limit, nil)
			if err != nil {
				t.Fatal(err)
			}
			if out != tc.out || !slices.Equal(c.Accepted[3:], tc.accept) || !slices.Equal(ops, tc.ops) ||
				len(c.Pending) != tc.pending || c.Cutoff != tc.cutoff {
				t.Fatalf("outcome %d accepted %v ops %v pending %d cutoff %v\nwant    %d accepted %v ops %v pending %d cutoff %v",
					out, c.Accepted[3:], ops, len(c.Pending), c.Cutoff,
					tc.out, tc.accept, tc.ops, tc.pending, tc.cutoff)
			}
		})
	}

	// A group that starts past the accepted end skipped a result.
	if _, _, err := chainAt().Verify(&testCfg, group(3, 1, 13), target{14}, 0, math.MaxInt, nil); err == nil {
		t.Fatal("a result gap went unreported")
	}
}

func TestStaleAndValid(t *testing.T) {
	cases := []struct {
		name         string
		toks         []engine.TokenPlace
		stale, valid bool
	}{
		{"predicts the next position", group(2, 0, 12), false, true},
		{"every output already accepted", group(0, 0, 10, 11), true, true},
		{"last output is the next position", group(0, 0, 10, 11, 12), false, true},
		{"rides the pending chain", group(3, 1, 13, 14), false, true},
		{"accepted token rewritten under it", group(1, 0, 77, 12), false, false},
		{"pending token rewritten under it", group(3, 1, 13, 77), false, false},
		{"past the frontier", group(6, 3, 16), false, false},
	}
	for _, tc := range cases {
		c := chainAt()
		if got := c.Stale(tc.toks); got != tc.stale {
			t.Errorf("%s: stale %v, want %v", tc.name, got, tc.stale)
		}
		if got := c.Valid(tc.toks); got != tc.valid {
			t.Errorf("%s: valid %v, want %v", tc.name, got, tc.valid)
		}
	}
	// After a rejection the driver cancels what carried the chain, then
	// drops it: run 7's rows are invalid from then on.
	c := chainAt()
	if !c.Carried(7) || !c.Carried(8) || c.Carried(9) {
		t.Fatal("Carried disagrees with the pending chain")
	}
	c.Drop()
	if len(c.Pending) != 0 || c.Valid(group(3, 1, 13, 14)) {
		t.Fatal("a dropped chain still validates the runs that carried it")
	}
}

func TestDraft(t *testing.T) {
	cfg := testCfg
	var scratch []token.Token

	// Micro-batch deep, appended to out, chain untouched until Launched.
	c, d := chainAt(), &drafter{}
	out := c.Draft(d, &cfg, false, math.MaxInt, &scratch, []token.Token{1})
	if !slices.Equal(out, []token.Token{1, 16, 17}) || len(c.Pending) != 3 || c.Cutoff != 0.5 {
		t.Fatalf("drafted %v, pending %d, cutoff %v", out, len(c.Pending), c.Cutoff)
	}
	c.Launched(&cfg, out[1:], 3, 9)
	if len(c.Pending) != 5 || c.Pending[4] != (Pending{17, 3, 9}) || c.Cutoff != 0.55 {
		t.Fatalf("launched: pending %v cutoff %v", c.Pending, c.Cutoff)
	}

	// The first candidate under the cutoff ends the draft; none at all is
	// a stall and decays the cutoff.
	c, d = chainAt(), &drafter{conf: map[int]float32{7: 0.4}}
	if out = c.Draft(d, &cfg, false, math.MaxInt, &scratch, nil); !slices.Equal(out, []token.Token{16}) || c.Cutoff != 0.5 {
		t.Fatalf("drafted %v past a low-confidence candidate, cutoff %v", out, c.Cutoff)
	}
	c, d = chainAt(), &drafter{conf: map[int]float32{6: 0.4}}
	if out = c.Draft(d, &cfg, false, math.MaxInt, &scratch, nil); len(out) != 0 || c.Cutoff != 0.45 {
		t.Fatalf("stall drafted %v, cutoff %v", out, c.Cutoff)
	}

	// Frontier limit: no draft, no Propose, no decay.
	c, d = chainAt(), &drafter{}
	if out = c.Draft(d, &cfg, false, 6, &scratch, nil); len(out) != 0 || d.calls != 0 || c.Cutoff != 0.5 {
		t.Fatalf("drafted %v at the frontier limit (%d proposals, cutoff %v)", out, d.calls, c.Cutoff)
	}
	if out = c.Draft(d, &cfg, false, 7, &scratch, nil); len(out) != 2 {
		t.Fatalf("drafted %v one short of the frontier limit", out)
	}

	// Clamps: decay stops at 0.02, recovery at 0.95.
	c, d = &Chain{Accepted: []token.Token{10}, Cutoff: 0.04}, &drafter{conf: map[int]float32{1: 0}}
	c.Draft(d, &cfg, false, math.MaxInt, &scratch, nil)
	if c.Cutoff != 0.02 {
		t.Fatalf("cutoff decayed to %v", c.Cutoff)
	}
	c.Cutoff = 0.93
	c.Launched(&cfg, []token.Token{11}, 1, 1)
	if c.Cutoff != 0.95 {
		t.Fatalf("cutoff recovered to %v", c.Cutoff)
	}
}

// TestDraftOneBatchAtATime is the Fig 8 ablation's gate: nothing pending
// and no speculative run in flight, then one batch of four micro-batches.
func TestDraftOneBatchAtATime(t *testing.T) {
	cfg := testCfg
	cfg.DisableContinuous = true
	var scratch []token.Token
	for _, tc := range []struct {
		name         string
		pending      bool
		specInflight bool
		drafted      int
	}{
		{"idle", false, false, 8},
		{"chain pending", true, false, 0},
		{"verified run still in flight", false, true, 0},
	} {
		c, d := chainAt(), &drafter{}
		if !tc.pending {
			c.Drop()
		}
		out := c.Draft(d, &cfg, tc.specInflight, math.MaxInt, &scratch, nil)
		if len(out) != tc.drafted || d.calls != tc.drafted || c.Cutoff != 0.5 {
			t.Errorf("%s: drafted %d in %d proposals, cutoff %v; want %d", tc.name, len(out), d.calls, c.Cutoff, tc.drafted)
		}
	}
}

func TestShareOps(t *testing.T) {
	c := chainAt()
	c.Canon = 4
	ops := c.ShareOps([]kvcache.Op{{Kind: kvcache.OpSeqRm}}, 7)
	want := []kvcache.Op{
		{Kind: kvcache.OpSeqRm},
		{Kind: kvcache.OpSeqCp, Src: 4, Dst: 7, P0: 0, P1: 3}, // canonical prefix
		{Kind: kvcache.OpSeqCp, Src: 1, Dst: 7, P0: 3, P1: 5}, // 13,14 in partition 1
		{Kind: kvcache.OpSeqCp, Src: 2, Dst: 7, P0: 5, P1: 6}, // 15 in partition 2
	}
	if !slices.Equal(ops, want) {
		t.Fatalf("share ops %v\nwant      %v", ops, want)
	}
	if got := c.Frontier(nil); !slices.Equal(got, []token.Token{10, 11, 12, 13, 14, 15}) {
		t.Fatalf("frontier %v", got)
	}
}
