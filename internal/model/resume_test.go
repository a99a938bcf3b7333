package model

import (
	"math"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// TestResumeBitsEqualUninterrupted: an evaluation suspended at layer
// boundaries and resumed — once at each boundary, or at every boundary
// in one evaluation — ends with the final token's logits, every stored
// K/V row and the cache metadata bit-identical to one EvalSeq, for a
// one-token step and a multi-token chunk.
func TestResumeBitsEqualUninterrupted(t *testing.T) {
	m := tinyModel(t, 31)
	L := m.Cfg.NLayers
	rng := tensor.NewRNG(32)
	toks := make([]token.Token, 29)
	for i := range toks {
		toks[i] = token.Token(token.NumSpecial + int(rng.Uint64()%256))
	}
	const prefix = 20
	for _, n := range []int{1, 9} {
		ref := NewRunner(m, 64)
		if _, err := ref.EvalSeq(toks[:prefix], 0, kvcache.Canonical); err != nil {
			t.Fatal(err)
		}
		lg, err := ref.EvalSeq(toks[prefix:prefix+n], prefix, kvcache.Canonical)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]float32(nil), lg.Row(lg.Rows-1)...)

		// at = -1 suspends at every boundary; at = l only after layer l.
		for at := -1; at < L-1; at++ {
			r := NewRunner(m, 64)
			if _, err := r.EvalSeq(toks[:prefix], 0, kvcache.Canonical); err != nil {
				t.Fatal(err)
			}
			if err := r.Start(toks[prefix:prefix+n], prefix, kvcache.Canonical); err != nil {
				t.Fatal(err)
			}
			probes := 0
			yield := func() bool {
				probes++
				return at < 0 || probes == at+1
			}
			var got tensor.Vec
			resumes := 0
			for done := false; !done; resumes++ {
				if resumes > L {
					t.Fatalf("n=%d at=%d: %d resumes without finishing", n, at, resumes)
				}
				got, done = r.Resume(yield)
			}
			wantResumes := 2
			if at < 0 {
				wantResumes = L // one layer per resume
			}
			if resumes != wantResumes || probes != L-1 {
				t.Fatalf("n=%d at=%d: %d resumes and %d probes, want %d and %d", n, at, resumes, probes, wantResumes, L-1)
			}
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("n=%d at=%d: logit %d = %v, uninterrupted %v", n, at, j, got[j], want[j])
				}
			}
			sameKV(t, "resumed", r, ref, prefix+n)
			canon := kvcache.TokenMeta{Pos: math.MaxInt32, Seqs: kvcache.NewSeqSet(kvcache.Canonical)}
			rSeq, refSeq := len(r.Cache.VisibleCells(nil, canon)), len(ref.Cache.VisibleCells(nil, canon))
			if r.Cache.Used() != ref.Cache.Used() || rSeq != refSeq {
				t.Fatalf("n=%d at=%d: %d cells used (seq %d), uninterrupted %d (seq %d)", n, at,
					r.Cache.Used(), rSeq, ref.Cache.Used(), refSeq)
			}
			if err := r.Cache.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDroppedEvaluationLeavesNoTrace: an evaluation suspended and then
// abandoned, its cells removed, leaves the runner as if it had never
// started — the next one, resumed or not, gives EvalSeq's bits.
func TestDroppedEvaluationLeavesNoTrace(t *testing.T) {
	m := tinyModel(t, 33)
	toks := []token.Token{token.NumSpecial + 4, token.NumSpecial + 9, token.NumSpecial + 2, token.NumSpecial + 7}
	r := NewRunner(m, 32)
	if _, err := r.EvalSeq(toks[:2], 0, kvcache.Canonical); err != nil {
		t.Fatal(err)
	}
	if err := r.Start([]token.Token{token.NumSpecial + 99}, 2, kvcache.Canonical); err != nil {
		t.Fatal(err)
	}
	if _, done := r.Resume(func() bool { return true }); done {
		t.Fatal("a yielding evaluation finished after one layer")
	}
	r.Drop()
	r.Cache.SeqRm(kvcache.Canonical, 2, math.MaxInt32)
	if err := r.Start(toks[2:], 2, kvcache.Canonical); err != nil {
		t.Fatal(err)
	}
	got, done := r.Resume(nil)
	if !done {
		t.Fatal("a Resume that never yields did not finish")
	}
	fresh := NewRunner(m, 32)
	want, err := fresh.EvalSeq(toks, 0, kvcache.Canonical)
	if err != nil {
		t.Fatal(err)
	}
	for j, w := range want.Row(want.Rows - 1) {
		if math.Float32bits(got[j]) != math.Float32bits(w) {
			t.Fatalf("logit %d = %v after a dropped evaluation, uninterrupted %v", j, got[j], w)
		}
	}
	sameKV(t, "after drop", r, fresh, len(toks))
}
