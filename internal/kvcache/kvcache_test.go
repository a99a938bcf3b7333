package kvcache

import (
	"math/bits"
	"testing"
	"testing/quick"

	"github.com/pipeinfer/pipeinfer/internal/tensor"
)

func TestSeqSetBasics(t *testing.T) {
	s := NewSeqSet(0, 3, 5)
	if !s.Has(0) || !s.Has(3) || !s.Has(5) || s.Has(1) {
		t.Fatal("membership wrong")
	}
	if n := bits.OnesCount64(uint64(s)); n != 3 {
		t.Fatalf("%d members, want 3", n)
	}
	s = s.Remove(3)
	if s.Has(3) || bits.OnesCount64(uint64(s)) != 2 {
		t.Fatal("Remove failed")
	}
	if !s.Intersects(NewSeqSet(5, 9)) {
		t.Fatal("Intersects false negative")
	}
	if s.Intersects(NewSeqSet(1, 2)) {
		t.Fatal("Intersects false positive")
	}
	if m := NewSeqSet(7, 2).Min(); m != 2 {
		t.Fatalf("Min = %d", m)
	}
}

func TestOccupyAndFindSlots(t *testing.T) {
	c := New(4)
	slots, err := c.FindSlots(2)
	if err != nil {
		t.Fatal(err)
	}
	c.Occupy(slots[0], 0, NewSeqSet(0))
	c.Occupy(slots[1], 1, NewSeqSet(0))
	if c.Used() != 2 {
		t.Fatalf("Used = %d", c.Used())
	}
	if _, err := c.FindSlots(3); err == nil {
		t.Fatal("expected slot exhaustion error")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOccupyPanicsOnReuse(t *testing.T) {
	c := New(2)
	c.Occupy(0, 0, NewSeqSet(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double occupy")
		}
	}()
	c.Occupy(0, 1, NewSeqSet(1))
}

func fillSeq(c *Cache, seq SeqID, positions ...int32) {
	for _, p := range positions {
		slots, err := c.FindSlots(1)
		if err != nil {
			panic(err)
		}
		c.Occupy(slots[0], p, NewSeqSet(seq))
	}
}

func TestSeqCpSharesWithoutDuplicating(t *testing.T) {
	c := New(8)
	fillSeq(c, Canonical, 0, 1, 2, 3)
	n := c.SeqCp(Canonical, 2, 0, 3)
	if n != 3 {
		t.Fatalf("SeqCp affected %d cells, want 3", n)
	}
	if c.Used() != 4 {
		t.Fatalf("SeqCp should not allocate new cells: used=%d", c.Used())
	}
	if c.SeqLen(2) != 3 {
		t.Fatalf("seq 2 has %d cells, want 3", c.SeqLen(2))
	}
	// Re-copying is idempotent.
	if n := c.SeqCp(Canonical, 2, 0, 3); n != 0 {
		t.Fatalf("second SeqCp affected %d cells, want 0", n)
	}
}

func TestSeqRmFreesOnlyExclusiveCells(t *testing.T) {
	c := New(8)
	fillSeq(c, Canonical, 0, 1, 2)
	c.SeqCp(Canonical, 1, 0, 2) // positions 0,1 shared with seq 1
	fillSeq(c, 1, 2)            // seq 1's own token at pos 2

	freed := c.SeqRm(1, 0, 10)
	if freed != 1 {
		t.Fatalf("freed %d cells, want 1 (only seq 1's private cell)", freed)
	}
	if c.SeqLen(Canonical) != 3 {
		t.Fatal("SeqRm damaged the canonical sequence")
	}
	if c.SeqLen(1) != 0 {
		t.Fatal("seq 1 should be empty")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSeqRmRange(t *testing.T) {
	c := New(8)
	fillSeq(c, 3, 0, 1, 2, 3, 4)
	c.SeqRm(3, 2, 4) // remove positions 2,3
	if c.SeqLen(3) != 3 {
		t.Fatalf("seq 3 has %d cells, want 3", c.SeqLen(3))
	}
	if c.SeqMaxPos(3) != 4 {
		t.Fatalf("max pos = %d, want 4", c.SeqMaxPos(3))
	}
}

func TestVisibilityCausalAndSequenceScoped(t *testing.T) {
	c := New(8)
	fillSeq(c, Canonical, 0, 1, 2)
	c.SeqCp(Canonical, 1, 0, 3)
	fillSeq(c, 1, 3) // speculative token in seq 1
	fillSeq(c, 2, 3) // different speculation in seq 2

	// A seq-1 query at pos 4 sees canonical prefix + its own pos-3 cell,
	// but not seq 2's pos-3 cell.
	q := TokenMeta{Pos: 4, Seqs: NewSeqSet(1)}
	vis := c.VisibleCells(nil, q)
	if len(vis) != 4 {
		t.Fatalf("visible cells = %d, want 4", len(vis))
	}
	for _, i := range vis {
		if c.Cell(i).Seqs.Has(2) && !c.Cell(i).Seqs.Has(1) {
			t.Fatal("query leaked into another run's partition")
		}
	}

	// Causality: a query at pos 1 must not see pos 2+.
	q = TokenMeta{Pos: 1, Seqs: NewSeqSet(1)}
	for _, i := range c.VisibleCells(nil, q) {
		if c.Cell(i).Pos > 1 {
			t.Fatal("future cell visible")
		}
	}
}

func TestBuildMaskMutualExclusion(t *testing.T) {
	// Two speculative runs sharing a canonical prefix must have disjoint
	// visibility beyond the prefix — the paper's correctness requirement
	// for simultaneous runs.
	c := New(16)
	fillSeq(c, Canonical, 0, 1)
	c.SeqCp(Canonical, 1, 0, 2)
	c.SeqCp(Canonical, 2, 0, 2)
	fillSeq(c, 1, 2, 3)
	fillSeq(c, 2, 2, 3)

	seen := map[int]bool{}
	for _, i := range c.VisibleCells(nil, TokenMeta{Pos: 4, Seqs: NewSeqSet(1)}) {
		seen[i] = true
	}
	both := 0
	for _, i := range c.VisibleCells(nil, TokenMeta{Pos: 4, Seqs: NewSeqSet(2)}) {
		if !seen[i] {
			continue
		}
		if !c.Cell(i).Seqs.Has(Canonical) {
			t.Fatalf("cell %d visible to both runs", i)
		}
		both++
	}
	if both != 2 {
		t.Fatalf("runs share %d cells, want the 2 of the canonical prefix", both)
	}
}

func TestSeqMaxPosEmpty(t *testing.T) {
	c := New(4)
	if c.SeqMaxPos(5) != -1 {
		t.Fatal("SeqMaxPos of empty seq should be -1")
	}
}

func TestClear(t *testing.T) {
	c := New(4)
	fillSeq(c, Canonical, 0, 1, 2)
	c.Clear()
	if c.Used() != 0 {
		t.Fatal("Clear left cells used")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomOpSequenceInvariants drives the cache with random operations
// and verifies the structural invariants hold throughout.
func TestRandomOpSequenceInvariants(t *testing.T) {
	f := func(seed uint16) bool {
		rng := tensor.NewRNG(uint64(seed))
		c := New(32)
		nextPos := int32(0)
		for step := 0; step < 200; step++ {
			switch rng.Intn(5) {
			case 0: // occupy
				if slots, err := c.FindSlots(1); err == nil {
					seq := SeqID(rng.Intn(8))
					c.Occupy(slots[0], nextPos, NewSeqSet(seq))
					nextPos++
				}
			case 1:
				c.SeqCp(SeqID(rng.Intn(8)), SeqID(rng.Intn(8)), 0, nextPos+1)
			case 2:
				p0 := int32(rng.Intn(int(nextPos + 1)))
				c.SeqRm(SeqID(rng.Intn(8)), p0, p0+int32(rng.Intn(5)))
			case 3:
				c.RemoveSeqs(NewSeqSet(SeqID(rng.Intn(8))))
			case 4:
				_ = c.SeqMaxPos(SeqID(rng.Intn(8)))
			}
			if err := c.CheckInvariants(); err != nil {
				t.Logf("invariant violated at step %d: %v", step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOpsEncodeDecodeRoundtrip(t *testing.T) {
	ops := []Op{
		{Kind: OpSeqCp, Src: 0, Dst: 5, P0: 0, P1: 130},
		{Kind: OpSeqRm, Src: 3, P0: 128, P1: 1 << 20},
		{Kind: OpDropSpec, Src: 60, Dst: 4},
		{Kind: OpMapShared, Src: 8, Dst: 255, P1: 64},
		{Kind: OpUnrefPrefix, Src: 255, Dst: 255},
	}
	dec, err := AppendDecodeOps(nil, AppendOps(nil, ops))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(dec), len(ops))
	}
	for i := range ops {
		if dec[i] != ops[i] {
			t.Fatalf("op %d: got %v want %v", i, dec[i], ops[i])
		}
	}
}

func TestDecodeOpsRejectsBadLength(t *testing.T) {
	if _, err := AppendDecodeOps(nil, make([]byte, 5)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestOpApplyMatchesDirectCalls(t *testing.T) {
	a := New(16)
	b := New(16)
	fillSeq(a, Canonical, 0, 1, 2)
	fillSeq(b, Canonical, 0, 1, 2)

	ApplyAll(a, []Op{
		{Kind: OpSeqCp, Src: 0, Dst: 2, P0: 0, P1: 3},
		{Kind: OpSeqRm, Src: 2, P0: 1, P1: 2},
	})
	b.SeqCp(0, 2, 0, 3)
	b.SeqRm(2, 1, 2)

	for i := 0; i < a.Size(); i++ {
		if a.Cell(i) != b.Cell(i) {
			t.Fatalf("cell %d differs: %v vs %v", i, a.Cell(i), b.Cell(i))
		}
	}
}

func TestOpString(t *testing.T) {
	if (Op{Kind: OpSeqCp, Src: 1, Dst: 2, P0: 3, P1: 4}).String() != "cp(1->2, [3,4))" {
		t.Fatal("OpSeqCp string")
	}
	if (Op{Kind: 2, Src: 0}).String() != "op(2)" {
		t.Fatal("the retired kind 2 renders as a known op")
	}
}

func TestSeqAllocatorFIFO(t *testing.T) {
	a := NewSeqAllocatorRange(1, 4)
	ids := make([]SeqID, 0, 3)
	for {
		id, ok := a.Alloc()
		if !ok {
			break
		}
		ids = append(ids, id)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("alloc order = %v", ids)
	}
	a.Free(2)
	a.Free(1)
	id, _ := a.Alloc()
	if id != 2 {
		t.Fatalf("FIFO violated: got %d want 2", id)
	}
}

func TestSeqAllocatorDoubleFreePanics(t *testing.T) {
	a := NewSeqAllocatorRange(1, 3)
	id, _ := a.Alloc()
	a.Free(id)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	a.Free(id)
}

func TestSeqAllocatorCanonicalProtected(t *testing.T) {
	a := NewSeqAllocatorRange(1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic freeing canonical seq")
		}
	}()
	a.Free(Canonical)
}
