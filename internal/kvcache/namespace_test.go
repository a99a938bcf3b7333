package kvcache

import (
	"math/bits"
	"testing"
)

func TestNamespacePartitioning(t *testing.T) {
	// 16 slots of width 4 tile the whole id space disjointly.
	var seen SeqSet
	for slot := 0; slot < 16; slot++ {
		ns := NamespaceFor(slot, 4)
		if ns.Canonical() != SeqID(slot*4) {
			t.Fatalf("slot %d canonical %d", slot, ns.Canonical())
		}
		set := Op{Kind: OpEvictShard, Src: ns.Base, Dst: SeqID(ns.Width)}.ShardSet()
		if n := bits.OnesCount64(uint64(set)); n != 4 {
			t.Fatalf("slot %d set has %d ids", slot, n)
		}
		if seen.Intersects(set) {
			t.Fatalf("slot %d overlaps an earlier namespace", slot)
		}
		seen |= set
		for id := SeqID(0); id < MaxSeqs; id++ {
			if ns.Contains(id) != set.Has(id) {
				t.Fatalf("slot %d: Contains(%d) disagrees with its eviction's set", slot, id)
			}
		}
	}
	if n := bits.OnesCount64(uint64(seen)); n != MaxSeqs {
		t.Fatalf("16x4 namespaces cover %d of %d ids", n, MaxSeqs)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range namespace did not panic")
		}
	}()
	NamespaceFor(16, 4) // 64..68 exceeds MaxSeqs
}

func TestNamespaceSpecAllocator(t *testing.T) {
	ns := NamespaceFor(2, 4) // ids 8..11
	a := ns.SpecAllocator()
	if a == nil || a.Available() != 3 {
		t.Fatalf("width-4 namespace should allocate 3 spec ids")
	}
	got := map[SeqID]bool{}
	for {
		id, ok := a.Alloc()
		if !ok {
			break
		}
		if !ns.Contains(id) || id == ns.Canonical() {
			t.Fatalf("allocated id %d outside the spec range", id)
		}
		got[id] = true
	}
	if len(got) != 3 {
		t.Fatalf("allocated %d distinct ids", len(got))
	}
	if NamespaceFor(0, 1).SpecAllocator() != nil {
		t.Fatal("width-1 namespace must not allocate spec ids")
	}
}

func TestNamespaceValidOp(t *testing.T) {
	ns := NamespaceFor(1, 4) // ids 4..7
	cases := []struct {
		op Op
		ok bool
	}{
		{Op{Kind: OpSeqCp, Src: 4, Dst: 5}, true},
		{Op{Kind: OpSeqRm, Src: 7}, true},
		{Op{Kind: OpSeqCp, Src: 4, Dst: 8}, false}, // crosses namespaces
		{Op{Kind: OpSeqCp, Src: 0, Dst: 4}, false}, // foreign source
		{Op{Kind: OpSeqRm, Src: 3}, false},         // foreign removal
		{Op{Kind: OpUnrefPrefix, Dst: 4}, false},   // the scheduler's hold, no session's
		{Op{Kind: OpKind(2), Src: 4}, false},       // the retired keep
	}
	for i, tc := range cases {
		if got := ns.ValidOp(tc.op); got != tc.ok {
			t.Fatalf("case %d (%v): ValidOp=%v want %v", i, tc.op, got, tc.ok)
		}
	}
}

func TestSeqAllocatorRange(t *testing.T) {
	a := NewSeqAllocatorRange(5, 8)
	ids := []SeqID{}
	for {
		id, ok := a.Alloc()
		if !ok {
			break
		}
		ids = append(ids, id)
	}
	if len(ids) != 3 || ids[0] != 5 || ids[2] != 7 {
		t.Fatalf("range allocator handed out %v", ids)
	}
	a.Free(6)
	if id, ok := a.Alloc(); !ok || id != 6 {
		t.Fatalf("free/realloc gave %d", id)
	}
}
