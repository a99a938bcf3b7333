package kvpage

import (
	"math/rand"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
)

func checkInv(t *testing.T, c *Cache) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPageRounding(t *testing.T) {
	c := New(Config{Cells: 17, PageSize: 16})
	if c.Size() != 32 {
		t.Fatalf("17 cells at page 16 should round to 32, got %d", c.Size())
	}
	if c.FreeCells() != 32 {
		t.Fatalf("fresh cache should be all free, got %d", c.FreeCells())
	}
	checkInv(t, c)
}

// TestShardMappingAndRelease drives one shard through map/drain cycles:
// pages are pulled from the free list on demand and return the moment
// their last cell frees, so another shard can reuse them.
func TestShardMappingAndRelease(t *testing.T) {
	c := New(Config{Cells: 64, PageSize: 8, ShardSeqs: 4})
	s0 := kvcache.NewSeqSet(0) // shard 0
	s1 := kvcache.NewSeqSet(4) // shard 1

	cells, err := c.FindSlots(10, s0)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range cells {
		c.Occupy(cell, int32(i), s0)
	}
	checkInv(t, c)
	if got := c.ShardUsed(s0); got != 10 {
		t.Fatalf("shard 0 used %d, want 10", got)
	}
	if got := c.SeqLen(0); got != 10 {
		t.Fatalf("seq 0 len %d, want 10", got)
	}
	if got := c.SeqMaxPos(0); got != 9 {
		t.Fatalf("seq 0 max %d, want 9", got)
	}

	// Cross-shard isolation: shard 1 allocates distinct pages.
	cells1, err := c.FindSlots(4, s1)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range cells1 {
		c.Occupy(cell, int32(i), s1)
		if cell/8 == cells[0]/8 {
			t.Fatalf("shard 1 cell %d shares page with shard 0", cell)
		}
	}
	checkInv(t, c)

	// Drain shard 0: both its pages must return to the free list.
	if freed := c.SeqRm(0, 0, 1<<30); freed != 10 {
		t.Fatalf("freed %d, want 10", freed)
	}
	checkInv(t, c)
	if got := c.ShardUsed(s0); got != 0 {
		t.Fatalf("drained shard still uses %d cells", got)
	}
	if c.SeqMaxPos(0) != -1 || c.SeqLen(0) != 0 {
		t.Fatal("drained seq counters not reset")
	}
	if c.FreeCells() != c.Size()-4 {
		t.Fatalf("free %d, want %d", c.FreeCells(), c.Size()-4)
	}
}

// TestCapacityIsPerShard pins the pressure semantics: a shard cannot
// claim cells of pages mapped to other shards, even when those pages are
// mostly empty.
func TestCapacityIsPerShard(t *testing.T) {
	c := New(Config{Cells: 32, PageSize: 16, ShardSeqs: 32})
	s0 := kvcache.NewSeqSet(0)
	s1 := kvcache.NewSeqSet(32) // shard 1
	// One token per shard: each maps one page.
	for _, s := range []kvcache.SeqSet{s0, s1} {
		cells, err := c.FindSlots(1, s)
		if err != nil {
			t.Fatal(err)
		}
		c.Occupy(cells[0], 0, s)
	}
	if c.CanPlace(s0, 16) {
		t.Fatal("shard 0 cannot hold 16 more cells: 15 in its page, none unmapped")
	}
	if !c.CanPlace(s0, 15) {
		t.Fatal("shard 0 should hold 15 more cells in its partial page")
	}
	if _, err := c.FindSlots(16, s0); err == nil {
		t.Fatal("expected per-shard exhaustion")
	}
}

// TestSharedPrefixFootprint pins the PR-9 memory claim at 16 tenants:
// sessions holding a 256-token common prefix concurrently occupy one
// physical copy of it — a donor prefills once, publishes the aligned
// prefix into the registry, and every tenant maps the same pages
// read-only, paying cells only for its private tail. Peak usage must
// collapse versus per-session copies (recorded in BENCH_pr9.json).
func TestSharedPrefixFootprint(t *testing.T) {
	const (
		page    = 8
		shared  = 256
		suffix  = 16
		tenants = 16
	)
	fill := func(c *Cache, set kvcache.SeqSet, n, base int) {
		t.Helper()
		cells, err := c.FindSlots(n, set)
		if err != nil {
			t.Fatal(err)
		}
		for i, cell := range cells {
			c.Occupy(cell, int32(base+i), set)
		}
	}

	shareCache := New(Config{Cells: 8192, PageSize: page, ShardSeqs: 1})
	// The donor prefills the full prompt, publishes the page-aligned
	// prefix, and completes: its private tail frees, the registry keeps
	// the shared chain alive.
	donor := kvcache.NewSeqSet(63)
	fill(shareCache, donor, shared+suffix, 0)
	shareCache.SharePrefix(63, 1, shared)
	shareCache.RemoveSeqs(donor)
	checkInv(t, shareCache)
	for s := 0; s < tenants; s++ {
		set := kvcache.NewSeqSet(kvcache.SeqID(s))
		shareCache.MapShared(kvcache.SeqID(s), 1, shared)
		fill(shareCache, set, suffix, shared)
	}
	checkInv(t, shareCache)
	usedShared := shareCache.Used()

	plainCache := New(Config{Cells: 8192, PageSize: page, ShardSeqs: 1})
	for s := 0; s < tenants; s++ {
		fill(plainCache, kvcache.NewSeqSet(kvcache.SeqID(s)), shared+suffix, 0)
	}
	checkInv(t, plainCache)
	usedPlain := plainCache.Used()

	if want := shared + tenants*suffix; usedShared != want {
		t.Fatalf("shared layout uses %d cells, want %d (one prefix copy + private tails)", usedShared, want)
	}
	if usedShared*4 > usedPlain {
		t.Fatalf("shared layout uses %d cells vs %d private — no footprint collapse", usedShared, usedPlain)
	}
	t.Logf("%d tenants, %d-token shared prefix + %d private: %d cells shared vs %d private copies (%.1fx)",
		tenants, shared, suffix, usedShared, usedPlain, float64(usedPlain)/float64(usedShared))

	// Unwind: tenants drain, the registry drops its hold — everything frees.
	for s := 0; s < tenants; s++ {
		shareCache.RemoveSeqs(kvcache.NewSeqSet(kvcache.SeqID(s)))
	}
	shareCache.UnrefPrefix(1)
	checkInv(t, shareCache)
	if shareCache.Used() != 0 {
		t.Fatalf("%d cells leaked after drain + unref", shareCache.Used())
	}
}

func TestEvictionPrimitives(t *testing.T) {
	c := New(Config{Cells: 64, PageSize: 8, ShardSeqs: 4})
	ns := kvcache.NamespaceFor(1, 4) // seqs 4..7
	canon := kvcache.NewSeqSet(ns.Canonical())

	// Canonical prefix of 6 cells, spec chain of 3 in seq 5 sharing it.
	cells, err := c.FindSlots(6, canon)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range cells {
		c.Occupy(cell, int32(i), canon)
	}
	c.SeqCp(ns.Canonical(), 5, 0, 6)
	spec := kvcache.NewSeqSet(5)
	sc, err := c.FindSlots(3, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range sc {
		c.Occupy(cell, int32(6+i), spec)
	}
	checkInv(t, c)

	// DropSpec frees only the spec-only cells; the shared prefix stays.
	if freed := c.DropSpec(ns); freed != 3 {
		t.Fatalf("DropSpec freed %d, want 3", freed)
	}
	checkInv(t, c)
	if got := c.SeqLen(ns.Canonical()); got != 6 {
		t.Fatalf("canonical len %d after DropSpec, want 6", got)
	}
	if c.SeqLen(5) != 0 || c.SeqMaxPos(5) != -1 {
		t.Fatal("spec seq counters not cleared")
	}

	// EvictShard frees everything and returns the pages.
	if freed := c.EvictShard(ns); freed != 6 {
		t.Fatalf("EvictShard freed %d, want 6", freed)
	}
	checkInv(t, c)
	if c.Used() != 0 || c.FreeCells() != c.Size() {
		t.Fatal("eviction left occupancy behind")
	}

	// The same primitives via wire ops.
	for i, cell := range mustSlots(t, c, 2, canon) {
		c.Occupy(cell, int32(i), canon)
	}
	c.Apply(kvcache.Op{Kind: kvcache.OpEvictShard, Src: ns.Base, Dst: kvcache.SeqID(ns.Width)})
	if c.Used() != 0 {
		t.Fatal("OpEvictShard left cells")
	}
	checkInv(t, c)
}

func mustSlots(t *testing.T, c *Cache, n int, seqs kvcache.SeqSet) []int {
	t.Helper()
	cells, err := c.FindSlots(n, seqs)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestVisibleCellsPositionOrder pins the visibility-order contract:
// whatever order pages were allocated and recycled in, VisibleCells
// yields ascending positions — the order the serial reference runner
// accumulates attention in.
func TestVisibleCellsPositionOrder(t *testing.T) {
	c := New(Config{Cells: 64, PageSize: 4})
	canon := kvcache.NewSeqSet(0)
	// Occupy 8 cells at positions 0..7, free the middle ones, then
	// re-occupy positions 8..11: page recycling now interleaves high
	// positions into low cell indices.
	for i, cell := range mustSlots(t, c, 8, canon) {
		c.Occupy(cell, int32(i), canon)
	}
	c.SeqRm(0, 2, 6)
	for i, cell := range mustSlots(t, c, 4, canon) {
		c.Occupy(cell, int32(8+i), canon)
	}
	checkInv(t, c)

	vis := c.VisibleCells(nil, kvcache.TokenMeta{Pos: 11, Seqs: canon})
	want := []int32{0, 1, 6, 7, 8, 9, 10, 11}
	if len(vis) != len(want) {
		t.Fatalf("visible %d cells, want %d", len(vis), len(want))
	}
	for i, cell := range vis {
		if c.Cell(cell).Pos != want[i] {
			t.Fatalf("visible[%d] has pos %d, want %d", i, c.Cell(cell).Pos, want[i])
		}
	}
}

func TestBuildMaskIntoShardIsolation(t *testing.T) {
	c := New(Config{Cells: 64, PageSize: 8, ShardSeqs: 4})
	a := kvcache.NewSeqSet(0)
	b := kvcache.NewSeqSet(4)
	for i, cell := range mustSlots(t, c, 3, a) {
		c.Occupy(cell, int32(i), a)
	}
	for i, cell := range mustSlots(t, c, 5, b) {
		c.Occupy(cell, int32(i), b)
	}
	var mask kvcache.MaskBits
	c.BuildMaskInto(&mask, []kvcache.TokenMeta{
		{Pos: 2, Seqs: a},
		{Pos: 4, Seqs: b},
	})
	if got := mask.RowOnes(0); got != 3 {
		t.Fatalf("shard-0 query sees %d cells, want 3", got)
	}
	if got := mask.RowOnes(1); got != 5 {
		t.Fatalf("shard-1 query sees %d cells, want 5", got)
	}
	// No cross-shard visibility, bit by bit.
	for i := 0; i < c.Size(); i++ {
		if mask.Get(0, i) && mask.Get(1, i) {
			t.Fatalf("cell %d visible to both namespaces", i)
		}
	}
}

// TestSeqCpCountersExact drives copy/remove interleavings and checks the
// O(1) counters stay exact (CheckInvariants holds them to a brute-force
// scan).
func TestSeqCpCountersExact(t *testing.T) {
	c := New(Config{Cells: 64, PageSize: 8})
	canon := kvcache.NewSeqSet(0)
	for i, cell := range mustSlots(t, c, 12, canon) {
		c.Occupy(cell, int32(i), canon)
	}
	c.SeqCp(0, 3, 4, 9)
	if got := c.SeqLen(3); got != 5 {
		t.Fatalf("seq 3 len %d, want 5", got)
	}
	if got := c.SeqMaxPos(3); got != 8 {
		t.Fatalf("seq 3 max %d, want 8", got)
	}
	checkInv(t, c)
	c.SeqRm(3, 8, 9)
	if got := c.SeqMaxPos(3); got != 7 {
		t.Fatalf("seq 3 max %d after rm, want 7", got)
	}
	checkInv(t, c)
	c.SeqKeep(0)
	if c.SeqLen(3) != 0 || c.SeqLen(0) != 12 {
		t.Fatal("SeqKeep counters wrong")
	}
	checkInv(t, c)
}

// TestFindSlotsAllocFree pins the hot path: steady-state slot finding,
// occupancy and removal allocate nothing.
func TestFindSlotsAllocFree(t *testing.T) {
	c := New(Config{Cells: 256, PageSize: 16, ShardSeqs: 4})
	seqs := kvcache.NewSeqSet(8)
	scratch := make([]int, 0, 4)
	// Warm the shard page list.
	cells, err := c.FindSlotsInto(scratch[:0], 4, seqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range cells {
		c.Occupy(cell, int32(i), seqs)
	}
	c.SeqRm(8, 0, 1<<30)
	allocs := testing.AllocsPerRun(100, func() {
		cs, err := c.FindSlotsInto(scratch[:0], 4, seqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cell := range cs {
			c.Occupy(cell, int32(i), seqs)
		}
		c.SeqRm(8, 0, 1<<30)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f times, want 0", allocs)
	}
}

// TestPagesShort pins the conservative multi-cell room account behind
// batched admission: a placement absorbed by the shard's mapped free
// cells costs no pages, anything beyond costs whole pages rounded up,
// and the account follows occupancy as cells are placed.
func TestPagesShort(t *testing.T) {
	c := New(Config{Cells: 64, PageSize: 8, ShardSeqs: 1})
	seqs := kvcache.NewSeqSet(0)
	// Nothing mapped yet: every cell comes from the free list.
	if got := c.PagesShort(seqs, 1); got != 1 {
		t.Fatalf("empty shard, 1 cell: %d pages, want 1", got)
	}
	if got := c.PagesShort(seqs, 20); got != 3 {
		t.Fatalf("empty shard, 20 cells: %d pages, want 3", got)
	}
	// Occupy 5 cells: one page mapped, 3 free cells absorb small
	// placements.
	cells, err := c.FindSlots(5, seqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range cells {
		c.Occupy(cell, int32(i), seqs)
	}
	if got := c.PagesShort(seqs, 3); got != 0 {
		t.Fatalf("3 cells with 3 shard-free: %d pages, want 0", got)
	}
	if got := c.PagesShort(seqs, 4); got != 1 {
		t.Fatalf("4 cells with 3 shard-free: %d pages, want 1", got)
	}
	if got := c.PagesShort(seqs, 3+16); got != 2 {
		t.Fatalf("19 cells with 3 shard-free: %d pages, want 2", got)
	}
	// A different namespace's shard has no mapped pages: full price.
	other := kvcache.NewSeqSet(1)
	if got := c.PagesShort(other, 2); got != 1 {
		t.Fatalf("other shard, 2 cells: %d pages, want 1", got)
	}
}

// TestCanPlaceRowsPredictsPlacement is the regression wall for the
// serving layer's launch dry run (PR 6): across randomized batch
// histories, CanPlaceRows must agree exactly with PlaceRowsInto — true
// means placement succeeds, false means it would have failed — and the
// dry run itself must not mutate any cache state. This is what turned
// the old "shadow cache underprovisioned for admitted launch" panic
// into a graceful launch rejection.
func TestCanPlaceRowsPredictsPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		c := New(Config{Cells: 64, PageSize: 8, ShardSeqs: 4})
		var pos [4]int32
		for step := 0; step < 64; step++ {
			// A random batch: a few per-shard row groups, like a composed
			// multi-session run's per-session groups.
			var metas []kvcache.TokenMeta
			for g := 1 + rng.Intn(3); g > 0; g-- {
				sh := rng.Intn(4)
				seqs := kvcache.NewSeqSet(kvcache.SeqID(sh * 4))
				for r := 1 + rng.Intn(12); r > 0; r-- {
					metas = append(metas, kvcache.TokenMeta{Pos: pos[sh], Seqs: seqs})
					pos[sh]++
				}
			}
			used, free, pages := c.Used(), c.FreeCells(), c.FreePages()
			ok := c.CanPlaceRows(metas)
			if again := c.CanPlaceRows(metas); again != ok {
				t.Fatalf("trial %d step %d: dry run not idempotent (%v then %v)", trial, step, ok, again)
			}
			if c.Used() != used || c.FreeCells() != free || c.FreePages() != pages {
				t.Fatalf("trial %d step %d: dry run mutated the cache", trial, step)
			}
			cells, err := c.PlaceRowsInto(nil, metas)
			if ok && err != nil {
				t.Fatalf("trial %d step %d: CanPlaceRows approved a failing placement: %v", trial, step, err)
			}
			if !ok && err == nil {
				t.Fatalf("trial %d step %d: CanPlaceRows rejected a succeeding placement (%d rows, %d free)",
					trial, step, len(metas), free)
			}
			if err != nil {
				break // placement may have partially applied; start a fresh trial
			}
			if len(cells) != len(metas) {
				t.Fatalf("trial %d step %d: placed %d cells for %d rows", trial, step, len(cells), len(metas))
			}
			checkInv(t, c)
		}
	}
}

// BuildMaskInto fills dst with the attention mask for a batch:
// dst.Get(t, i) is true iff batch token t may attend to cell i. Rows span
// the whole cell space (mask consumers index by global cell id) but only
// each token's shard is scanned to set bits.
func (c *Cache) BuildMaskInto(dst *kvcache.MaskBits, batch []kvcache.TokenMeta) {
	dst.Reset(len(batch), len(c.cells))
	for t, q := range batch {
		sh := &c.shards[c.shardOf(q.Seqs)]
		for _, p := range sh.pages {
			base := int(p) * c.pageSize
			for s := 0; s < c.pageSize; s++ {
				if c.Visible(q, base+s) {
					dst.Set(t, base+s)
				}
			}
		}
	}
}
