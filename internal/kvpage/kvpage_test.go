package kvpage

import (
	"math"
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

// seqCells lists the cells of sequence seq in position order: what a
// query past every position sees.
func seqCells(c *Cache, seq kvcache.SeqID) []int {
	return c.VisibleCells(nil, kvcache.TokenMeta{Pos: math.MaxInt32, Seqs: kvcache.NewSeqSet(seq)})
}

func TestPageRounding(t *testing.T) {
	c := New(Config{Cells: 17, PageSize: 16})
	if c.Size() != 32 {
		t.Fatalf("17 cells at page 16 should round to 32, got %d", c.Size())
	}
	if c.FreePages() != 2 {
		t.Fatalf("fresh cache should have both pages free, got %d", c.FreePages())
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

	cells := mustSlots(t, c, 10, s0)
	for i, cell := range cells {
		c.Occupy(cell, int32(i), s0)
	}
	checkInv(t, c)
	if got := c.ShardUsed(s0); got != 10 {
		t.Fatalf("shard 0 used %d, want 10", got)
	}
	if got := seqCells(c, 0); len(got) != 10 || c.Cell(got[9]).Pos != 9 {
		t.Fatalf("seq 0 holds %d cells, want 10 up to pos 9", len(got))
	}

	// Cross-shard isolation: shard 1 allocates distinct pages.
	for i, cell := range mustSlots(t, c, 4, s1) {
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
	if got := seqCells(c, 0); len(got) != 0 {
		t.Fatalf("drained seq still holds %d cells", len(got))
	}
	if c.FreePages() != 7 {
		t.Fatalf("%d pages free, want 7 (shard 1 holds one)", c.FreePages())
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
		c.Occupy(mustSlots(t, c, 1, s)[0], 0, s)
	}
	if c.CanPlace(s0, 16) {
		t.Fatal("shard 0 cannot hold 16 more cells: 15 in its page, none unmapped")
	}
	if !c.CanPlace(s0, 15) {
		t.Fatal("shard 0 should hold 15 more cells in its partial page")
	}
	if _, err := c.FindSlotsInto(nil, 16, s0); err == nil {
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
		for i, cell := range mustSlots(t, c, n, set) {
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
	for i, cell := range mustSlots(t, c, 6, canon) {
		c.Occupy(cell, int32(i), canon)
	}
	c.SeqCp(ns.Canonical(), 5, 0, 6)
	spec := kvcache.NewSeqSet(5)
	for i, cell := range mustSlots(t, c, 3, spec) {
		c.Occupy(cell, int32(6+i), spec)
	}
	checkInv(t, c)

	// OpDropSpec frees only the spec-only cells; the shared prefix stays.
	c.Apply(kvcache.Op{Kind: kvcache.OpDropSpec, Src: ns.Base, Dst: kvcache.SeqID(ns.Width)})
	checkInv(t, c)
	if c.Used() != 6 {
		t.Fatalf("%d cells used after OpDropSpec, want the 6 of the prefix", c.Used())
	}
	if got := seqCells(c, ns.Canonical()); len(got) != 6 {
		t.Fatalf("canonical holds %d cells after OpDropSpec, want 6", len(got))
	}
	if got := seqCells(c, 5); len(got) != 0 {
		t.Fatalf("spec seq still holds %d cells", len(got))
	}

	// Removing the whole namespace frees everything and returns the pages.
	if freed, err := c.RemoveSeqs(kvcache.NewSeqSetRange(ns.Base, ns.Base+kvcache.SeqID(ns.Width))); err != nil || freed != 6 {
		t.Fatalf("RemoveSeqs freed %d (%v), want 6", freed, err)
	}
	checkInv(t, c)
	if c.Used() != 0 || c.FreePages()*c.PageSize() != c.Size() {
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
	cells, err := c.FindSlotsInto(nil, n, seqs)
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

func TestVisibleCellsShardIsolation(t *testing.T) {
	c := New(Config{Cells: 64, PageSize: 8, ShardSeqs: 4})
	a := kvcache.NewSeqSet(0)
	b := kvcache.NewSeqSet(4)
	for i, cell := range mustSlots(t, c, 3, a) {
		c.Occupy(cell, int32(i), a)
	}
	for i, cell := range mustSlots(t, c, 5, b) {
		c.Occupy(cell, int32(i), b)
	}
	va := c.VisibleCells(nil, kvcache.TokenMeta{Pos: 2, Seqs: a})
	vb := c.VisibleCells(nil, kvcache.TokenMeta{Pos: 4, Seqs: b})
	if len(va) != 3 {
		t.Fatalf("shard-0 query sees %d cells, want 3", len(va))
	}
	if len(vb) != 5 {
		t.Fatalf("shard-1 query sees %d cells, want 5", len(vb))
	}
	// No cross-shard visibility, cell by cell.
	for _, i := range va {
		for _, j := range vb {
			if i == j {
				t.Fatalf("cell %d visible to both namespaces", i)
			}
		}
	}
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
	for i, cell := range mustSlots(t, c, 5, seqs) {
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

// TestPlaceRowsRejectsUnplaceableSets: a row whose sequence set no shard
// holds — empty, or spilling past its shard's window — fails the whole
// placement before any cell is taken, and the dry run agrees.
func TestPlaceRowsRejectsUnplaceableSets(t *testing.T) {
	ok := kvcache.TokenMeta{Pos: 0, Seqs: kvcache.NewSeqSet(0, 3)}
	for name, bad := range map[string]kvcache.SeqSet{
		"empty set":              0,
		"set across two shards":  kvcache.NewSeqSet(0, 4),
		"ids far past its shard": kvcache.NewSeqSet(3, 60, 63),
	} {
		c := New(Config{Cells: 32, PageSize: 8, ShardSeqs: 4})
		metas := []kvcache.TokenMeta{ok, ok, {Pos: 1, Seqs: bad}}
		if c.CanPlaceRows(metas) {
			t.Fatalf("%s: CanPlaceRows approved the placement", name)
		}
		if _, err := c.PlaceRowsInto(nil, metas); err == nil {
			t.Fatalf("%s: PlaceRowsInto placed the rows", name)
		}
		if c.Used() != 0 || c.FreePages() != 4 {
			t.Fatalf("%s: the failed placement took cells (%d used, %d pages free)", name, c.Used(), c.FreePages())
		}
		checkInv(t, c)
	}
	c := New(Config{Cells: 32, PageSize: 8, ShardSeqs: 4})
	if !c.CanPlaceRows([]kvcache.TokenMeta{ok}) {
		t.Fatal("CanPlaceRows rejected a set inside one shard")
	}
	if _, err := c.PlaceRowsInto(nil, []kvcache.TokenMeta{ok}); err != nil {
		t.Fatal(err)
	}
	checkInv(t, c)
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
			used, pages := c.Used(), c.FreePages()
			var shardUsed [4]int
			for sh := range shardUsed {
				shardUsed[sh] = c.ShardUsed(kvcache.NewSeqSet(kvcache.SeqID(sh * 4)))
			}
			ok := c.CanPlaceRows(metas)
			if again := c.CanPlaceRows(metas); again != ok {
				t.Fatalf("trial %d step %d: dry run not idempotent (%v then %v)", trial, step, ok, again)
			}
			if c.Used() != used || c.FreePages() != pages {
				t.Fatalf("trial %d step %d: dry run mutated the cache", trial, step)
			}
			for sh := range shardUsed {
				if c.ShardUsed(kvcache.NewSeqSet(kvcache.SeqID(sh*4))) != shardUsed[sh] {
					t.Fatalf("trial %d step %d: dry run mutated shard %d", trial, step, sh)
				}
			}
			checkInv(t, c)
			cells, err := c.PlaceRowsInto(nil, metas)
			if ok && err != nil {
				t.Fatalf("trial %d step %d: CanPlaceRows approved a failing placement: %v", trial, step, err)
			}
			if !ok && err == nil {
				t.Fatalf("trial %d step %d: CanPlaceRows rejected a succeeding placement (%d rows, %d pages free)",
					trial, step, len(metas), pages)
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

// TestDiffSeesRegistryState holds Diff to the state no cell or page owner
// shows: two caches with identical cells, owners and page lists differ
// when one holds a shared prefix under another entry id, or twice.
func TestDiffSeesRegistryState(t *testing.T) {
	shared := func(entries ...int) *Cache {
		c := New(Config{Cells: 32, PageSize: 8, ShardSeqs: 4})
		for pos := int32(0); pos < 8; pos++ {
			if _, err := c.PlaceRowsInto(nil, []kvcache.TokenMeta{{Pos: pos, Seqs: kvcache.NewSeqSet(0)}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range entries {
			if err := c.SharePrefix(0, e, 8); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	if err := shared(1).Diff(shared(1)); err != nil {
		t.Fatalf("equal caches differ: %v", err)
	}
	for _, tc := range []struct{ a, b []int }{{[]int{1}, []int{2}}, {[]int{1, 2}, []int{1}}} {
		if shared(tc.a...).Diff(shared(tc.b...)) == nil {
			t.Errorf("entries %v and %v: Diff found no difference", tc.a, tc.b)
		}
	}
}
