// Package kvcache defines the key/value cache *metadata model* that
// PipeInfer's Pipelined KV Cache Multibuffering (§IV-C) is built on: the
// sequence-id space (SeqID/SeqSet), cell metadata (Cell/TokenMeta), the
// serialisable cache-operation vocabulary (Op and its wire codec), the
// per-session sequence Namespace partitioning, and a flat reference
// implementation of the cell store (Cache).
//
// The cache is a pool of cells. Each cell records the absolute sequence
// position of the token it holds and the *set of sequences* the entry
// belongs to. Sequence copy/remove operations manipulate only this
// metadata — the underlying K/V tensors are shared between sequences — which
// is why the paper describes multibuffering "buffer swaps" as near-zero
// cost. Attention visibility is derived from the metadata: a query token
// belonging to sequence set Q sees a cell C iff Q ∩ C.Seqs ≠ ∅ and
// C.Pos ≤ Q.Pos (causality). Assigning each speculative run its own
// sequence id therefore guarantees the runs cannot observe one another's
// entries, while copied prefixes are shared without data movement.
//
// # The flat Cache is the reference implementation
//
// Since PR 3 the production cell store is internal/kvpage: a paged,
// per-namespace-sharded cache whose sequence operations cost O(session
// footprint) instead of O(total cache) and which supports eviction under
// memory pressure. The flat Cache here scans every cell on every
// operation — trivially auditable, obviously correct — and is retained as
// the behavioural oracle: kvpage's differential property tests drive
// identical operation sequences through both stores and require identical
// visible-cell sets, sequence lengths and occupancy. New cache semantics
// must land here first, then in kvpage.
package kvcache

import (
	"fmt"
	"math/bits"
)

// SeqID identifies a sequence partition. Sequence 0 is the canonical
// sequence holding accepted tokens (§IV-C.1).
type SeqID int

// Canonical is the sequence id of the accepted-token sequence.
const Canonical SeqID = 0

// MaxSeqs is the maximum number of simultaneous sequences (bitset width).
const MaxSeqs = 64

// SeqSet is a bitset over sequence ids.
type SeqSet uint64

// NewSeqSet builds a set from the given ids.
func NewSeqSet(ids ...SeqID) SeqSet {
	var s SeqSet
	for _, id := range ids {
		s = s.Add(id)
	}
	return s
}

// NewSeqSetRange builds the set holding every id in [lo, hi).
func NewSeqSetRange(lo, hi SeqID) SeqSet {
	if lo < 0 || hi < lo || hi > MaxSeqs {
		panic(fmt.Sprintf("kvcache: seq range [%d,%d) out of bounds", lo, hi))
	}
	if hi == lo {
		return 0
	}
	span := SeqSet(1)<<uint(hi-lo) - 1
	if hi-lo == MaxSeqs {
		span = ^SeqSet(0)
	}
	return span << uint(lo)
}

// Min returns the smallest member id, or -1 for the empty set.
func (s SeqSet) Min() SeqID {
	if s == 0 {
		return -1
	}
	return SeqID(bits.TrailingZeros64(uint64(s)))
}

// Add returns s with id included.
func (s SeqSet) Add(id SeqID) SeqSet {
	if id < 0 || id >= MaxSeqs {
		panic(fmt.Sprintf("kvcache: seq id %d out of range", id))
	}
	return s | 1<<uint(id)
}

// Remove returns s with id excluded.
func (s SeqSet) Remove(id SeqID) SeqSet { return s &^ (1 << uint(id)) }

// Has reports whether id is in the set.
func (s SeqSet) Has(id SeqID) bool { return s&(1<<uint(id)) != 0 }

// Intersects reports whether the two sets share any sequence.
func (s SeqSet) Intersects(o SeqSet) bool { return s&o != 0 }

// Empty reports whether the set has no members.
func (s SeqSet) Empty() bool { return s == 0 }

// Cell is one KV cache slot.
type Cell struct {
	// Pos is the absolute position of the cached token, or -1 if empty.
	Pos int32
	// Seqs is the set of sequences this entry belongs to.
	Seqs SeqSet
}

// Empty reports whether the cell holds no entry.
func (c Cell) Empty() bool { return c.Seqs.Empty() }

// TokenMeta describes one batch token's placement for visibility and
// cache writes.
type TokenMeta struct {
	Pos  int32
	Seqs SeqSet
}

// Cache is the cell-metadata store. The K/V tensor data itself is owned by
// the compute backend and indexed by cell number; Cache only decides which
// cell holds what and who may see it.
type Cache struct {
	cells []Cell
	used  int
	// holds[i] counts the shared-prefix entries whose registered chain
	// includes cell i (allocated lazily on first SharePrefix). A held
	// cell stays resident — it keeps its position and its claim on the
	// backend's K/V row — even after its sequence set drains to empty,
	// so a later MapShared can revive it for another session. A cell is
	// free only when it has neither sequences nor holds.
	holds []int32
	// entries maps a shared-prefix entry id to the cell indices of its
	// chain, in position order.
	entries map[int][]int
}

// New creates a cache with n cells.
func New(n int) *Cache {
	c := &Cache{cells: make([]Cell, n)}
	for i := range c.cells {
		c.cells[i].Pos = -1
	}
	return c
}

// Size returns the total number of cells.
func (c *Cache) Size() int { return len(c.cells) }

// Used returns the number of occupied cells.
func (c *Cache) Used() int { return c.used }

// Cell returns a copy of cell i's metadata.
func (c *Cache) Cell(i int) Cell { return c.cells[i] }

// Clear empties every cell and drops all shared-prefix registrations.
func (c *Cache) Clear() {
	for i := range c.cells {
		c.cells[i] = Cell{Pos: -1}
	}
	c.used = 0
	for i := range c.holds {
		c.holds[i] = 0
	}
	c.entries = nil
}

// held reports whether cell i is pinned by a shared-prefix registry hold.
func (c *Cache) held(i int) bool { return len(c.holds) > 0 && c.holds[i] > 0 }

// FindSlots locates n free cells (first-fit) and returns their indices
// without occupying them. It fails if fewer than n cells are free.
func (c *Cache) FindSlots(n int) ([]int, error) {
	return c.FindSlotsInto(make([]int, 0, n), n)
}

// FindSlotsInto is FindSlots appending into a caller-provided slice
// (typically scratch[:0]) — the allocation-free variant the decode hot
// path uses every run.
func (c *Cache) FindSlotsInto(dst []int, n int) ([]int, error) {
	found := 0
	for i := range c.cells {
		if c.cells[i].Empty() && !c.held(i) {
			dst = append(dst, i)
			found++
			if found == n {
				return dst, nil
			}
		}
	}
	return nil, fmt.Errorf("kvcache: need %d free cells, have %d of %d", n, found, len(c.cells))
}

// Occupy claims cell i for a token at position pos belonging to seqs.
// Occupying a non-empty cell is a bug in the caller and panics.
func (c *Cache) Occupy(i int, pos int32, seqs SeqSet) {
	if seqs.Empty() {
		panic("kvcache: Occupy with empty sequence set")
	}
	if !c.cells[i].Empty() || c.held(i) {
		panic(fmt.Sprintf("kvcache: Occupy of non-empty cell %d", i))
	}
	c.cells[i] = Cell{Pos: pos, Seqs: seqs}
	c.used++
}

// SeqCp adds sequence dst to every cell that belongs to src with position
// in [p0, p1). This is the metadata-only "copy" that multibuffering's
// buffer swap and early cache sharing use. It returns the number of cells
// affected.
func (c *Cache) SeqCp(src, dst SeqID, p0, p1 int32) int {
	n := 0
	for i := range c.cells {
		cell := &c.cells[i]
		if !cell.Empty() && cell.Seqs.Has(src) && cell.Pos >= p0 && cell.Pos < p1 {
			if !cell.Seqs.Has(dst) {
				cell.Seqs = cell.Seqs.Add(dst)
				n++
			}
		}
	}
	return n
}

// SeqRm removes sequence seq from cells with position in [p0, p1). Cells
// left with no sequences become free. It returns the number of cells freed.
func (c *Cache) SeqRm(seq SeqID, p0, p1 int32) int {
	freed := 0
	for i := range c.cells {
		cell := &c.cells[i]
		if !cell.Empty() && cell.Seqs.Has(seq) && cell.Pos >= p0 && cell.Pos < p1 {
			cell.Seqs = cell.Seqs.Remove(seq)
			if cell.Seqs.Empty() && !c.held(i) {
				cell.Pos = -1
				c.used--
				freed++
			}
		}
	}
	return freed
}

// RemoveSeqs strips every sequence in mask from all cells; cells left with
// no sequences become free. It is the bulk-removal primitive behind the
// serving layer's eviction ops (OpDropSpec clears a namespace's
// speculative ids, OpEvictShard a whole namespace) and returns the number
// of cells freed.
func (c *Cache) RemoveSeqs(mask SeqSet) int {
	freed := 0
	for i := range c.cells {
		cell := &c.cells[i]
		if cell.Empty() || !cell.Seqs.Intersects(mask) {
			continue
		}
		cell.Seqs &^= mask
		if cell.Seqs.Empty() && !c.held(i) {
			cell.Pos = -1
			c.used--
			freed++
		}
	}
	return freed
}

// SharePrefix registers sequence src's cells covering positions
// [0, limit) as shared-prefix entry `entry`, pinning each with one
// registry hold. The donor must hold exactly one cell per position —
// sharing an incomplete prefix, or reusing a live entry id, is a bug in
// the caller and panics. The flat store accepts any limit > 0; the paged
// store additionally requires page alignment, which the serving layer
// guarantees.
func (c *Cache) SharePrefix(src SeqID, entry int, limit int32) {
	if limit <= 0 {
		panic(fmt.Sprintf("kvcache: SharePrefix limit %d out of range", limit))
	}
	if c.entries == nil {
		c.entries = make(map[int][]int)
	}
	if _, dup := c.entries[entry]; dup {
		panic(fmt.Sprintf("kvcache: SharePrefix reuses live entry %d", entry))
	}
	chain := make([]int, limit)
	seen := make([]bool, limit)
	for i := range c.cells {
		cell := &c.cells[i]
		if cell.Empty() || !cell.Seqs.Has(src) || cell.Pos >= limit {
			continue
		}
		if seen[cell.Pos] {
			panic(fmt.Sprintf("kvcache: SharePrefix donor %d has duplicate position %d", src, cell.Pos))
		}
		seen[cell.Pos] = true
		chain[cell.Pos] = i
	}
	for pos, ok := range seen {
		if !ok {
			panic(fmt.Sprintf("kvcache: SharePrefix donor %d missing position %d of [0,%d)", src, pos, limit))
		}
	}
	if c.holds == nil {
		c.holds = make([]int32, len(c.cells))
	}
	for _, i := range chain {
		c.holds[i]++
	}
	c.entries[entry] = chain
}

// MapShared adds sequence dst to the first limit cells of shared entry
// `entry`, so dst's attention sees the donor-computed prefix without
// recomputation. It returns the number of cells newly tagged.
func (c *Cache) MapShared(dst SeqID, entry int, limit int32) int {
	chain, ok := c.entries[entry]
	if !ok {
		panic(fmt.Sprintf("kvcache: MapShared of unregistered entry %d", entry))
	}
	if limit < 0 || int(limit) > len(chain) {
		panic(fmt.Sprintf("kvcache: MapShared limit %d outside entry %d chain of %d", limit, entry, len(chain)))
	}
	n := 0
	for _, i := range chain[:limit] {
		cell := &c.cells[i]
		if cell.Pos < 0 {
			panic(fmt.Sprintf("kvcache: MapShared over dead cell %d of entry %d", i, entry))
		}
		if !cell.Seqs.Has(dst) {
			cell.Seqs = cell.Seqs.Add(dst)
			n++
		}
	}
	return n
}

// UnrefPrefix drops the registry hold on shared entry `entry`. Cells
// kept resident only by the hold become free; cells still carrying
// sequence bits survive until those drain. It returns the number of
// cells freed.
func (c *Cache) UnrefPrefix(entry int) int {
	chain, ok := c.entries[entry]
	if !ok {
		panic(fmt.Sprintf("kvcache: UnrefPrefix of unregistered entry %d", entry))
	}
	delete(c.entries, entry)
	freed := 0
	for _, i := range chain {
		c.holds[i]--
		if c.holds[i] == 0 && c.cells[i].Empty() && c.cells[i].Pos >= 0 {
			c.cells[i].Pos = -1
			c.used--
			freed++
		}
	}
	return freed
}

// EntryLen returns the chain length (in cells) of shared entry `entry`,
// or 0 when it is not registered.
func (c *Cache) EntryLen(entry int) int32 {
	return int32(len(c.entries[entry]))
}

// Entries reports the number of registered shared-prefix entries.
func (c *Cache) Entries() int { return len(c.entries) }

// SeqMaxPos returns the largest position present in seq, or -1 if none.
func (c *Cache) SeqMaxPos(seq SeqID) int32 {
	max := int32(-1)
	for _, cell := range c.cells {
		if !cell.Empty() && cell.Seqs.Has(seq) && cell.Pos > max {
			max = cell.Pos
		}
	}
	return max
}

// SeqLen returns the number of cells belonging to seq.
func (c *Cache) SeqLen(seq SeqID) int {
	n := 0
	for _, cell := range c.cells {
		if !cell.Empty() && cell.Seqs.Has(seq) {
			n++
		}
	}
	return n
}

// Visible reports whether a query token described by q may attend to cell
// i: they must share a sequence and the cell must not be in the query's
// future.
func (c *Cache) Visible(q TokenMeta, i int) bool {
	cell := c.cells[i]
	return !cell.Empty() && cell.Seqs.Intersects(q.Seqs) && cell.Pos <= q.Pos
}

// VisibleCells appends to dst the indices of all cells visible to q, in
// cell order, and returns the extended slice.
func (c *Cache) VisibleCells(dst []int, q TokenMeta) []int {
	for i := range c.cells {
		if c.Visible(q, i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// CheckInvariants validates internal consistency (used by property tests
// and enabled in debug paths): the used counter matches residency (a cell
// is resident when it carries sequences or a shared-prefix hold), no
// resident cell has a negative position, and the hold counters match the
// entry registry exactly.
func (c *Cache) CheckInvariants() error {
	used := 0
	for i, cell := range c.cells {
		switch {
		case cell.Empty() && !c.held(i) && cell.Pos != -1:
			return fmt.Errorf("kvcache: cell %d empty but pos=%d", i, cell.Pos)
		case (!cell.Empty() || c.held(i)) && cell.Pos < 0:
			return fmt.Errorf("kvcache: cell %d resident but pos=%d", i, cell.Pos)
		}
		if !cell.Empty() || c.held(i) {
			used++
		}
	}
	if used != c.used {
		return fmt.Errorf("kvcache: used counter %d != actual %d", c.used, used)
	}
	holds := make(map[int]int32)
	for e, chain := range c.entries {
		if len(chain) == 0 {
			return fmt.Errorf("kvcache: entry %d has empty chain", e)
		}
		for pos, i := range chain {
			if int(c.cells[i].Pos) != pos {
				return fmt.Errorf("kvcache: entry %d chain cell %d has pos %d, want %d", e, i, c.cells[i].Pos, pos)
			}
			holds[i]++
		}
	}
	for i := range c.cells {
		want := holds[i]
		var got int32
		if len(c.holds) > 0 {
			got = c.holds[i]
		}
		if got != want {
			return fmt.Errorf("kvcache: cell %d hold counter %d != registry %d", i, got, want)
		}
	}
	return nil
}
