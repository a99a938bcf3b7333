// Package kvpage is the paged KV cache metadata store: the production
// implementation of the cell-metadata model defined in internal/kvcache,
// built for multi-session serving where the flat reference cache's
// every-operation full scans become the bottleneck.
//
// # Architecture
//
// The cell space is divided into fixed-size pages (Config.PageSize cells,
// default 16). Pages live on a global free list and are mapped on demand
// into shards: one shard per sequence-id namespace (Config.ShardSeqs
// consecutive ids — the serving layer's per-session window; the default,
// kvcache.MaxSeqs, is a single shard covering the whole id space, which
// is what the draft runner uses). A cell's
// index is page*PageSize + slot, so the compute backends' K/V tensor
// stores — which index rows by cell — address paged storage with no
// translation layer.
//
// Every sequence operation (slot finding, copy/remove, visibility) walks
// only the owning shard's page list, so its cost is O(session footprint)
// and independent of how full the rest of the cache is.
//
// # Eviction
//
// Pages whose last cell is released return to the free list immediately,
// so one session's churn becomes another session's capacity. One bulk
// reclamation primitive, RemoveSeqs, backs both of the serving layer's
// memory-pressure ops, which every stage replays in transaction order
// (Apply): kvcache.OpDropSpec frees a namespace's speculative-only cells,
// kvcache.OpEvictShard its entire footprint, so the parked session can be
// readmitted later by re-prefilling its accepted prefix.
//
// # Shared prefixes
//
// A completed prefill can publish its prompt's whole pages as an
// immutable shared chain (SharePrefix), which other sessions map
// read-only into their own shards (MapShared) so a common system prompt
// is computed once and reused everywhere. Shared pages are owned by no
// shard (sharedOwner), listed in every shard that maps them, and carry
// two reference counts: shard listings (pageShards) and registry holds
// from the serving layer's prefix trie (pageHolds). Cells are
// append-only, so a session's first token past its mapped prefix simply
// places into fresh private pages — nothing is ever copied. Eviction
// composes: the ordinary strip operations (SeqRm, RemoveSeqs) remove a
// session's bits and delist pages rather than free them, a
// registry hold keeps drained cells resident for future mappings, and a
// page returns to the free list only when both counts reach zero. All of
// it is driven by three pipelined ops (kvcache.OpSharePrefix, OpMapShared,
// OpUnrefPrefix) that carry only sequence ids, entry ids and page-aligned
// lengths — never physical page numbers — so every pipeline stage
// resolves them against its own layout in transaction order.
//
// # Visibility order
//
// VisibleCells returns cells sorted by position (ties by cell index),
// not by cell index as the flat reference does. Attention accumulates
// floating-point sums in visible-cell order, so position order makes a
// session's attention arithmetic identical to its serial single-runner
// reference regardless of how pages were recycled, evicted and
// reallocated in between — the property the serving layer's bit-identical
// parity gates depend on.
//
// The order also nests: rows of one batch with the same sequence set see
// nested cell sets, so each row's list is a prefix of the deepest row's.
// VisibleGroups lists each set's cells once and gives every row its
// prefix length, and the model attends a group of rows over that one
// list (tensor.AttentionGroup) — a prefill chunk's rows, or a speculative
// micro-batch's, no longer re-derive and re-walk the same cells alone.
package kvpage

import (
	"fmt"
	"slices"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
)

// DefaultPageSize is the page granularity used when Config.PageSize is 0.
const DefaultPageSize = 16

// Config sizes a paged cache.
type Config struct {
	// Cells is the requested capacity; it is rounded up to a whole number
	// of pages.
	Cells int
	// PageSize is the number of cells per page (default DefaultPageSize).
	PageSize int
	// ShardSeqs is the number of consecutive sequence ids per shard: the
	// serving layer passes its per-session namespace width so every
	// session's footprint lives in its own shard. 0 (the default) means
	// one shard spanning all kvcache.MaxSeqs ids.
	ShardSeqs int
}

func (c Config) withDefaults() Config {
	if c.PageSize <= 0 {
		c.PageSize = DefaultPageSize
	}
	if c.ShardSeqs <= 0 || c.ShardSeqs > kvcache.MaxSeqs {
		c.ShardSeqs = kvcache.MaxSeqs
	}
	if c.Cells <= 0 {
		c.Cells = c.PageSize
	}
	return c
}

const noPage = int32(-1)

// sharedOwner marks a page published as part of a shared prefix: it is
// listed in every shard that maps it, owned by none, and immutable (its
// cells are never re-occupied) until both reference counts drain.
const sharedOwner = int32(-2)

// shard is one namespace's slice of the cache: the pages it owns plus a
// free-cell count so capacity checks are O(1).
type shard struct {
	pages []int32 // owned pages, scan order
	free  int     // free cells across owned pages
}

// Cache is the paged cell-metadata store. It implements the same
// operation vocabulary as the flat kvcache.Cache reference; the
// differential property tests in this package hold the two to identical
// observable behaviour.
type Cache struct {
	pageSize  int
	shardSeqs int
	cells     []kvcache.Cell
	pageOwner []int32 // per page: owning shard, -1 when free
	pageUsed  []int32 // per page: occupied cells
	freePages []int32 // stack of unowned pages
	shards    []shard
	used      int

	// Shared-prefix state. pageShards[p] counts the shard page lists
	// containing shared page p; pageHolds[p] counts the registered prefix
	// entries whose chain includes p. A shared page frees only when both
	// reach zero; a cell on a held page stays resident after its sequence
	// set drains (Pos kept, counted in used) so a later MapShared can
	// revive it. pageUsed stays pinned at pageSize for shared pages, which
	// is what keeps FindSlotsInto from ever allocating into them.
	pageShards []int32
	pageHolds  []int32
	entries    map[int][]int32 // entry id -> page chain in position order

	// dryFree / dryTouched are CanPlaceRows scratch: per-shard simulated
	// free counts (-1 = untouched) and the shards touched by the current
	// dry run, so repeated admission checks allocate nothing.
	dryFree    []int
	dryTouched []int
}

// New creates a paged cache. Capacity is rounded up to whole pages; Size
// reports the rounded value.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	nPages := (cfg.Cells + cfg.PageSize - 1) / cfg.PageSize
	nShards := (kvcache.MaxSeqs + cfg.ShardSeqs - 1) / cfg.ShardSeqs
	c := &Cache{
		pageSize:   cfg.PageSize,
		shardSeqs:  cfg.ShardSeqs,
		cells:      make([]kvcache.Cell, nPages*cfg.PageSize),
		pageOwner:  make([]int32, nPages),
		pageUsed:   make([]int32, nPages),
		pageShards: make([]int32, nPages),
		pageHolds:  make([]int32, nPages),
		freePages:  make([]int32, 0, nPages),
		shards:     make([]shard, nShards),
		dryFree:    make([]int, nShards),
	}
	for i := range c.dryFree {
		c.dryFree[i] = -1
	}
	for i := range c.cells {
		c.cells[i].Pos = -1
	}
	for p := nPages - 1; p >= 0; p-- {
		c.pageOwner[p] = noPage
		c.freePages = append(c.freePages, int32(p))
	}
	return c
}

// NewCells is shorthand for a default-page single-shard cache with at
// least n cells — the drop-in replacement for kvcache.New in single-
// session contexts.
func NewCells(n int) *Cache { return New(Config{Cells: n}) }

// Size returns the total number of cells (page-aligned capacity).
func (c *Cache) Size() int { return len(c.cells) }

// PageSize returns the cells-per-page granularity.
func (c *Cache) PageSize() int { return c.pageSize }

// Used returns the number of occupied cells.
func (c *Cache) Used() int { return c.used }

// Cell returns a copy of cell i's metadata.
func (c *Cache) Cell(i int) kvcache.Cell { return c.cells[i] }

// shardOf maps a sequence set to its owning shard. All ids of one set
// must live in one namespace window — the serving isolation contract.
func (c *Cache) shardOf(seqs kvcache.SeqSet) int {
	min := seqs.Min()
	if min < 0 {
		panic("kvpage: empty sequence set has no shard")
	}
	return int(min) / c.shardSeqs
}

// shardOfSeq maps one sequence id to its shard.
func (c *Cache) shardOfSeq(seq kvcache.SeqID) int { return int(seq) / c.shardSeqs }

// shardBase returns the first sequence id of shard s.
func (c *Cache) shardBase(s int) kvcache.SeqID { return kvcache.SeqID(s * c.shardSeqs) }

// shardSet returns the sequence-id window of shard s as a bitset.
func (c *Cache) shardSet(s int) kvcache.SeqSet {
	lo := c.shardBase(s)
	hi := lo + kvcache.SeqID(c.shardSeqs)
	if hi > kvcache.MaxSeqs {
		hi = kvcache.MaxSeqs
	}
	return kvcache.NewSeqSetRange(lo, hi)
}

// Clear empties every cell and returns every page to the free list.
func (c *Cache) Clear() {
	for i := range c.cells {
		c.cells[i] = kvcache.Cell{Pos: -1}
	}
	c.freePages = c.freePages[:0]
	for p := len(c.pageOwner) - 1; p >= 0; p-- {
		c.pageOwner[p] = noPage
		c.pageUsed[p] = 0
		c.pageShards[p] = 0
		c.pageHolds[p] = 0
		c.freePages = append(c.freePages, int32(p))
	}
	c.entries = nil
	for s := range c.shards {
		c.shards[s].pages = c.shards[s].pages[:0]
		c.shards[s].free = 0
	}
	c.used = 0
}

// CanPlace reports whether n cells can be found for the shard owning
// seqs without evicting anyone: free cells already mapped to the shard
// plus whole pages still on the free list.
func (c *Cache) CanPlace(seqs kvcache.SeqSet, n int) bool {
	sh := &c.shards[c.shardOf(seqs)]
	return sh.free+len(c.freePages)*c.pageSize >= n
}

// ShardUsed reports the occupied-cell footprint of the shard owning seqs.
func (c *Cache) ShardUsed(seqs kvcache.SeqSet) int {
	sh := &c.shards[c.shardOf(seqs)]
	return len(sh.pages)*c.pageSize - sh.free
}

// FreePages reports the number of unmapped pages on the global free list.
func (c *Cache) FreePages() int { return len(c.freePages) }

// PagesShort reports how many unmapped free-list pages a placement of n
// cells into the shard owning seqs would consume beyond the shard's own
// mapped free cells — 0 when the shard absorbs the whole placement. The
// serving layer's batch composer charges this against a shared free-page
// budget before admitting each row group of a multi-session batch, so a
// variable-length group (a prefill chunk) and a single decode row go
// through one conservative account.
func (c *Cache) PagesShort(seqs kvcache.SeqSet, n int) int {
	free := c.shards[c.shardOf(seqs)].free
	if n <= free {
		return 0
	}
	return (n - free + c.pageSize - 1) / c.pageSize
}

// FindSlotsInto finds n free cells for the shard owning seqs, appending
// into a caller-provided slice (typically scratch[:0]), so the decode hot
// path allocates nothing. Partially filled pages already owned by the
// shard are consumed first (scan order), then whole pages are mapped from
// the free list. The caller must Occupy every returned cell before the
// next FindSlotsInto; mapped pages stay with the shard until their cells
// drain. Only the owning shard's pages are ever touched: cost is
// O(session footprint), not O(cache).
func (c *Cache) FindSlotsInto(dst []int, n int, seqs kvcache.SeqSet) ([]int, error) {
	si := c.shardOf(seqs)
	sh := &c.shards[si]
	if sh.free+len(c.freePages)*c.pageSize < n {
		return nil, fmt.Errorf("kvpage: need %d cells for shard %d, have %d shard-free + %d unmapped pages of %d",
			n, si, sh.free, len(c.freePages), c.pageSize)
	}
	found := 0
	for _, p := range sh.pages {
		if found == n {
			break
		}
		if c.pageUsed[p] == int32(c.pageSize) {
			continue
		}
		base := int(p) * c.pageSize
		for s := 0; s < c.pageSize && found < n; s++ {
			if c.cells[base+s].Empty() {
				dst = append(dst, base+s)
				found++
			}
		}
	}
	for found < n {
		p := c.mapPage(si)
		base := int(p) * c.pageSize
		for s := 0; s < c.pageSize && found < n; s++ {
			dst = append(dst, base+s)
			found++
		}
	}
	return dst, nil
}

// PlaceRowsInto finds and occupies one cell per row of a (possibly
// multi-session) batch, appending the cell indices to dst and returning
// the extended slice. Consecutive rows sharing a shard are placed with
// one FindSlotsInto pass over that shard and occupied immediately, so a
// cross-session batched run — whose rows are grouped per session, one
// namespace shard each — places every session's rows inside its own
// shard: attention isolation and the O(session footprint) cost bound both
// survive batching. For a uniform single-shard batch the behaviour is
// exactly FindSlotsInto followed by per-row Occupy. A row whose sequence
// set no shard holds (checkRows) is an error, reported before any cell
// is taken.
func (c *Cache) PlaceRowsInto(dst []int, metas []kvcache.TokenMeta) ([]int, error) {
	if err := c.checkRows(metas); err != nil {
		return nil, err
	}
	for lo := 0; lo < len(metas); {
		si := c.shardOf(metas[lo].Seqs)
		hi := lo + 1
		for hi < len(metas) && c.shardOf(metas[hi].Seqs) == si {
			hi++
		}
		start := len(dst)
		d, err := c.FindSlotsInto(dst, hi-lo, metas[lo].Seqs)
		if err != nil {
			return nil, err
		}
		dst = d
		for k := start; k < len(dst); k++ {
			m := metas[lo+k-start]
			c.Occupy(dst[k], m.Pos, m.Seqs)
		}
		lo = hi
	}
	return dst, nil
}

// checkRows reports the first row whose sequence set no shard holds: an
// empty set, or one with ids outside the window of the shard its lowest
// id names.
func (c *Cache) checkRows(metas []kvcache.TokenMeta) error {
	for i, m := range metas {
		if m.Seqs == 0 {
			return fmt.Errorf("kvpage: row %d has an empty sequence set", i)
		}
		if m.Seqs&^c.shardSet(c.shardOf(m.Seqs)) != 0 {
			return fmt.Errorf("kvpage: row %d's sequence set %#x spans shards of %d ids", i, uint64(m.Seqs), c.shardSeqs)
		}
	}
	return nil
}

// CanPlaceRows reports whether PlaceRowsInto would succeed for metas,
// without occupying anything: the same consecutive-shard grouping, each
// group's demand charged first against its shard's simulated free cells
// and then against the shared unmapped-page budget (a mapped page's
// leftover cells stay with the shard, exactly as FindSlotsInto leaves
// them). The serving layer dry-runs every launch through this before
// mutating the shadow, so an admission accounting bug degrades into a
// graceful rejection instead of a mid-placement panic. Allocation-free.
func (c *Cache) CanPlaceRows(metas []kvcache.TokenMeta) bool {
	if c.checkRows(metas) != nil {
		return false
	}
	budget := len(c.freePages)
	ok := true
	touched := c.dryTouched[:0]
	for lo := 0; lo < len(metas) && ok; {
		si := c.shardOf(metas[lo].Seqs)
		hi := lo + 1
		for hi < len(metas) && c.shardOf(metas[hi].Seqs) == si {
			hi++
		}
		n := hi - lo
		if c.dryFree[si] < 0 {
			c.dryFree[si] = c.shards[si].free
			touched = append(touched, si)
		}
		take := n
		if take > c.dryFree[si] {
			take = c.dryFree[si]
		}
		c.dryFree[si] -= take
		n -= take
		if n > 0 {
			pages := (n + c.pageSize - 1) / c.pageSize
			if pages > budget {
				ok = false
				break
			}
			budget -= pages
			c.dryFree[si] += pages*c.pageSize - n
		}
		lo = hi
	}
	for _, si := range touched {
		c.dryFree[si] = -1
	}
	c.dryTouched = touched[:0]
	return ok
}

// mapPage pops a page off the free list and hands it to shard si.
func (c *Cache) mapPage(si int) int32 {
	k := len(c.freePages)
	if k == 0 {
		panic("kvpage: mapPage with empty free list")
	}
	p := c.freePages[k-1]
	c.freePages = c.freePages[:k-1]
	c.pageOwner[p] = int32(si)
	c.shards[si].pages = append(c.shards[si].pages, p)
	c.shards[si].free += c.pageSize
	return p
}

// unmapPage returns a drained page from shard si to the free list.
func (c *Cache) unmapPage(si int, p int32) {
	sh := &c.shards[si]
	for i, q := range sh.pages {
		if q == p {
			sh.pages[i] = sh.pages[len(sh.pages)-1]
			sh.pages = sh.pages[:len(sh.pages)-1]
			break
		}
	}
	sh.free -= c.pageSize
	c.pageOwner[p] = noPage
	c.freePages = append(c.freePages, p)
}

// Occupy claims cell i for a token at position pos belonging to seqs. The
// cell's page must already be mapped to the owning shard (FindSlotsInto
// does this). Occupying a non-empty cell is a bug in the caller and panics.
func (c *Cache) Occupy(i int, pos int32, seqs kvcache.SeqSet) {
	if seqs.Empty() {
		panic("kvpage: Occupy with empty sequence set")
	}
	if !c.cells[i].Empty() {
		panic(fmt.Sprintf("kvpage: Occupy of non-empty cell %d", i))
	}
	p := int32(i / c.pageSize)
	si := c.shardOf(seqs)
	if c.pageOwner[p] != int32(si) {
		panic(fmt.Sprintf("kvpage: cell %d belongs to shard %d, token to shard %d",
			i, c.pageOwner[p], si))
	}
	c.cells[i] = kvcache.Cell{Pos: pos, Seqs: seqs}
	c.pageUsed[p]++
	c.shards[si].free--
	c.used++
}

// SeqCp adds sequence dst to every cell that belongs to src with position
// in [p0, p1) — the metadata-only "copy" behind multibuffering's buffer
// swap and prefix sharing. Only src's shard is scanned; src and dst must
// live in the same shard, or it is an error. It returns the number of
// cells affected.
func (c *Cache) SeqCp(src, dst kvcache.SeqID, p0, p1 int32) (int, error) {
	si := c.shardOfSeq(src)
	if c.shardOfSeq(dst) != si {
		return 0, fmt.Errorf("kvpage: SeqCp %d->%d crosses shards", src, dst)
	}
	sh := &c.shards[si]
	n := 0
	for _, p := range sh.pages {
		base := int(p) * c.pageSize
		for s := 0; s < c.pageSize; s++ {
			cell := &c.cells[base+s]
			if cell.Empty() || !cell.Seqs.Has(src) || cell.Pos < p0 || cell.Pos >= p1 {
				continue
			}
			if !cell.Seqs.Has(dst) {
				cell.Seqs = cell.Seqs.Add(dst)
				n++
			}
		}
	}
	return n, nil
}

// SeqRm removes sequence seq from cells with position in [p0, p1); cells
// left with no sequences free (and drained pages unmap). Only seq's shard
// is scanned. It returns the number of cells freed.
func (c *Cache) SeqRm(seq kvcache.SeqID, p0, p1 int32) int {
	si := c.shardOfSeq(seq)
	sh := &c.shards[si]
	freed := 0
	for pi := 0; pi < len(sh.pages); pi++ {
		p := sh.pages[pi]
		if c.pageOwner[p] == sharedOwner {
			if c.seqRmShared(si, p, seq, p0, p1, &freed) {
				pi--
			}
			continue
		}
		base := int(p) * c.pageSize
		drained := false
		for s := 0; s < c.pageSize; s++ {
			cell := &c.cells[base+s]
			if cell.Empty() || !cell.Seqs.Has(seq) || cell.Pos < p0 || cell.Pos >= p1 {
				continue
			}
			cell.Seqs = cell.Seqs.Remove(seq)
			if cell.Seqs.Empty() {
				cell.Pos = -1
				c.pageUsed[p]--
				sh.free++
				c.used--
				freed++
				drained = c.pageUsed[p] == 0
			}
		}
		if drained {
			// unmapPage swap-removes sh.pages[pi]; revisit the slot.
			c.unmapPage(si, p)
			pi--
		}
	}
	return freed
}

// seqRmShared is SeqRm's pass over one shared page listed in shard si:
// bits strip exactly as on private pages, but a cell whose sequence set
// drains dies only when no registry entry holds the page — a held cell
// keeps its position (and its K/V row) for future mappings. A page left
// carrying no bits of si's window is delisted from the shard (and freed
// entirely once its last listing and last registry hold are gone);
// seqRmShared reports whether it delisted, so the caller iterating the
// swap-removed page list can revisit the slot.
func (c *Cache) seqRmShared(si int, p int32, seq kvcache.SeqID, p0, p1 int32, freed *int) bool {
	base := int(p) * c.pageSize
	held := c.pageHolds[p] > 0
	sset := c.shardSet(si)
	shardBits := false
	for s := 0; s < c.pageSize; s++ {
		cell := &c.cells[base+s]
		if cell.Pos < 0 {
			continue // already dead (drained while unheld)
		}
		if cell.Seqs.Has(seq) && cell.Pos >= p0 && cell.Pos < p1 {
			cell.Seqs = cell.Seqs.Remove(seq)
			if cell.Seqs.Empty() && !held {
				cell.Pos = -1
				c.used--
				*freed++
				continue
			}
		}
		if cell.Seqs.Intersects(sset) {
			shardBits = true
		}
	}
	if shardBits {
		return false
	}
	c.unlistShared(si, p)
	return true
}

// unlistShared removes shared page p from shard si's page list. The
// shard's free counter is untouched: shared pages are always full, so
// they never contributed free cells. When the last listing and the last
// registry hold are both gone the page returns to the free list.
func (c *Cache) unlistShared(si int, p int32) {
	sh := &c.shards[si]
	for i, q := range sh.pages {
		if q == p {
			sh.pages[i] = sh.pages[len(sh.pages)-1]
			sh.pages = sh.pages[:len(sh.pages)-1]
			break
		}
	}
	c.pageShards[p]--
	if c.pageShards[p] == 0 && c.pageHolds[p] == 0 {
		c.freeShared(p)
	}
}

// freeShared returns a fully dereferenced shared page to the free list.
// Every cell must already be dead: no listing means no sequence bits, no
// hold means no pinned residency.
func (c *Cache) freeShared(p int32) {
	base := int(p) * c.pageSize
	for s := 0; s < c.pageSize; s++ {
		cell := &c.cells[base+s]
		if !cell.Seqs.Empty() {
			panic(fmt.Sprintf("kvpage: freeing shared page %d with live cell %d", p, base+s))
		}
		if cell.Pos >= 0 {
			cell.Pos = -1
			c.used--
		}
	}
	c.pageUsed[p] = 0
	c.pageOwner[p] = noPage
	c.freePages = append(c.freePages, p)
}

// removeSeqsShared is RemoveSeqs's pass over one shared page listed in
// shard si; same lifecycle as seqRmShared. Reports whether the page was
// delisted from si.
func (c *Cache) removeSeqsShared(si int, p int32, mask kvcache.SeqSet, freed *int) bool {
	base := int(p) * c.pageSize
	held := c.pageHolds[p] > 0
	sset := c.shardSet(si)
	shardBits := false
	for s := 0; s < c.pageSize; s++ {
		cell := &c.cells[base+s]
		if cell.Pos < 0 {
			continue
		}
		if cell.Seqs.Intersects(mask) {
			cell.Seqs &^= mask
			if cell.Seqs.Empty() && !held {
				cell.Pos = -1
				c.used--
				*freed++
				continue
			}
		}
		if cell.Seqs.Intersects(sset) {
			shardBits = true
		}
	}
	if shardBits {
		return false
	}
	c.unlistShared(si, p)
	return true
}

// RemoveSeqs strips every sequence in mask from all cells of the mask's
// shard, freeing cells left with no sequences — the primitive behind the
// eviction ops. All ids in mask must live in one shard, or it is an
// error. It returns the number of cells freed.
func (c *Cache) RemoveSeqs(mask kvcache.SeqSet) (int, error) {
	if mask.Empty() {
		return 0, nil
	}
	si := c.shardOf(mask)
	if mask&^c.shardSet(si) != 0 {
		return 0, fmt.Errorf("kvpage: RemoveSeqs mask %#x crosses shard %d", uint64(mask), si)
	}
	sh := &c.shards[si]
	freed := 0
	for pi := 0; pi < len(sh.pages); pi++ {
		p := sh.pages[pi]
		if c.pageOwner[p] == sharedOwner {
			if c.removeSeqsShared(si, p, mask, &freed) {
				pi--
			}
			continue
		}
		base := int(p) * c.pageSize
		drained := false
		for s := 0; s < c.pageSize; s++ {
			cell := &c.cells[base+s]
			if cell.Empty() || !cell.Seqs.Intersects(mask) {
				continue
			}
			cell.Seqs &^= mask
			if cell.Seqs.Empty() {
				cell.Pos = -1
				c.pageUsed[p]--
				sh.free++
				c.used--
				freed++
				drained = c.pageUsed[p] == 0
			}
		}
		if drained {
			c.unmapPage(si, p)
			pi--
		}
	}
	return freed, nil
}

// collectChain gathers the pages holding sequence src's cells for
// positions [0, limit), in position order (page k covers positions
// [k*pageSize, (k+1)*pageSize)). It reports ok=false unless the prefix is
// whole-page shareable: limit a positive multiple of the page size, and
// every covered page completely filled by exactly one cell per position
// of its block — no holes, no duplicates, no unrelated cells. dst is
// appended to (pass a nil or scratch slice).
func (c *Cache) collectChain(dst []int32, src kvcache.SeqID, limit int32) ([]int32, bool) {
	if limit <= 0 || int(limit)%c.pageSize != 0 {
		return nil, false
	}
	nPages := int(limit) / c.pageSize
	start := len(dst)
	for i := 0; i < nPages; i++ {
		dst = append(dst, noPage)
	}
	chain := dst[start:]
	sh := &c.shards[c.shardOfSeq(src)]
	for _, p := range sh.pages {
		base := int(p) * c.pageSize
		ord, n := -1, 0
		var posSeen uint64 // pageSize <= 64 is checked by callers' configs in practice; guarded below
		for s := 0; s < c.pageSize; s++ {
			cell := &c.cells[base+s]
			if cell.Empty() || !cell.Seqs.Has(src) || cell.Pos >= limit {
				continue
			}
			o := int(cell.Pos) / c.pageSize
			if ord == -1 {
				ord = o
			}
			if o != ord {
				return nil, false // prefix cells of two blocks share a page
			}
			if c.pageSize <= 64 {
				bit := uint64(1) << uint(int(cell.Pos)%c.pageSize)
				if posSeen&bit != 0 {
					return nil, false // duplicate position
				}
				posSeen |= bit
			}
			n++
		}
		if ord == -1 {
			continue
		}
		if n != c.pageSize || chain[ord] != noPage {
			return nil, false // partially covered page, or block split across pages
		}
		chain[ord] = p
	}
	for _, p := range chain {
		if p == noPage {
			return nil, false // block missing entirely
		}
	}
	return dst, true
}

// CanShare reports whether sequence src's first limit positions are
// shareable as an immutable page chain — the head scheduler's publish
// gate before it emits a kvcache.OpSharePrefix down the pipeline.
func (c *Cache) CanShare(src kvcache.SeqID, limit int32) bool {
	_, ok := c.collectChain(nil, src, limit)
	return ok
}

// SharePrefix publishes sequence src's first limit cells as shared-prefix
// entry `entry` (kvcache.OpSharePrefix applied locally): the covered
// pages become shared — owned by no shard, listed in every shard that
// maps them, immutable until both reference counts drain — and the chain
// is registered with one registry hold per page. The donor shard's
// listing carries over, so the donor keeps seeing its own prefix. The
// entry id must be free and the prefix must satisfy CanShare, or it is
// an error and nothing changes.
func (c *Cache) SharePrefix(src kvcache.SeqID, entry int, limit int32) error {
	if _, dup := c.entries[entry]; dup {
		return fmt.Errorf("kvpage: SharePrefix reuses live entry %d", entry)
	}
	chain, ok := c.collectChain(nil, src, limit)
	if !ok {
		return fmt.Errorf("kvpage: SharePrefix seq %d limit %d is not whole-page shareable", src, limit)
	}
	if c.entries == nil {
		c.entries = make(map[int][]int32)
	}
	si := c.shardOfSeq(src)
	for _, p := range chain {
		if c.pageOwner[p] == int32(si) {
			// Private page of the donor's shard becomes shared; the
			// donor's listing is the first shard reference. Full pages
			// contribute nothing to the shard's free count, so it is
			// unchanged.
			c.pageOwner[p] = sharedOwner
			c.pageShards[p] = 1
		} else if c.pageOwner[p] != sharedOwner {
			panic(fmt.Sprintf("kvpage: SharePrefix chain page %d owned by shard %d, donor in %d",
				p, c.pageOwner[p], si))
		}
		c.pageHolds[p]++
	}
	c.entries[entry] = chain
	return nil
}

// MapShared maps the first limit cells of shared entry `entry` into
// sequence dst (kvcache.OpMapShared applied locally): the covered chain
// pages are listed in dst's shard (once — remapping is idempotent) and
// dst's bit is added to their cells, so dst's attention sees the
// donor-computed prefix with zero copying. The entry must be registered
// and limit a multiple of the page size within its chain, or it is an
// error. It returns the number of cells newly tagged.
func (c *Cache) MapShared(dst kvcache.SeqID, entry int, limit int32) (int, error) {
	chain, ok := c.entries[entry]
	if !ok {
		return 0, fmt.Errorf("kvpage: MapShared of unregistered entry %d", entry)
	}
	if limit < 0 || int(limit) > len(chain)*c.pageSize || int(limit)%c.pageSize != 0 {
		return 0, fmt.Errorf("kvpage: MapShared limit %d invalid for entry %d chain of %d pages (page size %d)",
			limit, entry, len(chain), c.pageSize)
	}
	si := c.shardOfSeq(dst)
	sh := &c.shards[si]
	n := 0
	for _, p := range chain[:int(limit)/c.pageSize] {
		listed := false
		for _, q := range sh.pages {
			if q == p {
				listed = true
				break
			}
		}
		if !listed {
			sh.pages = append(sh.pages, p)
			c.pageShards[p]++
		}
		base := int(p) * c.pageSize
		for s := 0; s < c.pageSize; s++ {
			cell := &c.cells[base+s]
			if cell.Pos < 0 {
				panic(fmt.Sprintf("kvpage: MapShared over dead cell %d of entry %d", base+s, entry))
			}
			if cell.Seqs.Has(dst) {
				continue
			}
			cell.Seqs = cell.Seqs.Add(dst)
			n++
		}
	}
	return n, nil
}

// UnrefPrefix drops the registry hold on shared entry `entry`
// (kvcache.OpUnrefPrefix applied locally). Cells kept resident only by
// the hold die; pages whose last hold and last shard listing are both
// gone return to the free list. Sessions still mapping the chain are
// untouched — their bits keep the pages alive until they drain. An
// unregistered entry is an error. It returns the number of cells freed.
func (c *Cache) UnrefPrefix(entry int) (int, error) {
	chain, ok := c.entries[entry]
	if !ok {
		return 0, fmt.Errorf("kvpage: UnrefPrefix of unregistered entry %d", entry)
	}
	delete(c.entries, entry)
	freed := 0
	for _, p := range chain {
		c.pageHolds[p]--
		if c.pageHolds[p] > 0 {
			continue
		}
		if c.pageShards[p] == 0 {
			base := int(p) * c.pageSize
			for s := 0; s < c.pageSize; s++ {
				if c.cells[base+s].Pos >= 0 && c.cells[base+s].Seqs.Empty() {
					freed++
				}
			}
			c.freeShared(p)
			continue
		}
		// Still listed by mapping shards: only the hold-pinned cells die.
		base := int(p) * c.pageSize
		for s := 0; s < c.pageSize; s++ {
			cell := &c.cells[base+s]
			if cell.Pos >= 0 && cell.Seqs.Empty() {
				cell.Pos = -1
				c.used--
				freed++
			}
		}
	}
	return freed, nil
}

// EntryLen returns the chain length (in cells) of shared entry `entry`,
// or 0 when it is not registered.
func (c *Cache) EntryLen(entry int) int32 {
	return int32(len(c.entries[entry]) * c.pageSize)
}

// SharedPages reports the number of pages currently in the shared state.
func (c *Cache) SharedPages() int {
	n := 0
	for _, o := range c.pageOwner {
		if o == sharedOwner {
			n++
		}
	}
	return n
}

// Visible reports whether a query token described by q may attend to cell
// i: they must share a sequence and the cell must not be in the query's
// future.
func (c *Cache) Visible(q kvcache.TokenMeta, i int) bool {
	cell := c.cells[i]
	return !cell.Empty() && cell.Seqs.Intersects(q.Seqs) && cell.Pos <= q.Pos
}

// VisibleCells appends to dst the indices of all cells visible to q —
// scanning only q's shard — sorted by position (ties by cell index), and
// returns the extended slice. See the package comment for why position
// order, not cell order, is the contract.
func (c *Cache) VisibleCells(dst []int, q kvcache.TokenMeta) []int {
	start := len(dst)
	sh := &c.shards[c.shardOf(q.Seqs)]
	for _, p := range sh.pages {
		base := int(p) * c.pageSize
		for s := 0; s < c.pageSize; s++ {
			if c.Visible(q, base+s) {
				dst = append(dst, base+s)
			}
		}
	}
	// Insertion sort by (pos, cell): page scans yield nearly sorted runs
	// (sessions fill pages in position order), so this is close to O(n)
	// in practice and allocation-free always.
	for i := start + 1; i < len(dst); i++ {
		ci := dst[i]
		pi := c.cells[ci].Pos
		j := i - 1
		for j >= start && (c.cells[dst[j]].Pos > pi || (c.cells[dst[j]].Pos == pi && dst[j] > ci)) {
			dst[j+1] = dst[j]
			j--
		}
		dst[j+1] = ci
	}
	return dst
}

// VisibleGroup is the visibility of the rows of a batch that share one
// sequence set. Such rows see nested cell sets — a cell visible to a row
// at position p is visible to every row of the set at a later position —
// and since a visible list is sorted by (pos, cell), each row's list is
// the prefix of the deepest row's list that ends at its own position.
type VisibleGroup struct {
	Seqs  kvcache.SeqSet
	Pos   int32 // the deepest row's position
	Cells []int // VisibleCells of the deepest row
	Rows  []int // the group's batch rows, ascending
	Lens  []int // row Rows[j] sees Cells[:Lens[j]]
}

// VisibleGroups partitions batch by sequence set, in order of each set's
// first row, and lists every group's visible cells once: for every row i
// of a group g, g.Cells[:g.Lens[j]] (with g.Rows[j] == i) is element for
// element VisibleCells(nil, batch[i]). It reuses the groups in dst[:cap]
// and the storage each holds, so a steady run of batches allocates
// nothing; every group owns its slices, so no group's list aliases
// another's.
func (c *Cache) VisibleGroups(dst []VisibleGroup, batch []kvcache.TokenMeta) []VisibleGroup {
	dst = dst[:0]
	for i, q := range batch {
		g := 0
		for g < len(dst) && dst[g].Seqs != q.Seqs {
			g++
		}
		if g == len(dst) {
			if g == cap(dst) {
				dst = append(dst, VisibleGroup{})
			}
			dst = dst[:g+1]
			dst[g].Seqs, dst[g].Pos = q.Seqs, q.Pos
			dst[g].Rows, dst[g].Lens = dst[g].Rows[:0], dst[g].Lens[:0]
		}
		dst[g].Pos = max(dst[g].Pos, q.Pos)
		dst[g].Rows = append(dst[g].Rows, i)
	}
	for g := range dst {
		grp := &dst[g]
		grp.Cells = c.VisibleCells(grp.Cells[:0], kvcache.TokenMeta{Pos: grp.Pos, Seqs: grp.Seqs})
		for _, i := range grp.Rows {
			// The first cell past the row's position, by binary search.
			lo, hi := 0, len(grp.Cells)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if c.cells[grp.Cells[mid]].Pos <= batch[i].Pos {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			grp.Lens = append(grp.Lens, lo)
		}
	}
	return dst
}

// Apply executes one pipelined cache op against the paged store — the
// kvpage counterpart of kvcache.Op.Apply. An op that decodes but that
// this cache's shards or state do not admit (a copy or window across
// shards, a share, map or unref the entries or the layout cannot back)
// is the error of the primitive that refuses it, before it mutates
// anything.
func (c *Cache) Apply(o kvcache.Op) error {
	var err error
	switch o.Kind {
	case kvcache.OpSeqCp:
		_, err = c.SeqCp(o.Src, o.Dst, o.P0, o.P1)
	case kvcache.OpSeqRm:
		c.SeqRm(o.Src, o.P0, o.P1)
	case kvcache.OpDropSpec:
		_, err = c.RemoveSeqs(o.SpecSet())
	case kvcache.OpEvictShard:
		_, err = c.RemoveSeqs(o.ShardSet())
	case kvcache.OpSharePrefix:
		err = c.SharePrefix(o.Src, int(o.Dst), o.P1)
	case kvcache.OpMapShared:
		_, err = c.MapShared(o.Src, int(o.Dst), o.P1)
	case kvcache.OpUnrefPrefix:
		_, err = c.UnrefPrefix(int(o.Dst))
	default:
		err = fmt.Errorf("kvpage: unknown op kind %d", o.Kind)
	}
	return err
}

// ApplyAll executes ops in order against c, stopping at the first op that
// cannot apply (Apply); the ops before it stay applied.
func (c *Cache) ApplyAll(ops []kvcache.Op) error {
	for _, o := range ops {
		if err := c.Apply(o); err != nil {
			return err
		}
	}
	return nil
}

// Diff reports the first difference between c and o, two caches of one
// Config: a cell, a page's owner, occupancy or reference counts, the free
// list, a shard's pages or free count, the occupied total or a shared
// entry's chain. It is nil when c is o's replica, as a stage's cache is
// the head's shadow at the same point of the transaction stream.
func (c *Cache) Diff(o *Cache) error {
	for i := range c.cells {
		if c.cells[i] != o.cells[i] {
			return fmt.Errorf("kvpage: cell %d holds %+v, not %+v", i, c.cells[i], o.cells[i])
		}
	}
	for p := range c.pageOwner {
		a := [4]int32{c.pageOwner[p], c.pageUsed[p], c.pageShards[p], c.pageHolds[p]}
		if b := [4]int32{o.pageOwner[p], o.pageUsed[p], o.pageShards[p], o.pageHolds[p]}; a != b {
			return fmt.Errorf("kvpage: page %d has owner, used, shards, holds %v, not %v", p, a, b)
		}
	}
	if !slices.Equal(c.freePages, o.freePages) {
		return fmt.Errorf("kvpage: free pages %v, not %v", c.freePages, o.freePages)
	}
	for si, sh := range c.shards {
		if oh := o.shards[si]; !slices.Equal(sh.pages, oh.pages) || sh.free != oh.free {
			return fmt.Errorf("kvpage: shard %d has pages %v, %d free, not %v, %d", si, sh.pages, sh.free, oh.pages, oh.free)
		}
	}
	if c.used != o.used {
		return fmt.Errorf("kvpage: %d cells used, not %d", c.used, o.used)
	}
	if len(c.entries) != len(o.entries) {
		return fmt.Errorf("kvpage: %d shared entries, not %d", len(c.entries), len(o.entries))
	}
	for e, chain := range c.entries {
		if oc, ok := o.entries[e]; !ok || !slices.Equal(chain, oc) {
			return fmt.Errorf("kvpage: entry %d has chain %v, not %v", e, chain, oc)
		}
	}
	return nil
}

// CheckInvariants validates internal consistency: cell/counter agreement,
// page accounting, shard ownership (every occupied cell's sequences lie
// inside its page's shard window — for shared pages, inside the union of
// the windows of the shards listing them), free-list integrity, and the
// shared-prefix reference counts against the shard page lists and the
// entry registry. A shared page may appear in many shards' lists but is
// counted exactly once in the global page accounting and contributes zero
// free cells to every shard listing it.
func (c *Cache) CheckInvariants() error {
	// Pass 1: reconstruct shared-page references from the shard lists and
	// the entry registry.
	listings := make([]int32, len(c.pageOwner))
	listedSet := make([]kvcache.SeqSet, len(c.pageOwner))
	for si := range c.shards {
		for _, p := range c.shards[si].pages {
			if c.pageOwner[p] == sharedOwner {
				listings[p]++
				listedSet[p] |= c.shardSet(si)
			}
		}
	}
	holds := make([]int32, len(c.pageOwner))
	for e, chain := range c.entries {
		if len(chain) == 0 {
			return fmt.Errorf("kvpage: entry %d has empty chain", e)
		}
		for ord, p := range chain {
			if c.pageOwner[p] != sharedOwner {
				return fmt.Errorf("kvpage: entry %d chain page %d not shared (owner %d)", e, p, c.pageOwner[p])
			}
			holds[p]++
			base := int(p) * c.pageSize
			for s := 0; s < c.pageSize; s++ {
				cell := c.cells[base+s]
				if cell.Pos >= 0 && int(cell.Pos)/c.pageSize != ord {
					return fmt.Errorf("kvpage: entry %d chain page %d (block %d) holds cell at pos %d",
						e, p, ord, cell.Pos)
				}
			}
		}
	}
	used := 0
	sharedPages := 0
	for p := range c.pageOwner {
		if c.pageShards[int32(p)] != listings[p] {
			return fmt.Errorf("kvpage: page %d shard-ref counter %d != actual listings %d",
				p, c.pageShards[p], listings[p])
		}
		if c.pageHolds[int32(p)] != holds[p] {
			return fmt.Errorf("kvpage: page %d hold counter %d != registry %d", p, c.pageHolds[p], holds[p])
		}
		shared := c.pageOwner[p] == sharedOwner
		if shared {
			sharedPages++
			if listings[p] == 0 && holds[p] == 0 {
				return fmt.Errorf("kvpage: shared page %d leaked (no listings, no holds)", p)
			}
			if c.pageUsed[p] != int32(c.pageSize) {
				return fmt.Errorf("kvpage: shared page %d used counter %d not pinned to page size", p, c.pageUsed[p])
			}
		} else if listings[p] != 0 || holds[p] != 0 {
			return fmt.Errorf("kvpage: non-shared page %d has %d listings / %d holds", p, listings[p], holds[p])
		}
		base := p * c.pageSize
		pUsed := int32(0)
		for s := 0; s < c.pageSize; s++ {
			cell := c.cells[base+s]
			if shared {
				switch {
				case cell.Pos < 0 && !cell.Empty():
					return fmt.Errorf("kvpage: shared cell %d dead but carries seqs %#x", base+s, uint64(cell.Seqs))
				case cell.Pos >= 0 && cell.Empty() && holds[p] == 0:
					return fmt.Errorf("kvpage: shared cell %d resident without seqs or holds", base+s)
				}
				if cell.Seqs&^listedSet[p] != 0 {
					return fmt.Errorf("kvpage: shared cell %d seqs %#x escape listing shards %#x",
						base+s, uint64(cell.Seqs), uint64(listedSet[p]))
				}
			} else {
				switch {
				case cell.Empty() && cell.Pos != -1:
					return fmt.Errorf("kvpage: cell %d empty but pos=%d", base+s, cell.Pos)
				case !cell.Empty() && cell.Pos < 0:
					return fmt.Errorf("kvpage: cell %d occupied but pos=%d", base+s, cell.Pos)
				}
			}
			if cell.Pos >= 0 {
				used++
			}
			if cell.Empty() {
				continue
			}
			pUsed++
			owner := c.pageOwner[p]
			if owner == noPage {
				return fmt.Errorf("kvpage: occupied cell %d on free page %d", base+s, p)
			}
			if !shared && cell.Seqs&^c.shardSet(int(owner)) != 0 {
				return fmt.Errorf("kvpage: cell %d seqs %#x escape shard %d",
					base+s, uint64(cell.Seqs), owner)
			}
		}
		if !shared && pUsed != c.pageUsed[p] {
			return fmt.Errorf("kvpage: page %d used counter %d != actual %d", p, c.pageUsed[p], pUsed)
		}
		if c.pageOwner[p] == noPage && pUsed != 0 {
			return fmt.Errorf("kvpage: free page %d has %d occupied cells", p, pUsed)
		}
	}
	if used != c.used {
		return fmt.Errorf("kvpage: used counter %d != actual %d", c.used, used)
	}
	mapped := 0
	for si := range c.shards {
		sh := &c.shards[si]
		free := 0
		for _, p := range sh.pages {
			if c.pageOwner[p] == sharedOwner {
				// Listed shared page: must still carry at least one live
				// bit of this shard's window, and contributes no free
				// cells. Counted once globally below, not per listing.
				base := int(p) * c.pageSize
				live := false
				for s := 0; s < c.pageSize; s++ {
					if c.cells[base+s].Seqs.Intersects(c.shardSet(si)) {
						live = true
						break
					}
				}
				if !live {
					return fmt.Errorf("kvpage: shard %d lists shared page %d without any of its bits", si, p)
				}
				continue
			}
			if c.pageOwner[p] != int32(si) {
				return fmt.Errorf("kvpage: shard %d lists page %d owned by %d", si, p, c.pageOwner[p])
			}
			free += c.pageSize - int(c.pageUsed[p])
			if c.pageUsed[p] == 0 {
				return fmt.Errorf("kvpage: shard %d holds drained page %d", si, p)
			}
			mapped++
		}
		if free != sh.free {
			return fmt.Errorf("kvpage: shard %d free counter %d != actual %d", si, sh.free, free)
		}
	}
	if mapped+sharedPages+len(c.freePages) != len(c.pageOwner) {
		return fmt.Errorf("kvpage: %d mapped + %d shared + %d free pages != %d total",
			mapped, sharedPages, len(c.freePages), len(c.pageOwner))
	}
	return nil
}
