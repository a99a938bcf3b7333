package model

import (
	"math"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// groupedTraffic drives a paged cache the way a serving stage sees it:
// multi-session batches of prefill chunks and speculative rows placed
// through one Scratch, between which speculative partitions are copied,
// dropped and truncated, prefixes are published and mapped, and whole
// sessions are evicted so their pages recycle.
type groupedTraffic struct {
	rng     *tensor.RNG
	cache   *kvpage.Cache
	sc      *Scratch
	next    [kvcache.MaxSeqs]int32
	entries []int
	toks    []token.Token
	meta    []kvcache.TokenMeta
}

const trafficSeqs = 4 // sequence ids per session namespace: one canonical, three speculative

func (g *groupedTraffic) intn(n int) int { return int(g.rng.Uint64() % uint64(n)) }

// batch composes and places one run: 1-4 sessions' row groups, each a
// prefill chunk over the canonical sequence or a speculative micro-batch
// whose rows belong to random subsets of the session's sequences.
func (g *groupedTraffic) batch() (*Batch, error) {
	g.meta = g.meta[:0]
	first := g.intn(4)
	for k := 0; k <= g.intn(4); k++ {
		base := kvcache.SeqID((first + k) % 4 * trafficSeqs)
		if g.intn(2) == 0 {
			seqs := kvcache.NewSeqSet(base)
			for j := 0; j < 1+g.intn(24); j++ {
				g.meta = append(g.meta, kvcache.TokenMeta{Pos: g.next[base] + int32(j), Seqs: seqs})
			}
			continue
		}
		for j := 0; j < 1+g.intn(6); j++ {
			var seqs kvcache.SeqSet
			for seqs.Empty() {
				seqs = kvcache.SeqSet(g.rng.Uint64()&(1<<trafficSeqs-1)) << uint(base)
			}
			g.meta = append(g.meta, kvcache.TokenMeta{Pos: g.next[seqs.Min()] + int32(g.intn(3)), Seqs: seqs})
		}
	}
	g.toks = g.toks[:0]
	for range g.meta {
		g.toks = append(g.toks, token.BOS)
	}
	b, err := g.sc.BatchFor(g.cache, g.toks, g.meta)
	if err != nil { // out of cells: start over
		for _, e := range g.entries {
			g.cache.UnrefPrefix(e)
		}
		g.entries = g.entries[:0]
		for s := range 4 {
			g.cache.RemoveSeqs(kvcache.NewSeqSetRange(kvcache.SeqID(s*trafficSeqs), kvcache.SeqID((s+1)*trafficSeqs)))
		}
		g.next = [kvcache.MaxSeqs]int32{}
		return nil, nil
	}
	for _, m := range g.meta {
		for id := kvcache.SeqID(0); id < kvcache.MaxSeqs; id++ {
			if m.Seqs.Has(id) {
				g.next[id] = max(g.next[id], m.Pos+1)
			}
		}
	}
	return b, err
}

// churn applies one cache operation between runs.
func (g *groupedTraffic) churn() {
	ns := kvcache.Namespace{Base: kvcache.SeqID(g.intn(4) * trafficSeqs), Width: trafficSeqs}
	seq := ns.Base + kvcache.SeqID(g.intn(trafficSeqs))
	ps := int32(g.cache.PageSize())
	switch g.intn(8) {
	case 0, 1: // promote a speculative partition's prefix, or branch one
		p0 := int32(g.intn(int(g.next[ns.Base]) + 1))
		g.cache.SeqCp(ns.Base+kvcache.SeqID(g.intn(trafficSeqs)), seq, p0, p0+int32(1+g.intn(8)))
	case 2: // roll a sequence back
		g.cache.SeqRm(seq, int32(g.intn(int(g.next[seq])+1)), 1<<30)
	case 3:
		g.cache.Apply(kvcache.Op{Kind: kvcache.OpDropSpec, Src: ns.Base, Dst: kvcache.SeqID(ns.Width)})
	case 4: // preempt: the session's pages recycle
		g.cache.RemoveSeqs(kvcache.NewSeqSetRange(ns.Base, ns.Base+kvcache.SeqID(ns.Width)))
	case 5:
		entry := len(g.entries)
		if limit := g.next[ns.Base] / ps * ps; entry < 8 && limit > 0 && g.cache.CanShare(ns.Base, limit) {
			g.cache.SharePrefix(ns.Base, entry, limit)
			g.entries = append(g.entries, entry)
		}
	case 6: // admit a new session over a published prefix
		if len(g.entries) > 0 {
			entry := g.entries[g.intn(len(g.entries))]
			g.cache.RemoveSeqs(kvcache.NewSeqSetRange(ns.Base, ns.Base+kvcache.SeqID(ns.Width)))
			g.cache.MapShared(ns.Base, entry, g.cache.EntryLen(entry))
		}
	case 7:
		if n := len(g.entries); n > 0 {
			g.cache.UnrefPrefix(g.entries[n-1])
			g.entries = g.entries[:n-1]
		}
	}
	var vis []int
	for id := kvcache.SeqID(0); id < kvcache.MaxSeqs; id++ {
		// One past the sequence's deepest cell, the last it sees.
		vis = g.cache.VisibleCells(vis[:0], kvcache.TokenMeta{Pos: math.MaxInt32, Seqs: kvcache.NewSeqSet(id)})
		g.next[id] = 0
		if n := len(vis); n > 0 {
			g.next[id] = g.cache.Cell(vis[n-1]).Pos + 1
		}
	}
}

// TestVisibleGroupsMatchPerRow is the grouping's contract: across
// consecutive BatchFor calls on one Scratch, every row of every batch
// lands in exactly one group, of its own sequence set, and its prefix of
// the group's list is element for element the list VisibleCells returns
// for the row alone.
func TestVisibleGroupsMatchPerRow(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g := &groupedTraffic{
			rng:   tensor.NewRNG(seed),
			cache: kvpage.New(kvpage.Config{Cells: 512, PageSize: 8, ShardSeqs: trafficSeqs}),
			sc:    NewScratch(TinyConfig()),
		}
		multi := 0
		for step := 0; step < 300; step++ {
			b, _ := g.batch()
			if b != nil {
				if len(b.Groups) > 1 {
					multi++
				}
				checkGroups(t, g.cache, b)
			}
			for range g.intn(3) {
				g.churn()
			}
			if err := g.cache.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		if multi < 100 {
			t.Fatalf("seed %d: only %d of 300 batches had more than one group", seed, multi)
		}
	}
}

func checkGroups(t *testing.T, cache *kvpage.Cache, b *Batch) {
	t.Helper()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, b.Len())
	for _, grp := range b.Groups {
		for j, r := range grp.Rows {
			if seen[r] {
				t.Fatalf("row %d in two groups", r)
			}
			seen[r] = true
			if grp.Seqs != b.Meta[r].Seqs {
				t.Fatalf("row %d (seqs %x) grouped under %x", r, uint64(b.Meta[r].Seqs), uint64(grp.Seqs))
			}
			want := cache.VisibleCells(nil, b.Meta[r])
			got := grp.Cells[:grp.Lens[j]]
			if len(got) != len(want) {
				t.Fatalf("row %d at pos %d sees %d cells grouped, %d alone", r, b.Meta[r].Pos, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d: grouped list %v differs from per-row %v at %d", r, got, want, i)
				}
			}
		}
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("row %d in no group", r)
		}
	}
}
