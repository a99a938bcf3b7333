package kvpage

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
)

// diffHarness drives identical operation sequences through the paged
// cache and the flat reference cache and holds them to identical
// observable behaviour: occupancy, per-sequence lengths and max
// positions (the flat store's scans against the paged store's visible
// cells), and visible-cell sets (compared as position/sequence-set
// multisets — cell numbering is an implementation detail).
type diffHarness struct {
	t     testing.TB
	paged *Cache
	flat  *kvcache.Cache
	cfg   Config
	// nextPos tracks a plausible next position per sequence so occupied
	// batches look like real decode traffic (monotone per sequence).
	nextPos [kvcache.MaxSeqs]int32
	scratch []int
	// liveEntries tracks registered shared-prefix entry ids, mirroring
	// the scheduler's registry so share/map/unref steps stay well-formed.
	liveEntries []int
}

func newDiffHarness(t testing.TB, cfg Config) *diffHarness {
	paged := New(cfg)
	return &diffHarness{
		t:     t,
		paged: paged,
		flat:  kvcache.New(paged.Size()),
		cfg:   cfg,
	}
}

func (d *diffHarness) shardWidth() int {
	if d.cfg.ShardSeqs <= 0 || d.cfg.ShardSeqs > kvcache.MaxSeqs {
		return kvcache.MaxSeqs
	}
	return d.cfg.ShardSeqs
}

// seqInShard maps (shard, lane) to a concrete sequence id.
func (d *diffHarness) seqInShard(shard, lane int) kvcache.SeqID {
	w := d.shardWidth()
	return kvcache.SeqID(shard*w + lane%w)
}

func (d *diffHarness) nShards() int { return (kvcache.MaxSeqs + d.shardWidth() - 1) / d.shardWidth() }

// occupyBatch places n cells for seq in both caches (same positions and
// sequence sets; cell choice is each implementation's own). A paged
// refusal — which can be stricter than flat thanks to page granularity —
// skips the batch in both, keeping them in sync.
func (d *diffHarness) occupyBatch(seq kvcache.SeqID, n int) {
	seqs := kvcache.NewSeqSet(seq)
	pagedCells, err := d.paged.FindSlotsInto(d.scratch[:0], n, seqs)
	if err != nil {
		return
	}
	d.scratch = pagedCells[:0]
	flatCells, err := d.flat.FindSlots(n)
	if err != nil {
		d.t.Fatalf("flat refused %d cells the paged cache granted: %v", n, err)
	}
	for i := 0; i < n; i++ {
		pos := d.nextPos[seq]
		d.nextPos[seq]++
		d.paged.Occupy(pagedCells[i], pos, seqs)
		d.flat.Occupy(flatCells[i], pos, seqs)
	}
}

func (d *diffHarness) apply(op kvcache.Op) {
	op.Apply(d.flat)
	d.paged.Apply(op)
	switch op.Kind {
	case kvcache.OpSeqRm, kvcache.OpDropSpec, kvcache.OpEvictShard,
		kvcache.OpMapShared, kvcache.OpUnrefPrefix:
		d.resyncNextPos()
	}
}

// shareStep publishes seq's first `blocks` pages as a fresh entry in both
// stores, gated on the paged store's CanShare — the same gate the head
// scheduler uses — so ill-formed donors (holes, duplicate positions,
// split blocks) are skipped identically.
func (d *diffHarness) shareStep(seq kvcache.SeqID, blocks int) {
	limit := int32(blocks * d.paged.PageSize())
	if !d.paged.CanShare(seq, limit) {
		return
	}
	entry := -1
	for id := 0; id < 16; id++ {
		free := true
		for _, e := range d.liveEntries {
			if e == id {
				free = false
				break
			}
		}
		if free {
			entry = id
			break
		}
	}
	if entry < 0 {
		return
	}
	d.apply(kvcache.Op{Kind: kvcache.OpSharePrefix, Src: seq, Dst: kvcache.SeqID(entry), P1: limit})
	d.liveEntries = append(d.liveEntries, entry)
}

// mapStep maps a live entry's prefix (page-aligned, possibly partial)
// into dst in both stores.
func (d *diffHarness) mapStep(dst kvcache.SeqID, pick, blocks int) {
	if len(d.liveEntries) == 0 {
		return
	}
	entry := d.liveEntries[pick%len(d.liveEntries)]
	ps := int32(d.paged.PageSize())
	maxBlocks := d.paged.EntryLen(entry) / ps
	limit := (int32(blocks)%maxBlocks + 1) * ps
	d.apply(kvcache.Op{Kind: kvcache.OpMapShared, Src: dst, Dst: kvcache.SeqID(entry), P1: limit})
}

// unrefStep drops a live entry's registry hold in both stores.
func (d *diffHarness) unrefStep(pick int) {
	if len(d.liveEntries) == 0 {
		return
	}
	i := pick % len(d.liveEntries)
	entry := d.liveEntries[i]
	d.liveEntries[i] = d.liveEntries[len(d.liveEntries)-1]
	d.liveEntries = d.liveEntries[:len(d.liveEntries)-1]
	d.apply(kvcache.Op{Kind: kvcache.OpUnrefPrefix, Dst: kvcache.SeqID(entry)})
}

func (d *diffHarness) resyncNextPos() {
	for id := kvcache.SeqID(0); id < kvcache.MaxSeqs; id++ {
		d.nextPos[id] = d.flat.SeqMaxPos(id) + 1
	}
}

// visKey renders a visible cell as its observable identity.
func visKey(pos int32, seqs kvcache.SeqSet) string { return fmt.Sprintf("%d/%x", pos, uint64(seqs)) }

func (d *diffHarness) compare() {
	t := d.t
	if err := d.paged.CheckInvariants(); err != nil {
		t.Fatalf("paged invariants: %v", err)
	}
	if err := d.flat.CheckInvariants(); err != nil {
		t.Fatalf("flat invariants: %v", err)
	}
	if d.paged.Used() != d.flat.Used() {
		t.Fatalf("occupancy diverged: paged %d, flat %d", d.paged.Used(), d.flat.Used())
	}
	if fe := d.flat.Entries(); fe != len(d.liveEntries) {
		t.Fatalf("entry registries diverged: flat %d, harness %d", fe, len(d.liveEntries))
	}
	// Every entry id an op can carry: an unregistered one has length 0.
	for e := range 256 {
		if pl, fl := d.paged.EntryLen(e), d.flat.EntryLen(e); pl != fl {
			t.Fatalf("entry %d length diverged: paged %d, flat %d", e, pl, fl)
		}
	}
	for id := kvcache.SeqID(0); id < kvcache.MaxSeqs; id++ {
		// A query past every position sees all of the sequence's cells,
		// the deepest last: its length and max position.
		all := d.paged.VisibleCells(nil, kvcache.TokenMeta{Pos: math.MaxInt32, Seqs: kvcache.NewSeqSet(id)})
		if pl, fl := len(all), d.flat.SeqLen(id); pl != fl {
			t.Fatalf("seq %d length diverged: paged %d, flat %d", id, pl, fl)
		}
		if len(all) == 0 {
			continue
		}
		if pm, fm := d.paged.Cell(all[len(all)-1]).Pos, d.flat.SeqMaxPos(id); pm != fm {
			t.Fatalf("seq %d max-pos diverged: paged %d, flat %d", id, pm, fm)
		}
		// Visible-set equality for a query at the sequence frontier.
		q := kvcache.TokenMeta{Pos: d.flat.SeqMaxPos(id), Seqs: kvcache.NewSeqSet(id)}
		var pv, fv []string
		for _, c := range d.paged.VisibleCells(nil, q) {
			cell := d.paged.Cell(c)
			pv = append(pv, visKey(cell.Pos, cell.Seqs))
		}
		for _, c := range d.flat.VisibleCells(nil, q) {
			cell := d.flat.Cell(c)
			fv = append(fv, visKey(cell.Pos, cell.Seqs))
		}
		sort.Strings(pv)
		sort.Strings(fv)
		if len(pv) != len(fv) {
			t.Fatalf("seq %d visible-set size diverged: paged %d, flat %d", id, len(pv), len(fv))
		}
		for i := range pv {
			if pv[i] != fv[i] {
				t.Fatalf("seq %d visible set diverged at %d: paged %s, flat %s", id, i, pv[i], fv[i])
			}
		}
		// Paged visibility must come back position-sorted.
		last := int32(-1)
		for _, c := range d.paged.VisibleCells(nil, q) {
			if p := d.paged.Cell(c).Pos; p < last {
				t.Fatalf("seq %d paged visibility out of position order", id)
			} else {
				last = p
			}
		}
	}
}

// step decodes one pseudo-random operation and applies it to both caches.
func (d *diffHarness) step(rng *rand.Rand) {
	w := d.shardWidth()
	shard := rng.Intn(min(d.nShards(), 8))
	base := kvcache.SeqID(shard * w)
	switch k := rng.Intn(100); {
	case k < 45:
		d.occupyBatch(d.seqInShard(shard, rng.Intn(w)), 1+rng.Intn(4))
	case k < 60:
		src := d.seqInShard(shard, rng.Intn(w))
		dst := d.seqInShard(shard, rng.Intn(w))
		hi := d.nextPos[src]
		if hi <= 0 {
			return
		}
		p0 := rng.Int31n(hi + 1)
		d.apply(kvcache.Op{Kind: kvcache.OpSeqCp, Src: src, Dst: dst, P0: p0, P1: p0 + rng.Int31n(8) + 1})
	case k < 76:
		seq := d.seqInShard(shard, rng.Intn(w))
		p0 := rng.Int31n(d.nextPos[seq] + 1)
		p1 := p0 + rng.Int31n(16) + 1
		if rng.Intn(4) == 0 {
			p1 = 1 << 30
		}
		d.apply(kvcache.Op{Kind: kvcache.OpSeqRm, Src: seq, P0: p0, P1: p1})
	case k < 82 && w > 1:
		d.apply(kvcache.Op{Kind: kvcache.OpDropSpec, Src: base, Dst: kvcache.SeqID(w)})
	case k < 86:
		d.apply(kvcache.Op{Kind: kvcache.OpEvictShard, Src: base, Dst: kvcache.SeqID(w)})
	case k < 91:
		d.shareStep(d.seqInShard(shard, rng.Intn(w)), 1+rng.Intn(3))
	case k < 96:
		d.mapStep(d.seqInShard(shard, rng.Intn(w)), rng.Intn(16), rng.Intn(4))
	case k < 99:
		d.unrefStep(rng.Intn(16))
	}
}

// TestDifferentialRandomOps is the paged-vs-flat property test: long
// random op sequences (occupy / cp / rm / drop-spec / evict / share /
// map / unref) through both stores, with full-state comparison along the
// way.
func TestDifferentialRandomOps(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"multi-shard", Config{Cells: 256, PageSize: 8, ShardSeqs: 4}},
		{"single-shard", Config{Cells: 128, PageSize: 16}},
		{"tiny-pages", Config{Cells: 96, PageSize: 2, ShardSeqs: 8}},
	}
	for _, tc := range configs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				d := newDiffHarness(t, tc.cfg)
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 3000; i++ {
					d.step(rng)
					if i%101 == 0 {
						d.compare()
					}
				}
				d.compare()
			}
		})
	}
}

// FuzzDifferentialOps feeds byte-derived op streams through the harness:
// every 3 bytes decode one operation. The fuzzer hunts for any operation
// interleaving where the paged cache's observable state diverges from
// the flat reference.
func FuzzDifferentialOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x40, 0x00, 0x05, 0x90, 0x01, 0x00})
	f.Add([]byte{0x20, 0x03, 0x01, 0x55, 0x02, 0x03, 0x5e, 0x01, 0x07, 0x60, 0x00, 0x10})
	// Shared-prefix lifecycle: occupy one whole page, publish it, map it
	// into another shard, drop the registry hold, evict the donor.
	f.Add([]byte{0x00, 0x00, 0x03, 0x05, 0x00, 0x00, 0x06, 0x10, 0x00, 0x07, 0x00, 0x00, 0x04, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		d := newDiffHarness(t, Config{Cells: 64, PageSize: 4, ShardSeqs: 4})
		w := 4
		for i := 0; i+3 <= len(data); i += 3 {
			k, a, b := data[i], data[i+1], data[i+2]
			shard := int(a>>4) % 4
			base := kvcache.SeqID(shard * w)
			seq := base + kvcache.SeqID(int(a)%w)
			switch k % 8 {
			case 0:
				d.occupyBatch(seq, 1+int(b)%4)
			case 1:
				dst := base + kvcache.SeqID(int(b)%w)
				hi := d.nextPos[seq]
				if hi > 0 {
					p0 := int32(b) % hi
					d.apply(kvcache.Op{Kind: kvcache.OpSeqCp, Src: seq, Dst: dst, P0: p0, P1: p0 + int32(k%7) + 1})
				}
			case 2:
				p0 := int32(b) % (d.nextPos[seq] + 1)
				d.apply(kvcache.Op{Kind: kvcache.OpSeqRm, Src: seq, P0: p0, P1: p0 + int32(k%11) + 1})
			case 3:
				d.apply(kvcache.Op{Kind: kvcache.OpDropSpec, Src: base, Dst: kvcache.SeqID(w)})
			case 4:
				d.apply(kvcache.Op{Kind: kvcache.OpEvictShard, Src: base, Dst: kvcache.SeqID(w)})
			case 5:
				d.shareStep(seq, 1+int(b)%3)
			case 6:
				d.mapStep(seq, int(b)>>4, int(b)%4)
			case 7:
				d.unrefStep(int(b))
			}
		}
		d.compare()
	})
}
