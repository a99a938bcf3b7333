package kvcache

import "fmt"

// OpKind enumerates the cache operations that travel through the pipeline
// as transactions (§IV-C.3): cache commands are not broadcast but pipelined
// in order with the activation traffic, which is what guarantees that a
// later run observes exactly the cache state the head intended.
type OpKind uint8

const (
	// OpSeqCp copies (metadata-only) Src -> Dst over [P0, P1).
	OpSeqCp OpKind = iota
	// OpSeqRm removes Src over [P0, P1).
	OpSeqRm
	// 2 is retired (the decoder rejects it), so the kinds after it keep
	// their wire values.
	_
	// OpDropSpec clears a namespace's speculative partitions: every
	// sequence in [Src+1, Src+Dst) is removed from all cells (Src is the
	// namespace base, Dst its width). Cells shared with the canonical
	// sequence survive; speculative-only cells are freed. This is the
	// serving scheduler's first memory-pressure response, broadcast down
	// the pipeline as a KV transaction like every other cache op.
	OpDropSpec
	// OpEvictShard evicts a whole namespace: every sequence in
	// [Src, Src+Dst) is removed from all cells, freeing the session's
	// entire KV footprint. The scheduler issues it when preempting an
	// idle session; the parked request is later readmitted by
	// re-prefilling its accepted prefix.
	OpEvictShard
	// OpSharePrefix publishes sequence Src's first P1 cells as the
	// immutable shared-prefix entry Dst (Dst carries an entry id, not a
	// sequence id). Each cache collects the donor's cells covering
	// positions [0, P1) locally — the paged store requires them to fill
	// whole pages — and registers the chain in its own entry registry
	// with one registry hold, so physical ids never cross the wire: like
	// every cache op the share is replayed in transaction order and each
	// replica resolves it against its own layout. Held cells stay
	// resident after the donor's sequences drain, which is what lets a
	// later OpMapShared serve another session's matching prompt prefix
	// without recomputation.
	OpSharePrefix
	// OpMapShared maps the first P1 cells of shared entry Dst into
	// sequence Src: the mapping session's canonical id is added to every
	// covered cell, so its attention sees the donor-computed prefix
	// read-only. P1 must respect the registering store's page
	// granularity; cells past the mapped prefix stay private, so the
	// session's first write past the share allocates fresh pages — no
	// copying ever.
	OpMapShared
	// OpUnrefPrefix drops the registry hold on shared entry Dst. Cells
	// kept resident only by the hold are freed; cells still mapped into
	// sessions survive until their last sequence bit drains.
	OpUnrefPrefix
)

// Op is one serialisable cache command.
type Op struct {
	Kind     OpKind
	Src, Dst SeqID
	P0, P1   int32
}

// String renders the op for traces and test failures.
func (o Op) String() string {
	switch o.Kind {
	case OpSeqCp:
		return fmt.Sprintf("cp(%d->%d, [%d,%d))", o.Src, o.Dst, o.P0, o.P1)
	case OpSeqRm:
		return fmt.Sprintf("rm(%d, [%d,%d))", o.Src, o.P0, o.P1)
	case OpDropSpec:
		return fmt.Sprintf("dropspec(ns %d+%d)", o.Src, o.Dst)
	case OpEvictShard:
		return fmt.Sprintf("evict(ns %d+%d)", o.Src, o.Dst)
	case OpSharePrefix:
		return fmt.Sprintf("share(%d -> entry %d, [0,%d))", o.Src, o.Dst, o.P1)
	case OpMapShared:
		return fmt.Sprintf("map(entry %d -> %d, [0,%d))", o.Dst, o.Src, o.P1)
	case OpUnrefPrefix:
		return fmt.Sprintf("unref(entry %d)", o.Dst)
	default:
		return fmt.Sprintf("op(%d)", o.Kind)
	}
}

// SpecSet returns the sequence set an OpDropSpec clears: the namespace's
// non-canonical ids.
func (o Op) SpecSet() SeqSet { return NewSeqSetRange(o.Src+1, o.Src+o.Dst) }

// ShardSet returns the sequence set an OpEvictShard clears: every id of
// the namespace.
func (o Op) ShardSet() SeqSet { return NewSeqSetRange(o.Src, o.Src+o.Dst) }

// Apply executes the op against c.
func (o Op) Apply(c *Cache) {
	switch o.Kind {
	case OpSeqCp:
		c.SeqCp(o.Src, o.Dst, o.P0, o.P1)
	case OpSeqRm:
		c.SeqRm(o.Src, o.P0, o.P1)
	case OpDropSpec:
		c.RemoveSeqs(o.SpecSet())
	case OpEvictShard:
		c.RemoveSeqs(o.ShardSet())
	case OpSharePrefix:
		c.SharePrefix(o.Src, int(o.Dst), o.P1)
	case OpMapShared:
		c.MapShared(o.Src, int(o.Dst), o.P1)
	case OpUnrefPrefix:
		c.UnrefPrefix(int(o.Dst))
	default:
		panic("kvcache: unknown op kind")
	}
}

// ApplyAll executes ops in order against c.
func ApplyAll(c *Cache, ops []Op) {
	for _, o := range ops {
		o.Apply(c)
	}
}

// AppendOps appends the wire encoding of ops to buf and returns it,
// letting callers serialise into pooled message buffers.
func AppendOps(buf []byte, ops []Op) []byte {
	for _, o := range ops {
		buf = append(buf, byte(o.Kind), byte(o.Src), byte(o.Dst))
		buf = appendI32(buf, o.P0)
		buf = appendI32(buf, o.P1)
	}
	return buf
}

// AppendDecodeOps decodes buf's ops, appending them to ops, so a receiver
// that decodes into one reused slice allocates nothing once it has grown.
// It rejects what no sender encodes — an unknown kind (the retired 2
// among them), a sequence id at or above MaxSeqs, and a namespace op
// whose window is empty or ends past MaxSeqs — so a malformed frame is
// an error for the stage loop to return, not a panic in a cache.
func AppendDecodeOps(ops []Op, buf []byte) ([]Op, error) {
	if len(buf)%11 != 0 {
		return nil, fmt.Errorf("kvcache: op buffer length %d not a multiple of 11", len(buf))
	}
	for i := 0; i < len(buf); i += 11 {
		o := Op{
			Kind: OpKind(buf[i]),
			Src:  SeqID(buf[i+1]),
			Dst:  SeqID(buf[i+2]),
			P0:   readI32(buf[i+3:]),
			P1:   readI32(buf[i+7:]),
		}
		if err := o.check(); err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// check reports whether o is an op a sender could have encoded: a known
// kind whose sequence ids, and namespace window, lie inside [0, MaxSeqs).
// Dst carries an entry id, not a sequence id, in the shared-prefix ops.
func (o Op) check() error {
	var end SeqID // one past the largest sequence id o names
	switch o.Kind {
	case OpSeqCp:
		end = max(o.Src, o.Dst) + 1
	case OpSeqRm, OpSharePrefix, OpMapShared:
		end = o.Src + 1
	case OpDropSpec, OpEvictShard:
		if o.Dst < 1 {
			return fmt.Errorf("kvcache: %v has an empty namespace window", o)
		}
		end = o.Src + o.Dst
	case OpUnrefPrefix:
	default:
		return fmt.Errorf("kvcache: unknown op kind %d", o.Kind)
	}
	if end > MaxSeqs {
		return fmt.Errorf("kvcache: %v names a sequence id past %d", o, MaxSeqs-1)
	}
	return nil
}

func appendI32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func readI32(b []byte) int32 {
	return int32(b[0]) | int32(b[1])<<8 | int32(b[2])<<16 | int32(b[3])<<24
}

// SeqAllocator hands out sequence partitions on a FIFO policy (§IV-C: "a
// queue stores the currently free sequence identifiers"). Sequence 0 is
// reserved for the canonical sequence and never allocated.
type SeqAllocator struct {
	free []SeqID
}

// NewSeqAllocatorRange creates an allocator managing sequence ids
// [lo, hi). The serving layer uses it to hand each session the speculative
// ids of its own namespace window; id 0 (the global canonical sequence)
// is never allocatable.
func NewSeqAllocatorRange(lo, hi SeqID) *SeqAllocator {
	if lo < 1 || hi <= lo || hi > MaxSeqs {
		panic(fmt.Sprintf("kvcache: seq allocator range [%d,%d) invalid", lo, hi))
	}
	a := &SeqAllocator{free: make([]SeqID, 0, hi-lo)}
	for id := lo; id < hi; id++ {
		a.free = append(a.free, id)
	}
	return a
}

// Alloc pops the next free sequence id, or returns false if exhausted.
func (a *SeqAllocator) Alloc() (SeqID, bool) {
	if len(a.free) == 0 {
		return 0, false
	}
	id := a.free[0]
	a.free = a.free[1:]
	return id, true
}

// Free returns id to the back of the FIFO.
func (a *SeqAllocator) Free(id SeqID) {
	if id == Canonical {
		panic("kvcache: freeing the canonical sequence")
	}
	for _, f := range a.free {
		if f == id {
			panic(fmt.Sprintf("kvcache: double free of seq %d", id))
		}
	}
	a.free = append(a.free, id)
}

// Available reports how many sequence ids are free.
func (a *SeqAllocator) Available() int { return len(a.free) }
