package kvcache

import "fmt"

// Namespace is one session's private window of the global sequence-id
// space. The serving layer statically partitions the MaxSeqs ids into
// equal-width windows, one per concurrent session slot: the window's first
// id is the session's canonical (accepted-token) sequence and the rest are
// its speculative partitions. Because attention visibility is derived from
// sequence-set intersection, disjoint namespaces guarantee that sessions
// sharing one physical cache can never observe each other's entries.
type Namespace struct {
	// Base is the first sequence id of the window.
	Base SeqID
	// Width is the number of ids in the window (>= 1).
	Width int
}

// NamespaceFor returns slot s's window in a static partitioning of the
// sequence-id space into consecutive windows of the given width.
func NamespaceFor(slot, width int) Namespace {
	if width < 1 || slot < 0 || (slot+1)*width > MaxSeqs {
		panic(fmt.Sprintf("kvcache: namespace slot %d width %d out of range", slot, width))
	}
	return Namespace{Base: SeqID(slot * width), Width: width}
}

// Canonical returns the namespace's accepted-token sequence id.
func (ns Namespace) Canonical() SeqID { return ns.Base }

// Contains reports whether id belongs to the namespace.
func (ns Namespace) Contains(id SeqID) bool {
	return id >= ns.Base && id < ns.Base+SeqID(ns.Width)
}

// SpecAllocator returns a FIFO allocator over the namespace's
// non-canonical ids, or nil for width-1 namespaces (which cannot host
// speculative runs).
func (ns Namespace) SpecAllocator() *SeqAllocator {
	if ns.Width <= 1 {
		return nil
	}
	return NewSeqAllocatorRange(ns.Base+1, ns.Base+SeqID(ns.Width))
}

// ValidOp reports whether a cache operation stays inside the namespace.
// This is the serving-layer isolation contract: every op issued on a
// session's behalf must name only its own ids. The memory-pressure ops
// (OpDropSpec, OpEvictShard) are valid only when they target exactly
// this namespace; the shared-prefix ops (OpSharePrefix, OpMapShared) only
// when the donor/mapping sequence is the session's canonical id (Dst
// carries an entry id there, not a sequence). OpUnrefPrefix — which
// drops a scheduler-owned registry hold no session owns — is never valid
// on a session's behalf.
func (ns Namespace) ValidOp(o Op) bool {
	switch o.Kind {
	case OpSeqCp:
		return ns.Contains(o.Src) && ns.Contains(o.Dst)
	case OpSeqRm:
		return ns.Contains(o.Src)
	case OpDropSpec, OpEvictShard:
		return o.Src == ns.Base && o.Dst == SeqID(ns.Width)
	case OpSharePrefix, OpMapShared:
		return o.Src == ns.Canonical()
	default:
		return false
	}
}
