package kvcache

import (
	"bytes"
	"testing"
)

// FuzzDecodeOps checks the KV-operation wire codec: arbitrary input never
// panics, input of the wrong length is rejected, well-sized input is
// rejected exactly when one of its records is on its own, and accepted
// input re-encodes bit-identically (encode∘decode identity) into ops of
// known kinds that name only sequence ids below MaxSeqs.
func FuzzDecodeOps(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendOps(nil, []Op{{Kind: OpSeqCp, Src: 0, Dst: 3, P0: 0, P1: 7}}))
	f.Add(AppendOps(nil, []Op{
		{Kind: OpSeqRm, Src: 5, P0: -1, P1: 1 << 30},
		{Kind: OpKind(2), Src: 0},
		{Kind: OpKind(200), Src: 63, Dst: 63, P0: -(1 << 31), P1: 1<<31 - 1},
	}))
	f.Add(AppendOps(nil, []Op{
		{Kind: OpDropSpec, Src: 56, Dst: 8},
		{Kind: OpSharePrefix, Src: 63, Dst: 255, P1: 16},
		{Kind: OpUnrefPrefix, Src: 255, Dst: 255},
	}))
	f.Add([]byte{1, 2, 3, 4, 5}) // not a multiple of 11
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := AppendDecodeOps(nil, data)
		if len(data)%11 != 0 {
			if err == nil {
				t.Fatal("ill-sized input accepted")
			}
			return
		}
		bad := false
		for i := 0; i < len(data); i += 11 {
			_, e := AppendDecodeOps(nil, data[i:i+11])
			bad = bad || e != nil
		}
		if (err != nil) != bad {
			t.Fatalf("decode error %v, but some record alone rejected: %v", err, bad)
		}
		if err != nil {
			return
		}
		if len(ops) != len(data)/11 {
			t.Fatalf("decoded %d ops from %d bytes", len(ops), len(data))
		}
		if !bytes.Equal(AppendOps(nil, ops), data) {
			t.Fatal("re-encoding differs from input")
		}
		for _, o := range ops {
			// The sequence ids each kind names; Dst is an entry id in the
			// shared-prefix ops and a window width in the namespace ops.
			var ids []SeqID
			switch o.Kind {
			case OpSeqCp:
				ids = []SeqID{o.Src, o.Dst}
			case OpSeqRm, OpSharePrefix, OpMapShared:
				ids = []SeqID{o.Src}
			case OpDropSpec, OpEvictShard:
				if o.Dst < 1 {
					t.Fatalf("accepted %v with an empty window", o)
				}
				ids = []SeqID{o.Src, o.Src + o.Dst - 1}
			case OpUnrefPrefix:
			default:
				t.Fatalf("accepted unknown kind: %v", o)
			}
			for _, id := range ids {
				if id < 0 || id >= MaxSeqs {
					t.Fatalf("accepted %v naming sequence %d", o, id)
				}
			}
		}
	})
}
