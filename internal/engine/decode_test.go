package engine

import (
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
)

// TestDecodeRunMsgTruncated feeds every strict prefix of a valid encoding
// (and a few corruptions) to the decoder: each must return an error — not
// panic, which is what the unchecked KV-op slice in the seed did on
// truncated messages.
func TestDecodeRunMsgTruncated(t *testing.T) {
	msg := &RunMsg{
		ID:      0xdeadbeef,
		Kind:    KindSpec,
		Seq:     3,
		Session: 0x1234,
		Tokens: []TokenPlace{
			{Tok: 42, Pos: 7, Seqs: kvcache.NewSeqSet(0, 3)},
			{Tok: 99, Pos: 8, Seqs: kvcache.NewSeqSet(3)},
		},
		KVOps: []kvcache.Op{
			{Kind: kvcache.OpSeqCp, Src: 0, Dst: 3, P0: 0, P1: 7},
			{Kind: kvcache.OpSeqRm, Src: 3, P0: 0, P1: 1 << 30},
		},
	}
	full := msg.AppendEncode(nil)
	if len(full) != msg.EncodedSize() {
		t.Fatalf("EncodedSize %d != wire length %d", msg.EncodedSize(), len(full))
	}
	if dec, err := DecodeRunMsg(full); err != nil || dec.ID != msg.ID || dec.Session != msg.Session {
		t.Fatalf("full decode failed: %v", err)
	}

	for n := 0; n < len(full); n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("prefix %d/%d panicked: %v", n, len(full), r)
				}
			}()
			if _, err := DecodeRunMsg(full[:n]); err == nil {
				t.Fatalf("prefix %d/%d decoded without error", n, len(full))
			}
		}()
	}

	// Corrupt the KV-op count so it claims more ops than bytes remain.
	corrupt := append([]byte(nil), full...)
	opsOff := 10 + 16*len(msg.Tokens)
	corrupt[opsOff] = 0xff
	corrupt[opsOff+1] = 0xff
	if _, err := DecodeRunMsg(corrupt); err == nil {
		t.Fatal("inflated op count decoded without error")
	}

	// Corrupt the token count the same way.
	corrupt = append([]byte(nil), full...)
	corrupt[8] = 0xff
	corrupt[9] = 0xff
	if _, err := DecodeRunMsg(corrupt); err == nil {
		t.Fatal("inflated token count decoded without error")
	}
}

// TestAppendEncodeReusesBuffer checks the pooled-encode contract.
func TestAppendEncodeReusesBuffer(t *testing.T) {
	msg := &RunMsg{ID: 5, Kind: KindNonSpec, Tokens: []TokenPlace{{Tok: 1, Pos: 0, Seqs: 1}}}
	buf := make([]byte, 0, 256)
	enc := msg.AppendEncode(buf)
	if &enc[0] != &buf[:1][0] {
		t.Fatal("AppendEncode should append into the provided buffer")
	}
	dec, err := DecodeRunMsg(enc)
	if err != nil || dec.ID != 5 {
		t.Fatalf("roundtrip failed: %v", err)
	}
}
