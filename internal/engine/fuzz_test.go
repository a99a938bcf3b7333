package engine

import (
	"bytes"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
)

// fuzzSeedMsgs are representative run messages whose encodings seed the
// corpus: empty, single-token non-spec, a spec batch with KV ops, and a
// serving-layer message with a non-zero session tag.
func fuzzSeedMsgs() []*RunMsg {
	return []*RunMsg{
		{ID: 1, Kind: KindPrefill},
		{ID: 2, Kind: KindNonSpec, Seq: 0, Tokens: []TokenPlace{
			{Tok: 42, Pos: 17, Seqs: kvcache.NewSeqSet(0)},
		}},
		{ID: 0xdeadbeef, Kind: KindSpec, Seq: 3, Session: 7, Tokens: []TokenPlace{
			{Tok: 9, Pos: 4, Seqs: kvcache.NewSeqSet(0, 3)},
			{Tok: 10, Pos: 5, Seqs: kvcache.NewSeqSet(3)},
		}, KVOps: []kvcache.Op{
			{Kind: kvcache.OpSeqCp, Src: 0, Dst: 3, P0: 0, P1: 4},
			{Kind: kvcache.OpSeqRm, Src: 3, P0: 0, P1: 1 << 30},
		}},
		{ID: 77, Kind: KindNonSpec, Session: 63, Tokens: []TokenPlace{
			{Tok: 1, Pos: 0, Seqs: 1 << 60},
		}},
	}
}

// addRunMsgSeeds seeds f with each message's encoding, its first half,
// and the encoding followed by each trailing-garbage tail.
func addRunMsgSeeds(f *testing.F, msgs []*RunMsg, tails ...[]byte) {
	for _, m := range msgs {
		enc := m.Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		for _, tail := range tails {
			f.Add(append(enc[:len(enc):len(enc)], tail...))
		}
	}
}

// The trailing bytes the three historical corpora appended to a valid
// frame: plain garbage, and bytes that read as the tagged / ranged flag
// bits where a next frame's Kind byte would sit.
var (
	tailGarbage = []byte{0xff, 0x00, 0x7f}
	tailTagged  = []byte{0x7f, 0x80}
	tailRanged  = []byte{0x40, 0xc0}
)

// checkRunMsgDecode is the run-message decoder's one property, over all
// three wire layouts it accepts (untagged v2, tagged v3, ranged v3): it
// never panics; whatever it accepts re-encodes to exactly the bytes it
// consumed (encode∘decode identity on the accepted prefix, EncodedSize
// agreeing); and re-decoding that encoding gives every field back —
// header, token and op counts, per-row session tags, per-row ranges and
// which rows sample. A ranged frame without row sessions is rejected,
// never misparsed, and DeadSessions never travels.
func checkRunMsgDecode(t *testing.T, data []byte) {
	msg, err := DecodeRunMsg(data)
	if err != nil {
		return
	}
	if msg.Ranged() && !msg.Batched() {
		t.Fatal("decoder accepted row ranges without row sessions")
	}
	enc := msg.AppendEncode(nil)
	if len(enc) != msg.EncodedSize() {
		t.Fatalf("EncodedSize %d != encoding length %d", msg.EncodedSize(), len(enc))
	}
	if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
		t.Fatalf("re-encoding differs from the decoded prefix:\n got %x\nwant %x", enc, data[:min(len(enc), len(data))])
	}
	again, err := DecodeRunMsg(enc)
	if err != nil {
		t.Fatalf("re-decoding a produced encoding failed: %v", err)
	}
	if again.ID != msg.ID || again.Kind != msg.Kind || again.Seq != msg.Seq ||
		again.Session != msg.Session || len(again.Tokens) != len(msg.Tokens) ||
		len(again.KVOps) != len(msg.KVOps) {
		t.Fatalf("decode(encode(m)) != m: %+v vs %+v", again, msg)
	}
	if again.Batched() != msg.Batched() || len(again.RowSessions) != len(msg.RowSessions) {
		t.Fatalf("batched tags lost: %+v vs %+v", again, msg)
	}
	for i := range msg.RowSessions {
		if again.RowSessions[i] != msg.RowSessions[i] {
			t.Fatalf("row session %d: %d != %d", i, again.RowSessions[i], msg.RowSessions[i])
		}
	}
	if again.Ranged() != msg.Ranged() || len(again.RowRanges) != len(msg.RowRanges) {
		t.Fatalf("row ranges lost: %+v vs %+v", again, msg)
	}
	for i := range msg.RowRanges {
		if again.RowRanges[i] != msg.RowRanges[i] {
			t.Fatalf("row range %d: %+v != %+v", i, again.RowRanges[i], msg.RowRanges[i])
		}
		if again.SamplingRow(i) != msg.SamplingRow(i) {
			t.Fatalf("sampling row %d changed across the round trip", i)
		}
	}
	if again.DeadSessions != 0 {
		t.Fatal("DeadSessions leaked onto the wire")
	}
}

// FuzzDecodeRunMsg is the run-message codec's fuzz target (the one CI
// fuzzes): checkRunMsgDecode over a corpus of every layout — v2, tagged
// and ranged messages, whole, halved and with each tail — plus the empty
// input, all-ones garbage, and a ranged-flag frame with no tagged flag.
func FuzzDecodeRunMsg(f *testing.F) {
	all := append(append(fuzzSeedMsgs(), fuzzSeedMsgsV3()...), fuzzSeedMsgsRanges()...)
	addRunMsgSeeds(f, all, tailGarbage, tailTagged, tailRanged)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, 0x41, 0, 0, 0, 0, 0})
	f.Fuzz(checkRunMsgDecode)
}

// FuzzDecodeCancel checks the cancellation-signal codec: no panic on any
// input, and decoded entries re-encode to exactly the consumed 12-byte
// groups (run ID plus session-row mask).
func FuzzDecodeCancel(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeCancelSigs([]CancelSig{{ID: 1}}))
	f.Add(EncodeCancelSigs([]CancelSig{{ID: 7}, {ID: 0xdeadbeef}, {ID: 0}, {ID: 1 << 30}}))
	f.Add(EncodeCancelSigs([]CancelSig{{ID: 12, Sessions: 1 << 63}, {ID: 13, Sessions: 5}}))
	f.Add([]byte{1, 2, 3}) // trailing partial group
	f.Fuzz(func(t *testing.T, data []byte) {
		sigs := DecodeCancel(data)
		if len(sigs) != len(data)/cancelSigBytes {
			t.Fatalf("decoded %d entries from %d bytes", len(sigs), len(data))
		}
		enc := EncodeCancelSigs(sigs)
		if !bytes.Equal(enc, data[:cancelSigBytes*len(sigs)]) {
			t.Fatalf("re-encoding differs: %x vs %x", enc, data[:cancelSigBytes*len(sigs)])
		}
	})
}

// FuzzResultFrame checks the result-frame codec: no panic on any input,
// and whatever ParseResult accepts, ResultPayload writes back byte for byte
// — encode∘parse is the identity, masked or not — while an empty marker
// carries neither mask nor rows.
func FuzzResultFrame(f *testing.F) {
	rows := []byte{0xde, 0xad, 0xbe, 0xef}
	f.Add(ResultPayload(ResultFrame{ID: 4, OK: true, Rows: rows}))
	f.Add(ResultPayload(ResultFrame{ID: 0xdeadbeef, OK: true, Dead: 1<<63 | 5, Rows: rows}))
	f.Add(ResultPayload(ResultFrame{ID: 16}))
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // zero mask
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ParseResult(data)
		if err != nil {
			return
		}
		if !fr.OK && (fr.Dead != 0 || fr.Rows != nil) {
			t.Fatalf("empty marker parsed with a mask or rows: %+v", fr)
		}
		if enc := ResultPayload(fr); !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", enc, data)
		}
	})
}

// fuzzSeedMsgsV3 extends the corpus with batched (wire v3) messages:
// a two-session non-speculative batch and a same-depth speculative batch
// with per-session prefix-sharing ops.
func fuzzSeedMsgsV3() []*RunMsg {
	return []*RunMsg{
		{ID: 5, Kind: KindNonSpec, Session: 0, Tokens: []TokenPlace{
			{Tok: 11, Pos: 3, Seqs: kvcache.NewSeqSet(0)},
			{Tok: 12, Pos: 8, Seqs: kvcache.NewSeqSet(4)},
		}, RowSessions: []uint16{0, 4}},
		{ID: 6, Kind: KindSpec, Session: 1, Seq: 5, Tokens: []TokenPlace{
			{Tok: 20, Pos: 9, Seqs: kvcache.NewSeqSet(5)},
			{Tok: 21, Pos: 10, Seqs: kvcache.NewSeqSet(5)},
			{Tok: 30, Pos: 4, Seqs: kvcache.NewSeqSet(9)},
			{Tok: 31, Pos: 5, Seqs: kvcache.NewSeqSet(9)},
		}, RowSessions: []uint16{1, 1, 2, 2}, KVOps: []kvcache.Op{
			{Kind: kvcache.OpSeqCp, Src: 4, Dst: 5, P0: 0, P1: 9},
			{Kind: kvcache.OpSeqCp, Src: 8, Dst: 9, P0: 0, P1: 4},
		}},
	}
}

// fuzzSeedMsgsRanges extends the corpus with ranged (v3 range extension)
// messages: a mixed prefill-chunk + decode-row run, an intermediate chunk
// with no sampling row, and a single-group final chunk.
func fuzzSeedMsgsRanges() []*RunMsg {
	return []*RunMsg{
		// Mixed: session 2's 3-token prefill chunk completing range
		// [4, 7), plus session 0's decode row.
		{ID: 9, Kind: KindNonSpec, Session: 2, Tokens: []TokenPlace{
			{Tok: 50, Pos: 4, Seqs: kvcache.NewSeqSet(8)},
			{Tok: 51, Pos: 5, Seqs: kvcache.NewSeqSet(8)},
			{Tok: 52, Pos: 6, Seqs: kvcache.NewSeqSet(8)},
			{Tok: 7, Pos: 12, Seqs: kvcache.NewSeqSet(0)},
		}, RowSessions: []uint16{2, 2, 2, 0},
			RowRanges: []RowRange{{Pos: 4, Len: 3}, {Pos: 4, Len: 3}, {Pos: 4, Len: 3}, {Pos: 12, Len: 1}}},
		// Intermediate chunk: 2 of a remaining 40-token range — no row
		// samples.
		{ID: 10, Kind: KindPrefill, Session: 1, Tokens: []TokenPlace{
			{Tok: 60, Pos: 0, Seqs: kvcache.NewSeqSet(4)},
			{Tok: 61, Pos: 1, Seqs: kvcache.NewSeqSet(4)},
		}, RowSessions: []uint16{1, 1},
			RowRanges: []RowRange{{Pos: 0, Len: 40}, {Pos: 0, Len: 40}}},
		// Final single-row chunk of a readmitted prefix.
		{ID: 11, Kind: KindPrefill, Session: 5, Tokens: []TokenPlace{
			{Tok: 70, Pos: 99, Seqs: kvcache.NewSeqSet(20)},
		}, RowSessions: []uint16{5},
			RowRanges: []RowRange{{Pos: 99, Len: 1}}},
	}
}

// FuzzDecodeRunMsgV3 and FuzzDecodeRunMsgRanges are the tagged and ranged
// layouts' historical corpora, kept as regression entries that `go test`
// replays seed by seed under their recorded names. They are not separate
// targets: the property and the corpus to fuzz are FuzzDecodeRunMsg's.
func FuzzDecodeRunMsgV3(f *testing.F) {
	addRunMsgSeeds(f, append(fuzzSeedMsgs(), fuzzSeedMsgsV3()...), tailTagged)
	f.Fuzz(checkRunMsgDecode)
}

func FuzzDecodeRunMsgRanges(f *testing.F) {
	seeds := append(fuzzSeedMsgs(), fuzzSeedMsgsV3()...)
	addRunMsgSeeds(f, append(seeds, fuzzSeedMsgsRanges()...), tailRanged)
	f.Add([]byte{1, 0, 0, 0, 0x41, 0, 0, 0, 0, 0})
	f.Fuzz(checkRunMsgDecode)
}
