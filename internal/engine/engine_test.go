package engine

import (
	"bytes"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

func TestRunKindString(t *testing.T) {
	if KindPrefill.String() != "prefill" || KindNonSpec.String() != "nonspec" || KindSpec.String() != "spec" {
		t.Fatal("kind names wrong")
	}
}

func TestRunMsgRoundtrip(t *testing.T) {
	msg := &RunMsg{
		ID:   0xDEADBEEF,
		Kind: KindSpec,
		Seq:  5,
		Tokens: []TokenPlace{
			{Tok: 1234, Pos: 130, Seqs: kvcache.NewSeqSet(5)},
			{Tok: 77, Pos: 131, Seqs: kvcache.NewSeqSet(5, 0)},
		},
		KVOps: []kvcache.Op{
			{Kind: kvcache.OpSeqCp, Src: 0, Dst: 5, P0: 0, P1: 130},
			{Kind: kvcache.OpSeqRm, Src: 3, P0: 0, P1: 1 << 30},
		},
	}
	dec, err := DecodeRunMsg(msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID != msg.ID || dec.Kind != msg.Kind || dec.Seq != msg.Seq {
		t.Fatalf("header mismatch: %+v", dec)
	}
	if len(dec.Tokens) != 2 || dec.Tokens[1] != msg.Tokens[1] {
		t.Fatalf("tokens mismatch: %+v", dec.Tokens)
	}
	if len(dec.KVOps) != 2 || dec.KVOps[0] != msg.KVOps[0] {
		t.Fatalf("ops mismatch: %+v", dec.KVOps)
	}
}

func TestRunMsgRoundtripProperty(t *testing.T) {
	f := func(seed uint16, n uint8) bool {
		rng := tensor.NewRNG(uint64(seed))
		nTokens := int(n%32) + 1
		msg := &RunMsg{
			ID:   uint32(rng.Uint64()),
			Kind: RunKind(rng.Intn(3)),
			Seq:  kvcache.SeqID(rng.Intn(8)),
		}
		for i := 0; i < nTokens; i++ {
			msg.Tokens = append(msg.Tokens, TokenPlace{
				Tok:  token.Token(rng.Intn(1 << 20)),
				Pos:  int32(rng.Intn(1 << 20)),
				Seqs: kvcache.SeqSet(rng.Uint64()),
			})
		}
		for i := 0; i < rng.Intn(4); i++ {
			msg.KVOps = append(msg.KVOps, kvcache.Op{
				Kind: kvcache.OpKind(rng.Intn(3)),
				Src:  kvcache.SeqID(rng.Intn(64)),
				Dst:  kvcache.SeqID(rng.Intn(64)),
				P0:   int32(rng.Intn(1 << 20)),
				P1:   int32(rng.Intn(1 << 20)),
			})
		}
		dec, err := DecodeRunMsg(msg.Encode())
		if err != nil {
			return false
		}
		if dec.ID != msg.ID || dec.Kind != msg.Kind || dec.Seq != msg.Seq ||
			len(dec.Tokens) != len(msg.Tokens) || len(dec.KVOps) != len(msg.KVOps) {
			return false
		}
		for i := range msg.Tokens {
			if dec.Tokens[i] != msg.Tokens[i] {
				return false
			}
		}
		for i := range msg.KVOps {
			if dec.KVOps[i] != msg.KVOps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRunMsgErrors(t *testing.T) {
	if _, err := DecodeRunMsg([]byte{1, 2}); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := DecodeRunMsg([]byte{0, 0, 0, 0, 0, 0, 5, 0}); err == nil {
		t.Fatal("truncated token list accepted")
	}
}

func TestCancelCodec(t *testing.T) {
	// Compute-without-result entries are mask 0.
	dec := DecodeCancel(EncodeCancelSigs([]CancelSig{{ID: 1}, {ID: 1 << 20}, {ID: 0xFFFFFFFF}}))
	if len(dec) != 3 || dec[0].ID != 1 || dec[2].ID != 0xFFFFFFFF {
		t.Fatalf("cancel roundtrip: %v", dec)
	}
	for _, sig := range dec {
		if sig.Sessions != 0 {
			t.Fatalf("a mask-0 entry decoded with a mask: %+v", sig)
		}
	}
	// Skip entries round-trip too.
	sigs := []CancelSig{{ID: 9, Sessions: 1 << 5}, {ID: 10}}
	dec = DecodeCancel(EncodeCancelSigs(sigs))
	if len(dec) != 2 || dec[0] != sigs[0] || dec[1] != sigs[1] {
		t.Fatalf("row-mask roundtrip: %v", dec)
	}
	if len(DecodeCancel(nil)) != 0 {
		t.Fatal("empty cancel payload")
	}
}

// TestRunMsgV3Codec pins the tagged layout: per-row session tags
// round-trip, and the flag bit never leaks into Kind.
func TestRunMsgV3Codec(t *testing.T) {
	msg := &RunMsg{
		ID: 42, Kind: KindNonSpec, Seq: 0, Session: 3,
		Tokens: []TokenPlace{
			{Tok: 7, Pos: 4, Seqs: kvcache.NewSeqSet(3)},
			{Tok: 8, Pos: 9, Seqs: kvcache.NewSeqSet(5)},
		},
		RowSessions: []uint16{3, 5},
	}
	enc := msg.Encode()
	if len(enc) != msg.EncodedSize() {
		t.Fatalf("EncodedSize %d != %d", msg.EncodedSize(), len(enc))
	}
	dec, err := DecodeRunMsg(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.RowSessions) != 2 || dec.Kind != KindNonSpec || dec.RowSessions[1] != 5 {
		t.Fatalf("tagged decode: %+v", dec)
	}
	if dec.RowSession(0) != 3 || dec.RowSession(1) != 5 {
		t.Fatalf("row sessions: %d %d", dec.RowSession(0), dec.RowSession(1))
	}
	if !dec.InvolvesSession(5) || dec.InvolvesSession(4) {
		t.Fatal("InvolvesSession broken")
	}
}

// TestRunMsgV2V3Compat pins the one-group layout: the fixture bytes are a
// frozen encoding, from before per-row sections existed, of a one-session
// single-token run — the plain frame every one-group unranged run still
// travels in. The decoder must read it, and re-encoding must give back
// the same bytes.
func TestRunMsgV2V3Compat(t *testing.T) {
	// ID=0x01020304, Kind=1 (nonspec), Seq=2, Session=7, one token
	// (Tok=42, Pos=17, Seqs=bit 2), zero KV ops.
	v2 := []byte{
		0x04, 0x03, 0x02, 0x01, // ID
		0x01, 0x02, // Kind, Seq
		0x07, 0x00, // Session
		0x01, 0x00, // 1 token
		42, 0, 0, 0, // Tok
		17, 0, 0, 0, // Pos
		0x04, 0, 0, 0, 0, 0, 0, 0, // Seqs = 1<<2
		0x00, 0x00, // 0 KV ops
	}
	msg, err := DecodeRunMsg(v2)
	if err != nil {
		t.Fatalf("decoder rejected the plain frame: %v", err)
	}
	if len(msg.RowSessions) != 0 || msg.ID != 0x01020304 || msg.Kind != KindNonSpec ||
		msg.Seq != 2 || msg.Session != 7 || len(msg.Tokens) != 1 ||
		msg.Tokens[0].Tok != 42 || msg.Tokens[0].Pos != 17 {
		t.Fatalf("plain frame decoded wrong: %+v", msg)
	}
	// And a one-group message still encodes to the identical bytes.
	if got := msg.Encode(); len(got) != len(v2) {
		t.Fatalf("re-encoded plain frame is %d bytes, want %d", len(got), len(v2))
	} else {
		for i := range got {
			if got[i] != v2[i] {
				t.Fatalf("re-encoded plain frame differs at byte %d", i)
			}
		}
	}
}

// TestRunMsgRangedRoundTrip pins the per-row ranges: they survive
// encode∘decode, the ranged flag composes with the tagged flag, SamplingRow
// picks exactly the rows computing their range's final position, unranged
// tagged frames decode with every row sampling, and an untagged ranged
// frame — a one-group prefill — round-trips with the same sampling rows.
func TestRunMsgRangedRoundTrip(t *testing.T) {
	msg := &RunMsg{
		ID: 12, Kind: KindNonSpec, Seq: 8, Session: 2,
		Tokens: []TokenPlace{
			{Tok: 50, Pos: 4, Seqs: kvcache.NewSeqSet(8)},
			{Tok: 51, Pos: 5, Seqs: kvcache.NewSeqSet(8)},
			{Tok: 52, Pos: 6, Seqs: kvcache.NewSeqSet(8)},
			{Tok: 7, Pos: 12, Seqs: kvcache.NewSeqSet(0)},
		},
		RowSessions: []uint16{2, 2, 2, 0},
		RowRanges:   []RowRange{{Pos: 4, Len: 3}, {Pos: 4, Len: 3}, {Pos: 4, Len: 3}, {Pos: 12, Len: 1}},
	}
	enc := msg.Encode()
	if len(enc) != msg.EncodedSize() {
		t.Fatalf("EncodedSize %d != %d", msg.EncodedSize(), len(enc))
	}
	dec, err := DecodeRunMsg(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.RowRanges) != 4 || len(dec.RowSessions) != 4 || dec.Kind != KindNonSpec {
		t.Fatalf("ranged decode: %+v", dec)
	}
	for i := range msg.RowRanges {
		if dec.RowRanges[i] != msg.RowRanges[i] {
			t.Fatalf("range %d: %+v != %+v", i, dec.RowRanges[i], msg.RowRanges[i])
		}
	}
	// Rows 0 and 1 are intermediate chunk rows; row 2 completes the
	// chunk's range; row 3 is a decode row (degenerate range).
	want := []bool{false, false, true, true}
	for i, w := range want {
		if dec.SamplingRow(i) != w {
			t.Fatalf("SamplingRow(%d) = %v, want %v", i, dec.SamplingRow(i), w)
		}
	}
	// An unranged tagged frame still samples every row.
	msg.RowRanges = nil
	dec, err = DecodeRunMsg(msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.RowRanges) != 0 {
		t.Fatal("unranged frame decoded ranged")
	}
	for i := range dec.Tokens {
		if !dec.SamplingRow(i) {
			t.Fatalf("unranged row %d does not sample", i)
		}
	}
	// Ranged without tags: the first three rows alone, as one session's
	// prefill chunk completing its range.
	chunk := &RunMsg{ID: 13, Kind: KindPrefill, Seq: 8, Session: 2,
		Tokens: msg.Tokens[:3], RowRanges: []RowRange{{Pos: 4, Len: 3}, {Pos: 4, Len: 3}, {Pos: 4, Len: 3}}}
	enc = chunk.Encode()
	if len(enc) != chunk.EncodedSize() {
		t.Fatalf("EncodedSize %d != %d", chunk.EncodedSize(), len(enc))
	}
	dec, err = DecodeRunMsg(enc)
	if err != nil {
		t.Fatalf("untagged ranged frame rejected: %v", err)
	}
	if len(dec.RowSessions) != 0 || len(dec.RowRanges) != 3 || !bytes.Equal(dec.AppendEncode(nil), enc) {
		t.Fatalf("untagged ranged decode: %+v", dec)
	}
	for i, w := range want[:3] {
		if dec.SamplingRow(i) != w || dec.RowSession(i) != 2 {
			t.Fatalf("untagged ranged row %d: sampling %v session %d, want %v and 2", i, dec.SamplingRow(i), dec.RowSession(i), w)
		}
	}
}

// TestRunMsgRowMasks pins the dead-row bookkeeping helpers.
func TestRunMsgRowMasks(t *testing.T) {
	msg := &RunMsg{
		Tokens:      make([]TokenPlace, 3),
		RowSessions: []uint16{1, 1, 4},
	}
	live := func() (n int) {
		for i := range msg.Tokens {
			if !msg.RowDead(i) {
				n++
			}
		}
		return n
	}
	if msg.AllMasked(msg.DeadSessions) || live() != 3 {
		t.Fatal("fresh run has dead rows")
	}
	msg.DeadSessions = 1 << 1
	if !msg.RowDead(0) || !msg.RowDead(1) || msg.RowDead(2) {
		t.Fatal("mask selects wrong rows")
	}
	if msg.AllMasked(msg.DeadSessions) || live() != 1 {
		t.Fatalf("live rows %d", live())
	}
	msg.DeadSessions |= 1 << 4
	if !msg.AllMasked(msg.DeadSessions) || live() != 0 {
		t.Fatal("fully masked run not AllMasked")
	}
	// An untagged run is one group: its session's bit alone covers it.
	solo := &RunMsg{Session: 4, Tokens: make([]TokenPlace, 2)}
	if solo.AllMasked(0) || solo.AllMasked(1<<1) || !solo.AllMasked(1<<4) {
		t.Fatal("untagged run masked wrongly")
	}
}

func TestPayloadFraming(t *testing.T) {
	if _, ok, err := parseActivation(appendActivation(nil, false, []byte{9})); ok || err != nil {
		t.Fatalf("empty activation: ok=%v err=%v", ok, err)
	}
	data, ok, err := parseActivation(appendActivation(nil, true, []byte{1, 2, 3}))
	if !ok || err != nil || !bytes.Equal(data, []byte{1, 2, 3}) {
		t.Fatalf("data activation broken: %v %v %v", data, ok, err)
	}
	// Zero-length data is still "data" (sim backend marker payloads).
	data, ok, err = parseActivation(appendActivation(nil, true, nil))
	if !ok || err != nil || len(data) != 0 {
		t.Fatal("zero-length data activation broken")
	}
	for _, bad := range [][]byte{nil, {2}, {payloadEmpty, 0}} {
		if _, _, err := parseActivation(bad); err == nil {
			t.Fatalf("activation %v parsed", bad)
		}
	}
	// A run frame starts with its message, whatever follows the header.
	msg := &RunMsg{ID: 7, Tokens: []TokenPlace{{Tok: 5, Pos: 3, Seqs: 1}}}
	f := append(appendActivation(msg.AppendEncode(nil), true, []byte{4}), byte(OpRun))
	got, err := DecodeRunMsg(f)
	if err != nil || got.ID != 7 || got.EncodedSize() != msg.EncodedSize() || FrameOpOf(f) != OpRun {
		t.Fatalf("run frame decodes as %+v, %v", got, err)
	}
	if FrameOpOf(nil) != 0 {
		t.Fatal("an empty frame names an op")
	}
}

// TestResultFrameCodec pins the result frame's bytes: a run nobody masked
// ships marker | ID | rows exactly as before masks existed, a masked one
// carries its mask behind its own marker, an empty marker is the header
// alone — each parsing back to itself — and malformed frames error out,
// never panic.
func TestResultFrameCodec(t *testing.T) {
	rows := []byte{0xaa, 0xbb, 0xcc, 0xdd}
	for _, tc := range []struct {
		f    ResultFrame
		want []byte
	}{
		{ResultFrame{ID: 0x01020304, OK: true, Rows: rows}, []byte{1, 4, 3, 2, 1, 0xaa, 0xbb, 0xcc, 0xdd}},
		{ResultFrame{ID: 7, OK: true, Dead: 1<<63 | 1<<8, Rows: rows},
			[]byte{2, 7, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0x80, 0xaa, 0xbb, 0xcc, 0xdd}},
		{ResultFrame{ID: 9, OK: true, Dead: 1}, []byte{2, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}},
		{ResultFrame{ID: 9}, []byte{0, 9, 0, 0, 0}},
	} {
		enc := ResultPayload(tc.f)
		if !bytes.Equal(enc, tc.want) {
			t.Fatalf("%+v encodes to %x, want %x", tc.f, enc, tc.want)
		}
		if got := tc.f.headerLen() + len(tc.f.Rows); got != len(enc) {
			t.Fatalf("%+v: header %d + rows %d != %d bytes", tc.f, tc.f.headerLen(), len(tc.f.Rows), len(enc))
		}
		got, err := ParseResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != tc.f.ID || got.OK != tc.f.OK || got.Dead != tc.f.Dead || !bytes.Equal(got.Rows, tc.f.Rows) {
			t.Fatalf("parsed %+v, want %+v", got, tc.f)
		}
	}
	for _, bad := range [][]byte{
		nil,
		{1, 0},
		{0, 1, 0, 0, 0, 0xaa},                // empty marker with rows
		{3, 1, 0, 0, 0},                      // unknown marker
		{2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // truncated mask
		{2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xaa}, // zero mask
	} {
		if _, err := ParseResult(bad); err == nil {
			t.Fatalf("malformed frame %x accepted", bad)
		}
	}
}

func TestTopologyValidation(t *testing.T) {
	topo, err := TopologyFor(StrategyIterative, 4)
	if err != nil || len(topo.Stages) != 4 || !topo.HeadIsStage() {
		t.Fatalf("iterative topology: %+v err=%v", topo, err)
	}
	topo, err = TopologyFor(StrategyPipeInfer, 4)
	if err != nil || len(topo.Stages) != 3 || topo.HeadIsStage() {
		t.Fatalf("pipeinfer topology: %+v err=%v", topo, err)
	}
	if topo.FirstRemote() != 1 || topo.LastStage() != 3 {
		t.Fatal("remote/last stage wrong")
	}
	if _, err := TopologyFor(StrategyPipeInfer, 1); err == nil {
		t.Fatal("pipeinfer on 1 rank accepted")
	}
	bad := Topology{Head: 0, Stages: []int{0, 0}}
	if err := bad.Validate(2); err == nil {
		t.Fatal("duplicate stage accepted")
	}
	bad = Topology{Head: 0, Stages: []int{5}}
	if err := bad.Validate(2); err == nil {
		t.Fatal("out-of-range stage accepted")
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyIterative.String() != "iterative" || StrategyPipeInfer.String() != "pipeinfer" {
		t.Fatal("strategy names")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.MicroBatch < 1 || c.MicroBatch > 4 {
		t.Fatalf("default micro-batch %d outside the paper's 1-4 range", c.MicroBatch)
	}
	if c.SpecCutoff <= 0 || c.CutoffRecovery <= 0 || c.CutoffDecay <= 0 {
		t.Fatal("cutoff parameters unset")
	}
	// Explicit values survive.
	c = Config{MicroBatch: 4, MaxSeqs: 3}.Defaults()
	if c.MicroBatch != 4 || c.MaxSeqs != 3 {
		t.Fatal("explicit config overwritten")
	}
}

func TestStatsMetrics(t *testing.T) {
	s := Stats{
		Generated:   10,
		PrefillDone: 1 * time.Second,
		FirstToken:  1500 * time.Millisecond,
		Done:        6 * time.Second,
	}
	for i := 0; i < 10; i++ {
		s.AcceptTimes = append(s.AcceptTimes, 1500*time.Millisecond+time.Duration(i)*500*time.Millisecond)
	}
	if s.TTFT() != 500*time.Millisecond {
		t.Fatalf("TTFT %v", s.TTFT())
	}
	if s.GenTime() != 5*time.Second {
		t.Fatalf("GenTime %v", s.GenTime())
	}
	if s.Speed() != 2 {
		t.Fatalf("Speed %v", s.Speed())
	}
	if s.ITL() != 500*time.Millisecond {
		t.Fatalf("ITL %v", s.ITL())
	}
	s.Proposed, s.Accepted = 10, 7
	if s.AcceptanceRate() != 0.7 {
		t.Fatal("acceptance rate")
	}
	var empty Stats
	if empty.Speed() != 0 || empty.ITL() != 0 || empty.AcceptanceRate() != 0 {
		t.Fatal("empty stats should be zero")
	}
}

// TestLiveStatsAcceptSummary: the head's aggregate keeps first, last and
// count in O(1) — no log, no allocation however many tokens pass — and
// reports the mean gap between them as its ITL.
func TestLiveStatsAcceptSummary(t *testing.T) {
	var agg LiveStats
	at := func(i int) time.Duration { return 1500*time.Millisecond + time.Duration(i)*500*time.Millisecond }
	for i := 0; i < 10; i++ {
		agg.Sampled(at(i), 1)
	}
	a := agg.Snapshot()
	if a.AcceptTimes != nil {
		t.Fatalf("aggregate logged %d timestamps, want none", len(a.AcceptTimes))
	}
	if a.AcceptCount != 10 || a.FirstToken != at(0) || a.LastAccept != at(9) {
		t.Fatalf("summary count=%d first=%v last=%v", a.AcceptCount, a.FirstToken, a.LastAccept)
	}
	if a.ITL() != 500*time.Millisecond {
		t.Fatalf("ITL %v, want 500ms", a.ITL())
	}
	if n := testing.AllocsPerRun(100, func() { agg.Sampled(at(10), 1); _ = agg.Snapshot() }); n != 0 {
		t.Fatalf("aggregate accounting allocates %v per accept+snapshot", n)
	}
}

// cancelSetOf drains sigs, sent as one message from rank 0, into a fresh
// cancelSet on rank 1.
func cancelSetOf(sigs ...CancelSig) *cancelSet {
	cl := chancomm.New(2)
	cl.Endpoint(0).Send(1, comm.TagCancel, EncodeCancelSigs(sigs), 0)
	c := newCancelSet()
	c.drain(cl.Endpoint(1), 0)
	return c
}

func TestCancelSetGC(t *testing.T) {
	c := cancelSetOf(CancelSig{ID: 5, Sessions: 1}, CancelSig{ID: 10})
	c.gc(7)
	if c.skip(5) != 0 {
		t.Fatal("id 5 should be collected")
	}
	if !c.drop(10) {
		t.Fatal("id 10 should survive")
	}
}

// TestCancelSetMasks pins the entry semantics: skip masks accumulate per
// run, a mask-0 entry marks the run's result dropped and masks nothing,
// and the two are independent.
func TestCancelSetMasks(t *testing.T) {
	c := cancelSetOf(CancelSig{ID: 3, Sessions: 1 << 2}, CancelSig{ID: 3, Sessions: 1 << 9}, CancelSig{ID: 4})
	if c.skip(3) != (1<<2)|(1<<9) || c.drop(3) {
		t.Fatalf("run 3: skip %x drop %v, want the mask union and no drop", c.skip(3), c.drop(3))
	}
	if c.skip(4) != 0 || !c.drop(4) {
		t.Fatalf("run 4: skip %x drop %v, want no mask and a drop", c.skip(4), c.drop(4))
	}
	if c.skip(99) != 0 || c.drop(99) {
		t.Fatal("unknown id has an entry")
	}
}

// TestCounterTableComplete: the counter table is the only place a
// counter is declared, so it must cover the two structs exactly — every
// atomic.Int64 of LiveStats appears in one row, paired with the Stats int
// of the same name, Prometheus names unique — and Snapshot, which walks
// the table, must carry every counter across.
func TestCounterTableComplete(t *testing.T) {
	var ls LiveStats
	var st Stats
	lv := reflect.ValueOf(&ls).Elem()
	lt := lv.Type()
	sv := reflect.ValueOf(&st).Elem()
	rowOf := map[*atomic.Int64]int{}
	names := map[string]bool{}
	for i := range Counters {
		c := &Counters[i]
		if _, dup := rowOf[c.Live(&ls)]; dup || names[c.Name] {
			t.Errorf("row %d (%s) repeats a counter or a family name", i, c.Name)
		}
		rowOf[c.Live(&ls)] = i
		names[c.Name] = true
		if c.Help == "" || (c.Group == "") != (c.Label == "") {
			t.Errorf("row %d (%s): help %q group %q label %q", i, c.Name, c.Help, c.Group, c.Label)
		}
	}
	counters := 0
	for f := 0; f < lt.NumField(); f++ {
		if lt.Field(f).Type != reflect.TypeFor[atomic.Int64]() {
			continue
		}
		p := lv.Field(f).Addr().Interface().(*atomic.Int64)
		counters++
		name := lt.Field(f).Name
		row, ok := rowOf[p]
		if !ok {
			t.Errorf("LiveStats.%s has no row in Counters", name)
			continue
		}
		twin := sv.FieldByName(name)
		if !twin.IsValid() || twin.Addr().Interface() != any(Counters[row].Stat(&st)) {
			t.Errorf("row %d (%s) pairs LiveStats.%s with a different Stats field", row, Counters[row].Name, name)
		}
		p.Store(int64(1000 + f))
	}
	if counters != len(Counters) {
		t.Errorf("LiveStats has %d counters, the table %d rows", counters, len(Counters))
	}
	snap := reflect.ValueOf(ls.Snapshot())
	for f := 0; f < lt.NumField(); f++ {
		if lt.Field(f).Type == reflect.TypeFor[atomic.Int64]() {
			if got := snap.FieldByName(lt.Field(f).Name).Int(); got != int64(1000+f) {
				t.Errorf("Snapshot().%s = %d, want %d", lt.Field(f).Name, got, 1000+f)
			}
		}
	}
}

// TestWriteSummary pins the serving CLIs' closing report: which lines
// print for which configuration, and their wording.
func TestWriteSummary(t *testing.T) {
	s := Stats{SpecDrops: 1, Preemptions: 2, Readmissions: 3, PrefixHits: 4, PrefixHitTokens: 50,
		BatchedRuns: 4, BatchedRows: 10, PrefillBatchedRuns: 2, RowCancels: 1,
		RunTimeouts: 5, Recoveries: 6, Reconnects: 7, BreakerTrips: 8,
		Sheds: 9, Overloads: 10, DeadlineHits: 3, DeadlineMisses: 1}
	var sb strings.Builder
	s.WriteSummary(&sb, Summary{PromptTokens: 200})
	want := `memory pressure: 1 spec drops, 2 preemptions, 3 readmissions
prefix cache: 4 hits reused 50 prompt tokens (25% of prompt work skipped)
batching: 4 multi-session runs (2 runs carrying prefill chunks), mean width 2.5 sessions, 1 rows masked out in flight
fault tolerance: 5 run timeouts, 6 recoveries, 7 reconnects, 8 breaker trips
overload control: 9 shed on TTFT deadline, 10 refused at admission
deadlines: 3/4 served requests met every deadline (75% hit-rate)
`
	if sb.String() != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", sb.String(), want)
	}
	sb.Reset()
	(&Stats{}).WriteSummary(&sb, Summary{})
	if sb.String() != "memory pressure: 0 spec drops, 0 preemptions, 0 readmissions\n" {
		t.Fatalf("idle summary:\n%s", sb.String())
	}
	// Width-1 serving still reports its prefill-chunk runs.
	sb.Reset()
	(&Stats{PrefillBatchedRuns: 3}).WriteSummary(&sb, Summary{})
	if want := "memory pressure: 0 spec drops, 0 preemptions, 0 readmissions\n" +
		"batching: 0 multi-session runs (3 runs carrying prefill chunks), mean width 0.0 sessions, 0 rows masked out in flight\n"; sb.String() != want {
		t.Fatalf("width-1 summary:\n%s\nwant:\n%s", sb.String(), want)
	}
	sb.Reset()
	(&Stats{}).WriteSummary(&sb, Summary{Watchdog: true, Overload: true})
	if got := strings.Count(sb.String(), "\n"); got != 3 {
		t.Fatalf("armed-but-idle summary has %d lines, want 3:\n%s", got, sb.String())
	}
}
