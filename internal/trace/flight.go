package trace

import (
	"fmt"
	"sync/atomic"
	"time"
)

// FlightKind classifies timeline events: one byte, so an event packs
// into two machine words.
type FlightKind uint8

// Flight-recorder event kinds.
const (
	FlightNone    FlightKind = iota
	FlightLaunch             // head injected a run
	FlightResult             // head consumed a result
	FlightCancel             // head issued a cancellation
	FlightAccept             // token(s) accepted
	FlightEvalBeg            // stage began evaluating a run
	FlightEvalEnd            // stage finished (or skipped) a run
	FlightDraft              // head drafted a micro-batch
	FlightFail               // watchdog declared a run failed
	FlightTrip               // repeated-failure breaker tripped
	FlightRecover            // session recovered by prefix recompute
	FlightBuild              // head began deriving its draft weights
)

var flightKindNames = [...]string{
	FlightNone: "none", FlightLaunch: "launch", FlightResult: "result",
	FlightCancel: "cancel", FlightAccept: "accept", FlightEvalBeg: "eval+",
	FlightEvalEnd: "eval-", FlightDraft: "draft", FlightFail: "fail",
	FlightTrip: "trip", FlightRecover: "recover", FlightBuild: "build",
}

// String names the kind for renderings and Chrome trace export.
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// FlightEvent is one decoded flight-recorder entry. Arg carries a
// kind-specific small integer, truncated to 24 bits signed by the
// packing:
//
//	launch, eval+   RunArg: the run's kind beside its row count
//	eval-           rows evaluated to completion; 0 = skipped or cut
//	                short by a cancellation (§IV-D.2)
//	result          ResultData | ResultCancelled
//	cancel          WholeRun, or the session slot whose rows were masked
//	accept          tokens accepted
type FlightEvent struct {
	At   time.Duration
	Run  uint32
	Arg  int32
	Kind FlightKind
}

const (
	flightArgBits = 24
	runRowBits    = 16
)

// RunArg packs a run's kind byte (the engine's RunKind) beside its row
// count: the Arg of launch and eval+ events.
func RunArg(kind uint8, rows int) int32 {
	return int32(kind&0x7f)<<runRowBits | int32(min(rows, 1<<runRowBits-1))
}

// RunKind and Rows unpack a RunArg.
func (e FlightEvent) RunKind() uint8 { return uint8(e.Arg >> runRowBits) }
func (e FlightEvent) Rows() int      { return int(e.Arg & (1<<runRowBits - 1)) }

// Result-event Arg bits: the frame carried logits; the head had already
// marked the run cancelled when it arrived.
const (
	ResultData int32 = 1 << iota
	ResultCancelled
)

// WholeRun is a cancel event's Arg when the entire run was cancelled
// rather than one session's rows.
const WholeRun int32 = -1

// packMeta packs (run, arg, kind) into one word: run in the low 32
// bits, arg (signed, 24 bits) above it, kind in the top byte. Row
// counts, token counts and session indices all fit 24 bits with room
// to spare.
func packMeta(run uint32, arg int32, kind FlightKind) uint64 {
	return uint64(run) |
		uint64(uint32(arg)&(1<<flightArgBits-1))<<32 |
		uint64(kind)<<56
}

func unpackMeta(m uint64) (run uint32, arg int32, kind FlightKind) {
	run = uint32(m)
	// Sign-extend the 24-bit arg.
	arg = int32(uint32(m>>32)&(1<<flightArgBits-1)) << (32 - flightArgBits) >> (32 - flightArgBits)
	kind = FlightKind(m >> 56)
	return
}

// Ring is a bounded, lock-free flight recorder: a fixed power-of-two
// ring of packed binary events, two atomic word stores per Record.
// Intended use is one Ring per recording goroutine (the head's
// scheduler loop, each stage worker) so writes never contend; the
// atomic slot reservation additionally keeps accidental multi-writer
// use safe, and snapshots may run concurrently with writers (a slot
// overwritten mid-read decodes to a stale-but-well-formed event, never
// a data race). Record performs zero heap allocations, and a nil *Ring
// ignores records, so always-on recording costs one branch to disable.
type Ring struct {
	pos  atomic.Uint64
	mask uint64
	at   []atomic.Int64
	meta []atomic.Uint64
}

// DefaultRingSize is the per-goroutine flight-recorder depth: 4096
// events (64 KiB per ring) reaches several seconds into the past at
// serving event rates.
const DefaultRingSize = 4096

// NewRing creates a flight ring holding at least size events (rounded
// up to a power of two; size <= 0 picks DefaultRingSize).
func NewRing(size int) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 16
	for n < size {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), at: make([]atomic.Int64, n), meta: make([]atomic.Uint64, n)}
}

// Record logs one event, overwriting the oldest once the ring is full.
func (r *Ring) Record(at time.Duration, kind FlightKind, run uint32, arg int32) {
	if r == nil {
		return
	}
	i := (r.pos.Add(1) - 1) & r.mask
	r.at[i].Store(int64(at))
	r.meta[i].Store(packMeta(run, arg, kind))
}

// Len reports how many events the ring currently holds.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	n := r.pos.Load()
	if n > r.mask+1 {
		n = r.mask + 1
	}
	return int(n)
}

// Snapshot decodes the ring's events oldest-first. Safe to call while
// writers are active; unwritten slots are skipped.
func (r *Ring) Snapshot() []FlightEvent {
	if r == nil {
		return nil
	}
	pos := r.pos.Load()
	size := r.mask + 1
	n := pos
	first := uint64(0)
	if pos > size {
		n = size
		first = pos & r.mask
	}
	out := make([]FlightEvent, 0, n)
	for k := uint64(0); k < n; k++ {
		i := (first + k) & r.mask
		at := r.at[i].Load()
		run, arg, kind := unpackMeta(r.meta[i].Load())
		if kind == FlightNone || int(kind) >= len(flightKindNames) {
			continue // unwritten or torn slot
		}
		out = append(out, FlightEvent{At: time.Duration(at), Run: run, Arg: arg, Kind: kind})
	}
	return out
}
