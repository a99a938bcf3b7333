// Package comm defines the message-passing interface the inference engines
// are written against, mirroring the MPI point-to-point semantics the
// paper's implementation uses (§IV-A.2):
//
//   - tagged point-to-point messages;
//   - buffered sends: a sender continues before the receiver is ready;
//   - non-overtaking delivery: two messages with the same sender, receiver
//     and tag are received in send order (MPI §3.5), the property
//     PipeInfer's transaction ordering is built on;
//   - Iprobe: non-blocking test for a waiting message, which continuous
//     speculation uses to detect head-node idleness (§IV-B);
//   - WaitRecv: a receive wait bounded by the node-local clock, which the
//     head's run watchdog waits on.
//
// Two implementations exist: chancomm (real goroutines, wall clock) and
// simcomm (discrete-event simulation, virtual clock). Engine code cannot
// tell them apart, which is what lets a single engine implementation be
// validated on real tensor math and then measured at paper scale in the
// simulator.
package comm

import (
	"fmt"
	"time"
)

// Tag labels a message stream. Per (src, dst, tag) the stream is FIFO.
type Tag uint8

const (
	// TagRun carries the pipeline operations, one frame each, that the
	// head issues and every stage forwards downstream: runs (header and,
	// past the first target stage, activation), KV transactions and
	// shutdown (see engine.WorkerLoop). One stream per link orders them.
	TagRun Tag = iota
	// TagActivation is a second data stream the engine never sends on
	// (an activation travels in its run's frame); transport tests and
	// benchmarks use it.
	TagActivation
	// TagResult carries final-stage results (logits) to the head.
	TagResult
	// TagCancel carries early-inference-cancellation signals (§IV-D).
	TagCancel
	// TagControl is a stream outside the pipeline's operations: the
	// engine never sends on it (shutdown is a TagRun frame); transport
	// tests and the benchmark's round-trip probe do.
	TagControl

	// NumTags is the number of distinct tags.
	NumTags
)

// WireVersion names the payload formats every rank of one cluster must
// share: the engine's run, KV, shutdown, result and cancel frames. A
// transport between processes refuses a peer of another version when it
// connects (tcpcomm's hello) instead of decoding frames it does not know.
// Bump it with any change to those formats or to what their fields mean;
// version 0 is a peer from before versions existed, version 2 the one in
// which a cancel entry's zero mask stopped meaning "skip the run", and
// version 3 the one in which each pipeline operation became one frame on
// TagRun (no start message, no separate activation message).
const WireVersion = 3

// String names the tag for traces.
func (t Tag) String() string {
	switch t {
	case TagRun:
		return "run"
	case TagActivation:
		return "activation"
	case TagResult:
		return "result"
	case TagCancel:
		return "cancel"
	case TagControl:
		return "control"
	default:
		return fmt.Sprintf("tag(%d)", uint8(t))
	}
}

// Waiter is the bounded wait every Endpoint provides. The head's run
// watchdog waits for the oldest in-flight run's result *or* its deadline,
// whichever comes first — a blocking Recv cannot express the deadline,
// and an Iprobe poll loop would either burn a core (real transports) or
// never let virtual time advance (simulated ones). Each transport waits
// natively: condition variables with a timer under chancomm/tcpcomm, a
// scheduled wake-up event under simcomm.
type Waiter interface {
	// WaitRecv blocks until Recv(src, tag) would return without blocking
	// or until d has elapsed on the node-local clock, and reports whether
	// a message is available. Spurious early returns are not allowed:
	// false means the full duration passed with no message.
	WaitRecv(src int, tag Tag, d time.Duration) bool
}

// Endpoint is one node's view of the cluster.
type Endpoint interface {
	// Rank is this node's index in [0, Size).
	Rank() int
	// Size is the number of nodes.
	Size() int
	// Send enqueues a message to dst. It never blocks (buffered send).
	// wireBytes is the size charged to the interconnect model; if <= 0,
	// len(payload) is charged. Real implementations ignore it.
	Send(dst int, tag Tag, payload []byte, wireBytes int)
	// Recv blocks until a message from src with the given tag arrives and
	// returns its payload. Messages per (src, tag) arrive in send order.
	Recv(src int, tag Tag) []byte
	// Iprobe reports whether Recv(src, tag) would return immediately.
	Iprobe(src int, tag Tag) bool
	// Waiter bounds a wait for a message by the node-local clock.
	Waiter
	// Now returns the node-local clock (wall time or virtual time).
	Now() time.Duration
	// Elapse accounts for d of local computation: simulated endpoints
	// advance their virtual clock, real endpoints do nothing because the
	// computation itself consumed wall time.
	Elapse(d time.Duration)
}
