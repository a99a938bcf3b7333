package engine

import (
	"encoding/binary"
	"fmt"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/trace"
	"github.com/pipeinfer/pipeinfer/internal/transact"
)

// Payload framing: the first byte of every activation/result payload says
// whether it carries data. Cancelled runs forward empty payloads so that
// message ordering and per-node state stay intact (§IV-D.2).
const (
	payloadEmpty byte = 0
	payloadData  byte = 1
)

// EmptyPayload returns the marker payload forwarded for cancelled runs.
// The buffer comes from the message pool; release it with comm.PutBuf
// after Send.
func EmptyPayload() []byte { return append(comm.GetBuf(1), payloadEmpty) }

// DataPayload frames a copy of data for the wire in a pooled buffer
// (release with comm.PutBuf after Send). Copying here is what lets
// workers return payloads that alias their reusable staging buffers.
func DataPayload(data []byte) []byte {
	out := append(comm.GetBuf(1+len(data)), payloadData)
	return append(out, data...)
}

// PayloadData unwraps a framed payload; ok is false for the empty marker.
func PayloadData(p []byte) (data []byte, ok bool) {
	if len(p) == 0 || p[0] == payloadEmpty {
		return nil, false
	}
	return p[1:], true
}

// Result payloads (last stage → head) extend the marker framing with the
// run's ID: marker byte | u32 run ID | data. The ID is what lets the head
// fence faults on the result stream — a result below the FIFO head's ID
// is late or duplicated and is discarded, one above it proves the FIFO
// head's own result was lost (per-stream FIFO order means it can never
// arrive later), so the run can be failed immediately instead of waiting
// out the watchdog deadline.
const resultHeader = 1 + 4

// ResultPayload frames a copy of data as a result carrying the run's ID
// (pooled buffer; release with comm.PutBuf after Send).
func ResultPayload(id uint32, data []byte) []byte {
	out := append(comm.GetBuf(resultHeader+len(data)), payloadData, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[1:], id)
	return append(out, data...)
}

// EmptyResultPayload frames the cancelled-run result marker for run id.
func EmptyResultPayload(id uint32) []byte {
	out := append(comm.GetBuf(resultHeader), payloadEmpty, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[1:], id)
	return out
}

// ParseResult unwraps a result payload into the run ID and optional data.
func ParseResult(p []byte) (id uint32, data []byte, hasData bool, err error) {
	if len(p) < resultHeader {
		return 0, nil, false, fmt.Errorf("engine: malformed result payload (%d bytes)", len(p))
	}
	id = binary.LittleEndian.Uint32(p[1:])
	if p[0] == payloadEmpty {
		return id, nil, false, nil
	}
	return id, p[resultHeader:], true, nil
}

// cancelSet tracks cancellation signals received out-of-band: per run ID
// the union of row masks seen, with the all-ones mask standing for a
// whole-run cancellation. Run IDs are issued and travel in increasing
// order, so entries at or below the last processed run can be garbage
// collected.
type cancelSet struct {
	masks map[uint32]uint64
}

// fullCancel is the stored mask meaning "the entire run is cancelled".
const fullCancel = ^uint64(0)

func newCancelSet() *cancelSet { return &cancelSet{masks: make(map[uint32]uint64)} }

func (c *cancelSet) drain(ep comm.Endpoint, head int) {
	for ep.Iprobe(head, comm.TagCancel) {
		buf := ep.Recv(head, comm.TagCancel)
		for _, sig := range DecodeCancel(buf) {
			m := sig.Sessions
			if m == 0 {
				m = fullCancel
			}
			c.masks[sig.ID] |= m
		}
		comm.PutBuf(buf)
	}
}

// full reports whether the whole run is cancelled.
func (c *cancelSet) full(id uint32) bool { return c.masks[id] == fullCancel }

// mask returns the union of session-row masks signalled for the run.
func (c *cancelSet) mask(id uint32) uint64 { return c.masks[id] }

func (c *cancelSet) gc(processed uint32) {
	for id := range c.masks {
		if id <= processed {
			delete(c.masks, id)
		}
	}
}

// WorkerObs carries a stage's optional observability hooks: a busy/idle
// meter feeding the per-stage bubble-fraction gauges and the stage's
// ring on the timeline, recording eval begin/end events. Both are
// nil-safe and allocation-free, so always-on telemetry costs two clock
// reads per evaluated run.
type WorkerObs struct {
	Meter  *trace.StageMeter
	Flight *trace.Ring
}

// eval is w.Eval bracketed by the stage's observations: the meter's busy
// window, and an eval+ / eval- pair whose end says how many rows were
// evaluated to completion — none when the run was skipped or a
// cancellation cut it short between layers (§IV-D.2).
func (o WorkerObs) eval(ep comm.Endpoint, w Worker, run *RunMsg, input []byte, cancelled func() bool) ([]byte, int, bool) {
	if o.Meter == nil && o.Flight == nil {
		return w.Eval(run, input, cancelled)
	}
	now := ep.Now()
	o.Meter.Begin(now)
	o.Flight.Record(now, trace.FlightEvalBeg, run.ID, trace.RunArg(uint8(run.Kind), run.Len()))
	out, wire, ok := w.Eval(run, input, cancelled)
	now = ep.Now()
	o.Meter.End(now)
	done := 0
	if ok {
		done = run.Len()
	}
	o.Flight.Record(now, trace.FlightEvalEnd, run.ID, int32(done))
	return out, wire, ok
}

// WorkerLoop is the main loop of every non-head pipeline rank: a
// transaction server that evaluates decode runs over its layer shard,
// applies pipelined KV operations, honours cancellation signals, and
// forwards transactions downstream in order. obs observes the stage's
// evaluations (the zero value observes nothing). It returns when the
// shutdown transaction arrives.
func WorkerLoop(ep comm.Endpoint, topo Topology, w Worker, obs WorkerObs) error {
	rank := ep.Rank()
	stageIdx := -1
	for i, s := range topo.Stages {
		if s == rank {
			stageIdx = i
			break
		}
	}
	if stageIdx < 0 {
		return fmt.Errorf("engine: rank %d is not a stage", rank)
	}
	if stageIdx == 0 && topo.HeadIsStage() {
		return fmt.Errorf("engine: rank %d is the head's inline stage, not a worker", rank)
	}
	upstream := topo.Head
	if stageIdx > 0 {
		upstream = topo.Stages[stageIdx-1]
	}
	downstream := -1
	if stageIdx < len(topo.Stages)-1 {
		downstream = topo.Stages[stageIdx+1]
	}
	// Whether this stage receives activations (anything downstream of the
	// first target stage does; the first stage embeds tokens itself).
	expectsActivation := stageIdx > 0

	cancels := newCancelSet()
	// The bubble-fraction window opens at serve start, not first eval:
	// a stage that idles before its first run is genuinely bubbling.
	obs.Meter.Open(ep.Now())
	d := transact.NewDispatcher(ep, upstream)

	d.Register(transact.TypeDecode, func(ep comm.Endpoint, src int) error {
		raw := ep.Recv(src, comm.TagRun)
		run, err := DecodeRunMsg(raw)
		comm.PutBuf(raw) // DecodeRunMsg never retains the wire buffer
		if err != nil {
			return err
		}
		var input, inputBuf []byte
		inputOK := true
		if expectsActivation {
			inputBuf = ep.Recv(src, comm.TagActivation)
			input, inputOK = PayloadData(inputBuf)
		}

		// Pipelined KV operations apply in transaction order even for
		// cancelled runs: they are metadata-only and the head's cleanup
		// ops account for them (§IV-C.3).
		w.ApplyKV(run.KVOps)

		cancels.drain(ep, topo.Head)
		skip := !inputOK // upstream already cancelled: nothing to compute
		if cancels.full(run.ID) && (run.Kind == KindSpec || run.Batched()) {
			// Speculative runs are dropped; non-speculative runs always
			// run to completion because multibuffering depends on their
			// cache entries (§IV-D.3). Batched runs of any kind may be
			// dropped whole: the head only fully cancels one when every
			// involved session's state is cleaned up namespace-wide.
			skip = true
		}
		if !skip && run.Batched() {
			// Surgical per-session cancellation: mask signalled sessions'
			// rows out of the batch. Workers skip masked rows' evaluation
			// and KV occupancy; the head guarantees those sessions'
			// sequences are cleaned up afterwards, so per-stage knowledge
			// lag is safe.
			run.DeadSessions = cancels.mask(run.ID)
			if run.AllDead() {
				skip = true
			}
		}

		last := downstream < 0
		var out []byte
		wire := 0
		if !skip {
			cancelled := func() bool {
				if run.Kind != KindSpec && !run.Batched() {
					return false
				}
				cancels.drain(ep, topo.Head)
				return cancels.full(run.ID)
			}
			data, w_, ok := obs.eval(ep, w, run, input, cancelled)
			if ok {
				// Eval's payload aliases worker staging; ResultPayload /
				// DataPayload copy it into a pooled wire buffer. Results
				// additionally carry the run ID so the head can fence
				// late, duplicated, or lost results on a faulty link.
				if last {
					out = ResultPayload(run.ID, data)
					wire = w_ + resultHeader
				} else {
					out = DataPayload(data)
					wire = w_ + 1
				}
			}
		}
		// input was only read by Eval; its buffer is done.
		if inputBuf != nil {
			comm.PutBuf(inputBuf)
		}
		if out == nil {
			if last {
				out = EmptyResultPayload(run.ID)
			} else {
				out = EmptyPayload()
			}
			wire = len(out)
		}
		cancels.gc(run.ID)

		if !last {
			transact.Begin(ep, downstream, transact.TypeDecode)
			enc := run.AppendEncode(comm.GetBuf(run.EncodedSize()))
			ep.Send(downstream, comm.TagRun, enc, len(enc))
			comm.PutBuf(enc)
			ep.Send(downstream, comm.TagActivation, out, wire)
			comm.PutBuf(out)
			return nil
		}
		// Last stage: deliver the result to the head. Cancelled or
		// superfluous runs return the empty marker — the head knows it
		// cancelled them, and skipping the logits transfer is the "final
		// sampling is skipped" saving of §IV-D.3.
		if cancels.full(run.ID) {
			comm.PutBuf(out)
			out = EmptyResultPayload(run.ID)
			wire = len(out)
		}
		ep.Send(topo.Head, comm.TagResult, out, wire)
		comm.PutBuf(out)
		return nil
	})

	d.Register(transact.TypeKV, func(ep comm.Endpoint, src int) error {
		raw := ep.Recv(src, comm.TagRun)
		ops, err := kvcache.DecodeOps(raw)
		if err != nil {
			comm.PutBuf(raw)
			return err
		}
		w.ApplyKV(ops)
		if downstream >= 0 {
			transact.Begin(ep, downstream, transact.TypeKV)
			ep.Send(downstream, comm.TagRun, raw, len(raw))
		}
		comm.PutBuf(raw)
		return nil
	})

	d.Register(transact.TypeShutdown, func(ep comm.Endpoint, src int) error {
		if downstream >= 0 {
			transact.Begin(ep, downstream, transact.TypeShutdown)
		}
		return nil
	})

	return d.Serve()
}
