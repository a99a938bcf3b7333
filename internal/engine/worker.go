package engine

import (
	"fmt"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// Every pipeline operation the head issues travels downstream as one
// frame on comm.TagRun, and every stage forwards it as one frame; the
// frame's last byte names the operation:
//
//	run:      RunMsg encoding | [activation] | OpRun
//	KV:       encoded KV ops | OpKV
//	shutdown: OpShutdown
//
// A run frame carries an activation past the first target stage: a
// marker, then, unless the run was cancelled upstream, the activation
// rows. Its header's length is the decoded message's EncodedSize, so no
// length prefix is needed, and the op byte sits last so that a run frame
// starts with its message. The paper announces each operation on a start
// tag before its typed messages (§IV-A.2) to make every stage execute the
// operations in the order they were issued; one FIFO stream per link
// gives the same order here.
type FrameOp byte

// The pipeline operations. Zero is none of them, so an all-zero frame is
// an error.
const (
	OpRun FrameOp = 1 + iota
	OpKV
	OpShutdown
)

// FrameOpOf reads a frame's op byte; 0 for an empty frame.
func FrameOpOf(frame []byte) FrameOp {
	if len(frame) == 0 {
		return 0
	}
	return FrameOp(frame[len(frame)-1])
}

// Activation markers: the first byte of an activation says whether it
// carries data. Cancelled runs forward the empty marker so that message
// ordering and per-node state stay intact (§IV-D.2).
const (
	payloadEmpty byte = 0
	payloadData  byte = 1
)

// appendActivation appends an activation to a run frame: the empty
// marker, or the data marker and a copy of data. Copying here is what
// lets workers return payloads that alias their reusable staging buffers.
func appendActivation(f []byte, ok bool, data []byte) []byte {
	if !ok {
		return append(f, payloadEmpty)
	}
	return append(append(f, payloadData), data...)
}

// parseActivation reverses appendActivation; ok is false for the empty
// marker. A missing or unknown marker, or bytes after the empty one, is
// an error.
func parseActivation(p []byte) (data []byte, ok bool, err error) {
	switch {
	case len(p) == 0:
		return nil, false, fmt.Errorf("engine: run frame carries no activation")
	case p[0] == payloadData:
		return p[1:], true, nil
	case p[0] != payloadEmpty:
		return nil, false, fmt.Errorf("engine: activation has unknown marker %d", p[0])
	case len(p) > 1:
		return nil, false, fmt.Errorf("engine: empty activation carries %d bytes", len(p)-1)
	}
	return nil, false, nil
}

// sendRun completes the run frame f, which holds the run's encoding, and
// sends it to dst. A frame for a stage past the first target stage (act)
// carries the activation, whose data is charged wire bytes. The frame is
// charged its op byte, its header and, with an activation, the marker
// and the data's wire bytes.
func sendRun(ep comm.Endpoint, dst int, f []byte, act, ok bool, data []byte, wire int) {
	charge := len(f) + 1
	if act {
		f = appendActivation(f, ok, data)
		charge++
		if ok {
			charge += wire
		}
	}
	f = append(f, byte(OpRun))
	ep.Send(dst, comm.TagRun, f, charge)
	comm.PutBuf(f)
}

// A result frame (last stage → head) is
//
//	marker | u32 run ID | [u64 dead-session mask] | result rows
//
// The ID is what lets the head fence faults on the result stream — a
// result below the FIFO head's ID is late or duplicated and is discarded,
// one above it proves the FIFO head's own result was lost (per-stream FIFO
// order means it can never arrive later), so the run can be failed
// immediately instead of waiting out the watchdog deadline. The rows are
// the ones RunMsg.ResultRow selects under the mask; the mask is written,
// behind its own marker, only when the last stage had masked sessions out
// of the run, so every frame of a run nobody masked is marker | ID | rows.
const (
	payloadMasked byte = 2
	resultHeader       = 1 + 4
)

// ResultFrame is one result frame's content.
type ResultFrame struct {
	ID uint32
	// OK is false for the empty marker a cancelled or cut-short run
	// returns; such a frame carries neither mask nor rows.
	OK bool
	// Dead is the set of session slots (bit per slot) whose rows the last
	// stage had masked out of the run.
	Dead uint64
	// Rows holds the result rows back to back; a parsed frame's aliases
	// the payload.
	Rows []byte
}

// headerLen is the frame's size on the wire without its rows.
func (f *ResultFrame) headerLen() int {
	if f.OK && f.Dead != 0 {
		return resultHeader + 8
	}
	return resultHeader
}

// ResultPayload encodes f, copying its rows, into a pooled buffer
// (release with comm.PutBuf after Send).
func ResultPayload(f ResultFrame) []byte {
	buf := comm.GetBuf(f.headerLen() + len(f.Rows))
	switch {
	case !f.OK:
		return appendU32(append(buf, payloadEmpty), f.ID)
	case f.Dead == 0:
		buf = appendU32(append(buf, payloadData), f.ID)
	default:
		buf = appendU64(appendU32(append(buf, payloadMasked), f.ID), f.Dead)
	}
	return append(buf, f.Rows...)
}

// ParseResult decodes a result frame. It accepts exactly what
// ResultPayload writes: an unknown marker, an empty marker with anything
// after the ID, a mask marker with a zero or truncated mask, or a short
// frame is an error, never a panic.
func ParseResult(p []byte) (ResultFrame, error) {
	if len(p) < resultHeader {
		return ResultFrame{}, fmt.Errorf("engine: malformed result payload (%d bytes)", len(p))
	}
	f := ResultFrame{ID: readU32(p[1:]), OK: true}
	switch p[0] {
	case payloadEmpty:
		if len(p) != resultHeader {
			return ResultFrame{}, fmt.Errorf("engine: empty result for run %d carries %d bytes", f.ID, len(p)-resultHeader)
		}
		f.OK = false
		return f, nil
	case payloadData:
	case payloadMasked:
		if len(p) < resultHeader+8 {
			return ResultFrame{}, fmt.Errorf("engine: result for run %d truncated in its session mask", f.ID)
		}
		if f.Dead = readU64(p[resultHeader:]); f.Dead == 0 {
			return ResultFrame{}, fmt.Errorf("engine: result for run %d carries an empty session mask", f.ID)
		}
	default:
		return ResultFrame{}, fmt.Errorf("engine: result for run %d has unknown marker %d", f.ID, p[0])
	}
	f.Rows = p[f.headerLen():]
	return f, nil
}

// cancelSet tracks the cancellation entries received out-of-band, per run
// ID: the union of the skip masks, and whether a (id, 0) entry asked for
// the run's result to be dropped. Run IDs are issued and travel in
// increasing order, so entries at or below the last processed run can be
// garbage collected.
type cancelSet struct {
	runs map[uint32]cancelEntry
	sigs []CancelSig // drain's decode staging
}

// cancelEntry is what the entries received for one run add up to.
type cancelEntry struct {
	skip uint64
	drop bool
}

func newCancelSet() *cancelSet { return &cancelSet{runs: make(map[uint32]cancelEntry)} }

func (c *cancelSet) drain(ep comm.Endpoint, head int) {
	for ep.Iprobe(head, comm.TagCancel) {
		buf := ep.Recv(head, comm.TagCancel)
		c.sigs = AppendDecodeCancel(c.sigs[:0], buf)
		for _, sig := range c.sigs {
			e := c.runs[sig.ID]
			e.skip |= sig.Sessions
			e.drop = e.drop || sig.Sessions == 0
			c.runs[sig.ID] = e
		}
		comm.PutBuf(buf)
	}
}

// skip returns the union of the skip masks signalled for the run.
func (c *cancelSet) skip(id uint32) uint64 { return c.runs[id].skip }

// drop reports whether the head asked for the run's result to be dropped.
func (c *cancelSet) drop(id uint32) bool { return c.runs[id].drop }

func (c *cancelSet) gc(processed uint32) {
	for id := range c.runs {
		if id <= processed {
			delete(c.runs, id)
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

// WorkerLoop is the main loop of every non-head pipeline rank. It
// receives the pipeline's operations from upstream, one frame each, in the
// order they were issued: it applies KV transactions and places every
// run, evaluates what no cancellation skipped over its layer shard, and
// forwards each operation downstream as one frame. obs observes the
// stage's evaluations (the zero value observes nothing). It returns when
// the shutdown frame arrives, and with an error on a frame it cannot read
// or apply.
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

	// Every run decodes into one message, and one probe serves every
	// evaluation, so a stage's steady state allocates nothing. The
	// cut-short probe between layer chunks (§IV-D.2) makes the admission
	// test below on what has arrived since.
	run := &RunMsg{}
	cancelled := func() bool {
		cancels.drain(ep, topo.Head)
		return run.AllMasked(cancels.skip(run.ID))
	}
	var kvOps []kvcache.Op

	// evalRun executes one run frame's body; it only reads body.
	evalRun := func(body []byte) error {
		if err := run.Decode(body); err != nil {
			return err
		}
		hdr := run.EncodedSize()
		input, inputOK := []byte(nil), true
		if expectsActivation {
			var err error
			if input, inputOK, err = parseActivation(body[hdr:]); err != nil {
				return fmt.Errorf("engine: run %d: %w", run.ID, err)
			}
		} else if len(body) > hdr {
			return fmt.Errorf("engine: run %d: first-stage frame carries %d bytes past its header", run.ID, len(body)-hdr)
		}

		// KV operations and placement follow the transaction stream alone
		// (§IV-C.3), cancelled or not: the stage's cache stays the head's
		// shadow's replica, and the head's cleanup ops remove what a
		// cancelled run placed.
		if err := w.Place(run); err != nil {
			return fmt.Errorf("engine: run %d: %w", run.ID, err)
		}

		// One rule, whatever the run's kind or shape; the head decided what
		// each entry means. The sessions the skip entries name are masked
		// out: their placed rows are not evaluated, and a run with every
		// row group masked — or one its upstream stage skipped — is not
		// evaluated at all.
		cancels.drain(ep, topo.Head)
		run.DeadSessions = cancels.skip(run.ID)
		var data []byte
		wire, ok := 0, false
		if inputOK && !run.AllMasked(run.DeadSessions) {
			data, wire, ok = obs.eval(ep, w, run, input, cancelled)
		}
		drop := cancels.drop(run.ID)
		cancels.gc(run.ID)
		if downstream >= 0 {
			// The header travels on as it arrived; the activation is
			// this stage's output, copied out of the worker's staging.
			f := append(comm.GetBuf(hdr+len(data)+2), body[:hdr]...)
			sendRun(ep, downstream, f, true, ok, data, wire)
			return nil
		}
		// The last stage answers a run it skipped, or one the head asked to
		// be computed without a result, with the empty marker: the head
		// knows it cancelled them, and dropping the logits transfer is the
		// "final sampling is skipped" saving of §IV-D.3. A result frame
		// carries the run ID, so the head can fence late, duplicated, or
		// lost results on a faulty link, and the sessions this stage masked
		// out, which name the rows the frame leaves out.
		f := ResultFrame{ID: run.ID}
		if ok && !drop {
			f = ResultFrame{ID: run.ID, OK: true, Dead: run.DeadSessions, Rows: data}
		}
		out := ResultPayload(f) // copies the rows out of the worker's staging
		if f.OK {
			wire += f.headerLen()
		} else {
			wire = len(out)
		}
		ep.Send(topo.Head, comm.TagResult, out, wire)
		comm.PutBuf(out)
		return nil
	}

	for {
		frame := ep.Recv(upstream, comm.TagRun)
		var err error
		switch op := FrameOpOf(frame); op {
		case OpRun:
			err = evalRun(frame[:len(frame)-1])
		case OpKV:
			if kvOps, err = kvcache.AppendDecodeOps(kvOps[:0], frame[:len(frame)-1]); err == nil {
				err = w.ApplyKV(kvOps)
			}
			if err == nil && downstream >= 0 {
				ep.Send(downstream, comm.TagRun, frame, len(frame))
			}
		case OpShutdown:
			if len(frame) != 1 {
				err = fmt.Errorf("engine: shutdown frame carries %d bytes", len(frame)-1)
				break
			}
			if downstream >= 0 {
				ep.Send(downstream, comm.TagRun, frame, 1)
			}
			comm.PutBuf(frame)
			return nil
		default:
			err = fmt.Errorf("engine: %d-byte frame names no pipeline operation (op %d)", len(frame), op)
		}
		comm.PutBuf(frame)
		if err != nil {
			return err
		}
	}
}
