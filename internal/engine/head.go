package engine

import (
	"fmt"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// Run is the head-side tracking record for one in-flight pipeline run
// (§IV-A.1: "each run of the target pipeline is tracked in a data
// structure ... placed in a FIFO queue").
type Run struct {
	Msg       *RunMsg
	Cancelled bool
	// Seqs are the sequence partitions this run holds; freed and cleaned
	// when the run completes. For batched runs they span several sessions'
	// namespaces — each id is returned to the namespace that owns it.
	Seqs []kvcache.SeqID
	// Deadline, when > 0, is the node-local time by which the run's result
	// must arrive before AwaitResult declares it failed: the serving
	// watchdog sets it at launch from the CostEMA service-time fit.
	Deadline time.Duration
	// FailedLive marks a watchdog-failed run that was still live when it
	// failed: its result carried state some session needed. A run the
	// scheduler had already cancelled produces an expected-missing result
	// and needs cleanup only, not session recovery.
	FailedLive bool
}

// Head drives the pipeline from rank 0: launching runs, shipping KV
// transactions, cancelling, and collecting results in FIFO order.
type Head struct {
	EP   comm.Endpoint
	Topo Topology
	CFG  Config
	BK   HeadBackend
	// Local is the head's inline stage worker (iterative/speculative
	// topologies where Stages[0] == Head); nil for PipeInfer.
	Local Worker

	nextID   uint32
	inflight ring[*Run]
	// localResults queues results produced entirely locally (single-node
	// topology), preserving FIFO semantics without comm.
	localResults ring[[]byte]
	// pendingResult holds a received result frame whose run ID is ahead of
	// the FIFO head (its arrival proved the oldest run's result lost); it
	// is re-examined after the failed run is popped.
	pendingResult []byte
	// freeRuns holds recycled run records, each with its message and
	// partition storage (NewRun, Recycle).
	freeRuns []*Run
	// sessInflight counts in-flight runs per session slot (RunMsg.Session),
	// the accounting the serving layer's fair admission is built on.
	sessInflight []int
	// drafting is the session slot the head drafts for (DraftFor).
	drafting uint16

	// Stats holds live counters: atomically mutated on the hot path so
	// telemetry can Snapshot() them mid-serve without stopping the
	// scheduler.
	Stats LiveStats
	// Flight, when non-nil, records the head's timeline: packed binary
	// events in a bounded lock-free ring, zero allocations, always on in
	// the serving layer.
	Flight *trace.Ring
	// LocalObs observes the inline stage like any other stage: its own
	// busy/idle meter and its own track on the timeline, so per-stage
	// utilisation reads the same whether or not the head hosts a stage.
	LocalObs WorkerObs
	// AfterFirstLaunch, when non-nil, runs once, on the launching
	// goroutine, as soon as the first run has been handed to the
	// transport: the place to start work that the head needs later but
	// that must not stand between a cold start and its first prefill.
	AfterFirstLaunch func()
}

// NewHead builds a head driver.
func NewHead(ep comm.Endpoint, topo Topology, cfg Config, bk HeadBackend, local Worker) (*Head, error) {
	if err := topo.Validate(ep.Size()); err != nil {
		return nil, err
	}
	if topo.HeadIsStage() && local == nil {
		return nil, fmt.Errorf("engine: topology needs an inline stage worker")
	}
	if !topo.HeadIsStage() && local != nil {
		return nil, fmt.Errorf("engine: inline worker given but head is not a stage")
	}
	return &Head{EP: ep, Topo: topo, CFG: cfg.Defaults(), BK: bk, Local: local}, nil
}

// record notes one head event on the timeline at the endpoint's clock,
// which it does not read when nothing records.
func (h *Head) record(kind trace.FlightKind, run uint32, arg int32) {
	if h.Flight != nil {
		h.Flight.Record(h.EP.Now(), kind, run, arg)
	}
}

// Inflight returns the number of runs currently in the pipeline.
func (h *Head) Inflight() int { return h.inflight.len() }

// InflightAt returns the i-th oldest in-flight run for invalidation scans
// (0 is the next run AwaitResult will pop).
func (h *Head) InflightAt(i int) *Run { return h.inflight.at(i) }

// SessionInflight reports how many of session slot s's runs are in the
// pipeline.
func (h *Head) SessionInflight(s uint16) int {
	if int(s) >= len(h.sessInflight) {
		return 0
	}
	return h.sessInflight[s]
}

// NewRun hands out a run record to compose into: a recycled one, whose
// message and partition list keep their capacity, or a fresh one. The
// caller Launches it or hands it back through Recycle.
func (h *Head) NewRun() *Run {
	if n := len(h.freeRuns); n > 0 {
		r := h.freeRuns[n-1]
		h.freeRuns = h.freeRuns[:n-1]
		return r
	}
	return &Run{Msg: &RunMsg{}}
}

// Recycle empties a run record, its message and its partition list and
// returns them to the free list NewRun draws from. Only callers that drop
// every reference to the record, its message and anything derived from
// their pointer identity may recycle.
func (h *Head) Recycle(run *Run) {
	msg := run.Msg
	*msg = RunMsg{Tokens: msg.Tokens[:0], RowSessions: msg.RowSessions[:0], RowRanges: msg.RowRanges[:0]}
	*run = Run{Msg: msg, Seqs: run.Seqs[:0]}
	h.freeRuns = append(h.freeRuns, run)
}

// adjustSessInflight credits delta to every session a run involves: one
// per row group.
func (h *Head) adjustSessInflight(msg *RunMsg, delta int) {
	for lo := range msg.Groups() {
		s := msg.RowSession(lo)
		for int(s) >= len(h.sessInflight) {
			h.sessInflight = append(h.sessInflight, 0)
		}
		h.sessInflight[s] += delta
	}
}

// DistinctSessions counts the sessions a run fans out to — its row
// groups, the realised cross-session batch width.
func DistinctSessions(msg *RunMsg) int {
	n := 0
	for range msg.Groups() {
		n++
	}
	return n
}

// Launch assigns the run's message an ID, queues the run in the FIFO,
// evaluates the head's inline stage if present, and sends the run down
// the pipeline.
func (h *Head) Launch(run *Run) {
	h.launch(run)
	if f := h.AfterFirstLaunch; f != nil {
		h.AfterFirstLaunch = nil
		f()
	}
}

func (h *Head) launch(run *Run) {
	msg := run.Msg
	h.nextID++
	msg.ID = h.nextID
	msg.DeadSessions = 0
	h.inflight.push(run)
	h.adjustSessInflight(msg, 1)
	h.Stats.RunsLaunched.Add(1)
	if n := DistinctSessions(msg); n > 1 {
		h.Stats.BatchedRuns.Add(1)
		h.Stats.BatchedRows.Add(int64(n))
	}
	h.record(trace.FlightLaunch, msg.ID, trace.RunArg(uint8(msg.Kind), msg.Len()))

	if h.Local != nil {
		h.Local.ApplyKV(msg.KVOps)
		out, wire, ok := h.LocalObs.eval(h.EP, h.Local, msg, nil, func() bool { return false })
		next := h.Topo.FirstRemote()
		if next < 0 {
			// Single-node: the inline stage is the whole pipeline. The
			// pooled result frame is released when AwaitResult consumes it.
			h.localResults.push(ResultPayload(ResultFrame{ID: msg.ID, OK: ok, Dead: msg.DeadSessions, Rows: out}))
			return
		}
		f := msg.AppendEncode(comm.GetBuf(msg.EncodedSize() + len(out) + 2))
		sendRun(h.EP, next, f, true, ok, out, wire)
		return
	}

	// Dedicated head (PipeInfer): ship tokens to the first target stage.
	sendRun(h.EP, h.Topo.Stages[0], msg.AppendEncode(comm.GetBuf(msg.EncodedSize()+1)), false, false, nil, 0)
}

// ResultWaiting reports whether a completed run's result can be consumed
// without blocking (§IV-B: the head's idleness probe).
func (h *Head) ResultWaiting() bool {
	if h.localResults.len() > 0 || h.pendingResult != nil {
		return true
	}
	if h.Topo.FirstRemote() < 0 {
		return false
	}
	return h.EP.Iprobe(h.Topo.LastStage(), comm.TagResult)
}

// DraftFor names the session slot whose draft the head evaluates next,
// the session YieldDraft asks about.
func (h *Head) DraftFor(slot uint16) { h.drafting = slot }

// YieldDraft is the drafter's probe between layers (§IV-B): a result is
// waiting, and it is the drafting session's — the oldest run in flight,
// whose result arrives first, carries its rows. Consuming it launches
// that session's non-speculative successor, which the draft would
// otherwise hold, and moves the frontier the draft extends. Another
// session's result waits for the draft to finish: were a draft cut short
// by every session's results, a head drafting for several would rarely
// finish one. With one session the probe is ResultWaiting.
func (h *Head) YieldDraft() bool {
	return h.inflight.len() > 0 && h.inflight.at(0).Msg.InvolvesSession(h.drafting) && h.ResultWaiting()
}

// consumeResult pops the FIFO head, checks its result frame against it
// and hands the rows to the backend. The frame has already been parsed
// and its ID matched against the run's.
func (h *Head) consumeResult(payload []byte) (run *Run, res Results, ok bool, err error) {
	run = h.inflight.pop()
	h.adjustSessInflight(run.Msg, -1)
	f, _ := ParseResult(payload)
	arg := int32(0)
	if f.OK {
		arg |= trace.ResultData
	}
	if run.Cancelled {
		arg |= trace.ResultCancelled
	}
	h.record(trace.FlightResult, run.Msg.ID, arg)
	if !f.OK {
		comm.PutBuf(payload)
		return run, nil, false, nil
	}
	// Backends consume the rows inside Results (both decode every row's
	// greedy choice eagerly into a RowTokens), so the wire buffer can
	// return to the pool here.
	if err = h.checkResult(run.Msg, f); err == nil {
		res = h.BK.Results(run, f.Dead, f.Rows)
	}
	comm.PutBuf(payload)
	return run, res, err == nil, err
}

// checkResult holds a result frame to the run the head launched. The last
// stage can only have masked sessions the head masked itself, since the
// head sent every mask, and the frame must carry exactly the rows that
// mask leaves, RowBytes each.
func (h *Head) checkResult(msg *RunMsg, f ResultFrame) error {
	if stray := f.Dead &^ msg.DeadSessions; stray != 0 {
		return fmt.Errorf("engine: result for run %d masks sessions %#x the head never masked", msg.ID, stray)
	}
	n := 0
	for i := range msg.Tokens {
		if msg.ResultRow(i, f.Dead) {
			n++
		}
	}
	if want := n * h.BK.RowBytes(); len(f.Rows) != want {
		return fmt.Errorf("engine: result for run %d carries %d bytes, want %d rows of %d", msg.ID, len(f.Rows), n, h.BK.RowBytes())
	}
	return nil
}

// AwaitResult waits for the oldest in-flight run's result and pops the
// run from the FIFO. ok is false when the run was cancelled (empty
// payload). Result frames carry their run's ID: a frame below the FIFO
// head's ID is a late or duplicated delivery of an already-failed run and
// is silently discarded; one above it means the oldest run's result is
// lost, since per-stream FIFO order delivers results in launch order.
//
// The oldest run's Deadline is the wait's budget. Without one the wait
// blocks in Recv and a lost result is an error. With one, the run is
// declared failed, and failed is true, when the deadline passes with
// nothing to show or a newer run's result arrives first; that frame is
// kept for the next await. A failed run is popped, counted in
// Stats.RunTimeouts, and signalled cancelled pipeline-wide; the caller
// owns recovering its sessions. Results a single-node head produces
// locally never fail.
func (h *Head) AwaitResult() (run *Run, res Results, ok, failed bool, err error) {
	if h.inflight.len() == 0 {
		return nil, nil, false, false, fmt.Errorf("engine: AwaitResult with empty pipeline")
	}
	if h.localResults.len() > 0 {
		run, res, ok, err = h.consumeResult(h.localResults.pop())
		return run, res, ok, false, err
	}
	last, oldest := h.Topo.LastStage(), h.inflight.at(0)
	want, deadline := oldest.Msg.ID, oldest.Deadline
	for {
		payload := h.pendingResult
		h.pendingResult = nil
		if payload == nil {
			if deadline > 0 && !h.EP.WaitRecv(last, comm.TagResult, max(0, deadline-h.EP.Now())) {
				return h.failOldest(), nil, false, true, nil
			}
			payload = h.EP.Recv(last, comm.TagResult)
		}
		f, perr := ParseResult(payload)
		switch {
		case perr != nil:
			comm.PutBuf(payload)
			return nil, nil, false, false, perr
		case f.ID == want:
			run, res, ok, err = h.consumeResult(payload)
			return run, res, ok, false, err
		case int32(f.ID-want) < 0:
			comm.PutBuf(payload) // stale: a failed run's late or duplicated result
		case deadline > 0:
			h.pendingResult = payload
			return h.failOldest(), nil, false, true, nil
		default:
			comm.PutBuf(payload)
			return nil, nil, false, false, fmt.Errorf("engine: result for run %d while awaiting run %d (result lost?)", f.ID, want)
		}
	}
}

// failOldest pops the oldest in-flight run as failed, counts the
// timeout, and signals every stage to skip whatever remains of it. The
// serving layer recovers the run's sessions afterwards (eviction +
// prefix-recompute readmission), which is what keeps greedy output
// bit-identical through the failure — and what lets the signal skip
// every session's rows, non-speculative ones included.
func (h *Head) failOldest() *Run {
	run := h.inflight.pop()
	h.adjustSessInflight(run.Msg, -1)
	h.Stats.RunTimeouts.Add(1)
	h.record(trace.FlightFail, run.Msg.ID, 0)
	if !run.Cancelled {
		// Failure is not a scheduling decision: the run is marked
		// cancelled so late stages skip it, but RunsCancelled stays put.
		run.FailedLive = true
		run.Cancelled = true
		if !h.CFG.DisableCancel {
			var all uint64
			for lo := range run.Msg.Groups() {
				all |= 1 << run.Msg.RowSession(lo)
			}
			payload := appendCancelSig(comm.GetBuf(cancelSigBytes), CancelSig{ID: run.Msg.ID, Sessions: all})
			h.broadcastCancel(payload)
			comm.PutBuf(payload)
		}
	}
	return run
}

// CancelSession cancels session slot's share of each of runs, every one of
// which carries rows of slot: the one cancellation the head makes (§IV-D),
// whatever the runs' shapes. The head masks the session out of each run
// (RunMsg.DeadSessions), so its rows' results are no longer delivered; a
// run whose every row group is masked is cancelled, and counted in
// RunsCancelled at that moment. A session masked out of a run that keeps
// other sessions' rows counts in RowCancels.
//
// What the stages are told is decided here and nowhere else — one entry
// per run, all in one broadcast, nothing under the no-cancellation
// ablation:
//   - (id, the session's bit), "skip these rows", when the run is
//     speculative or cleanup is set. cleanup promises that the session's
//     sequences are cleaned up namespace-wide afterwards (chain drop,
//     drain, eviction), so stages may leave the rows' cache entries
//     unwritten;
//   - (id, 0), "compute the run but send no result", when a
//     non-speculative run without cleanup has just become wholly masked:
//     multibuffering needs its canonical cache entries, so only the final
//     sampling is skipped (§IV-D.3);
//   - nothing otherwise: a non-speculative session's rows in a run that
//     keeps other sessions' rows are computed, and left out head-side.
func (h *Head) CancelSession(slot uint16, runs []*Run, cleanup bool) {
	if slot >= 64 {
		panic(fmt.Sprintf("engine: session slot %d outside the 64-slot cancel mask", slot))
	}
	bit := uint64(1) << slot
	payload := comm.GetBuf(cancelSigBytes * len(runs))
	for _, r := range runs {
		msg := r.Msg
		if r.Cancelled || msg.DeadSessions&bit != 0 {
			continue
		}
		msg.DeadSessions |= bit
		arg := trace.WholeRun
		if DistinctSessions(msg) > 1 {
			h.Stats.RowCancels.Add(1)
			arg = int32(slot)
		}
		h.record(trace.FlightCancel, msg.ID, arg)
		whole := msg.AllMasked(msg.DeadSessions)
		if whole {
			r.Cancelled = true
			h.Stats.RunsCancelled.Add(1)
		}
		switch {
		case msg.Kind == KindSpec || cleanup:
			payload = appendCancelSig(payload, CancelSig{ID: msg.ID, Sessions: bit})
		case whole:
			payload = appendCancelSig(payload, CancelSig{ID: msg.ID})
		}
	}
	if len(payload) > 0 && !h.CFG.DisableCancel {
		h.broadcastCancel(payload)
	}
	comm.PutBuf(payload)
}

// broadcastCancel ships a cancellation payload to every worker stage.
func (h *Head) broadcastCancel(payload []byte) {
	for _, s := range h.Topo.Stages {
		if s == h.Topo.Head {
			continue
		}
		h.EP.Send(s, comm.TagCancel, payload, len(payload))
	}
}

// SendKV ships cache operations as a pipelined KV transaction, one KV
// frame: applied to the inline stage immediately and forwarded stage to
// stage (§IV-C.3).
func (h *Head) SendKV(ops []kvcache.Op) {
	if len(ops) == 0 {
		return
	}
	if h.Local != nil {
		h.Local.ApplyKV(ops)
	}
	next := h.Topo.FirstRemote()
	if next < 0 {
		return
	}
	f := append(kvcache.AppendOps(comm.GetBuf(11*len(ops)+1), ops), byte(OpKV))
	h.EP.Send(next, comm.TagRun, f, len(f))
	comm.PutBuf(f)
}

// Shutdown sends the shutdown frame down the pipeline.
func (h *Head) Shutdown() {
	if next := h.Topo.FirstRemote(); next >= 0 {
		f := append(comm.GetBuf(1), byte(OpShutdown))
		h.EP.Send(next, comm.TagRun, f, 1)
		comm.PutBuf(f)
	}
}

// SampledAggregate records n accepted tokens in the head's aggregate,
// which keeps only first, last and count (see LiveStats.Sampled);
// per-request timestamps live in each session's own Stats.
func (h *Head) SampledAggregate(n int) {
	if n <= 0 {
		return
	}
	now := h.EP.Now()
	h.Stats.Sampled(now, n)
	h.Flight.Record(now, trace.FlightAccept, 0, int32(n))
}
