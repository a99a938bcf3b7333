package engine

import (
	"fmt"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/token"
	"github.com/pipeinfer/pipeinfer/internal/trace"
	"github.com/pipeinfer/pipeinfer/internal/transact"
)

// Run is the head-side tracking record for one in-flight pipeline run
// (§IV-A.1: "each run of the target pipeline is tracked in a data
// structure ... placed in a FIFO queue").
type Run struct {
	Msg *RunMsg
	// Ctx is the full token sequence up to and including the run's input
	// tokens along its path (used for simulated result interpretation and
	// invalidation checks).
	Ctx       []token.Token
	Cancelled bool
	// Seqs are the sequence partitions this run holds; freed and cleaned
	// when the run completes. For batched runs they span several sessions'
	// namespaces — each id is returned to the namespace that owns it.
	Seqs []kvcache.SeqID
	// Ctxs, for multi-session batched runs on context-carrying backends,
	// holds each token row's session context (Ctx is nil then). Rows of
	// one session share the same slice.
	Ctxs [][]token.Token
	// Deadline, when > 0, is the node-local time by which the run's result
	// must arrive before the serving watchdog declares it failed. Set by
	// the scheduler at launch from the CostEMA service-time fit.
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
	batchBK  BatchResultsBackend // BK's batched-frame view, nil if unsupported
	inflight ring[*Run]
	// localResults queues results produced entirely locally (single-node
	// topology), preserving FIFO semantics without comm.
	localResults ring[[]byte]
	// pendingResult holds a received result frame whose run ID is ahead of
	// the FIFO head (its arrival proved the oldest run's result lost); it
	// is re-examined after the failed run is popped.
	pendingResult []byte
	// freeRuns recycles consumed Run records (see Recycle): single-request
	// engines let records be garbage collected, the serving layer returns
	// them here so steady-state decode launches allocate nothing.
	freeRuns []*Run
	// sessInflight counts in-flight runs per session slot (RunMsg.Session),
	// the accounting the serving layer's fair admission is built on.
	sessInflight []int

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
	h := &Head{EP: ep, Topo: topo, CFG: cfg.Defaults(), BK: bk, Local: local}
	h.batchBK, _ = bk.(BatchResultsBackend)
	return h, nil
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

// newRun returns a zeroed tracking record, reusing a recycled one if
// available.
func (h *Head) newRun() *Run {
	if n := len(h.freeRuns); n > 0 {
		r := h.freeRuns[n-1]
		h.freeRuns = h.freeRuns[:n-1]
		return r
	}
	return &Run{}
}

// Recycle returns a consumed run record to the head's free list so the
// next Launch reuses it. Only callers that drop every reference to the
// record (and anything derived from its pointer identity) may recycle;
// the single-request engines, which key invalidation state by *Run, must
// not.
func (h *Head) Recycle(run *Run) {
	*run = Run{}
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

// Launch assigns an ID, evaluates the head's inline stage if present, and
// sends the run down the pipeline. It returns the tracking record.
func (h *Head) Launch(msg *RunMsg, ctx []token.Token, seqs []kvcache.SeqID) *Run {
	run := h.launch(msg, ctx, seqs)
	if f := h.AfterFirstLaunch; f != nil {
		h.AfterFirstLaunch = nil
		f()
	}
	return run
}

func (h *Head) launch(msg *RunMsg, ctx []token.Token, seqs []kvcache.SeqID) *Run {
	h.nextID++
	msg.ID = h.nextID
	msg.DeadSessions = 0
	run := h.newRun()
	run.Msg, run.Ctx, run.Seqs = msg, ctx, seqs
	h.inflight.push(run)
	h.adjustSessInflight(msg, 1)
	h.Stats.RunsLaunched.Add(1)
	if msg.Batched() {
		h.Stats.BatchedRuns.Add(1)
		h.Stats.BatchedRows.Add(int64(DistinctSessions(msg)))
	}
	h.record(trace.FlightLaunch, msg.ID, trace.RunArg(uint8(msg.Kind), msg.Len()))

	if h.Local != nil {
		h.Local.ApplyKV(msg.KVOps)
		out, wire, ok := h.LocalObs.eval(h.EP, h.Local, msg, nil, func() bool { return false })
		next := h.Topo.FirstRemote()
		if next < 0 {
			// Single-node: the inline stage is the whole pipeline. The
			// pooled result frame is released when AwaitResult consumes it.
			var payload []byte
			if ok {
				payload = ResultPayload(msg.ID, out)
			} else {
				payload = EmptyResultPayload(msg.ID)
			}
			h.localResults.push(payload)
			return run
		}
		var payload []byte
		pw := 0
		if ok {
			// Copies the worker's staging buffer into a pooled payload.
			payload = DataPayload(out)
			pw = wire + 1
		} else {
			payload = EmptyPayload()
			pw = len(payload)
		}
		transact.Begin(h.EP, next, transact.TypeDecode)
		enc := msg.AppendEncode(comm.GetBuf(msg.EncodedSize()))
		h.EP.Send(next, comm.TagRun, enc, len(enc))
		comm.PutBuf(enc)
		h.EP.Send(next, comm.TagActivation, payload, pw)
		comm.PutBuf(payload)
		return run
	}

	// Dedicated head (PipeInfer): ship tokens to the first target stage.
	first := h.Topo.Stages[0]
	transact.Begin(h.EP, first, transact.TypeDecode)
	enc := msg.AppendEncode(comm.GetBuf(msg.EncodedSize()))
	h.EP.Send(first, comm.TagRun, enc, len(enc))
	comm.PutBuf(enc)
	return run
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

// consumeResult pops the FIFO head and hands its result frame to the
// backend. The frame's ID has already been matched against the run's.
func (h *Head) consumeResult(payload []byte) (run *Run, res Results, ok bool, err error) {
	run = h.inflight.pop()
	h.adjustSessInflight(run.Msg, -1)
	_, data, hasData, _ := ParseResult(payload)
	arg := int32(0)
	if hasData {
		arg |= trace.ResultData
	}
	if run.Cancelled {
		arg |= trace.ResultCancelled
	}
	h.record(trace.FlightResult, run.Msg.ID, arg)
	if !hasData {
		comm.PutBuf(payload)
		return run, nil, false, nil
	}
	// Backends consume the payload inside Results (the real backend
	// extracts greedy choices eagerly; the simulated one replays the
	// oracle), so the wire buffer can return to the pool here. Batched
	// runs carry a self-describing multi-session result frame and go
	// through the backend's batch view.
	if run.Msg.Batched() && h.batchBK != nil {
		res = h.batchBK.BatchResults(run.Msg, run.Ctxs, data)
	} else {
		res = h.BK.Results(run.Msg, run.Ctx, data)
	}
	comm.PutBuf(payload)
	return run, res, true, nil
}

// AwaitResult blocks for the oldest in-flight run's result and pops it
// from the FIFO. ok is false when the run was cancelled (empty payload).
// Result frames carry their run's ID: a frame below the FIFO head's ID is
// a late or duplicated delivery of an already-failed run and is silently
// discarded; one above it means the oldest run's result is lost, which
// only the deadline-bounded AwaitResultWithin can recover from, so here
// it is an error.
func (h *Head) AwaitResult() (run *Run, res Results, ok bool, err error) {
	if h.inflight.len() == 0 {
		return nil, nil, false, fmt.Errorf("engine: AwaitResult with empty pipeline")
	}
	if h.localResults.len() > 0 {
		return h.consumeResult(h.localResults.pop())
	}
	want := h.inflight.at(0).Msg.ID
	for {
		var payload []byte
		if h.pendingResult != nil {
			payload, h.pendingResult = h.pendingResult, nil
		} else {
			payload = h.EP.Recv(h.Topo.LastStage(), comm.TagResult)
		}
		id, _, _, perr := ParseResult(payload)
		if perr != nil {
			comm.PutBuf(payload)
			return nil, nil, false, perr
		}
		if id == want {
			return h.consumeResult(payload)
		}
		comm.PutBuf(payload)
		if int32(id-want) < 0 {
			continue // stale: a failed run's late or duplicated result
		}
		return nil, nil, false, fmt.Errorf("engine: result for run %d while awaiting run %d (result lost?)", id, want)
	}
}

// AwaitResultWithin is AwaitResult bounded by the oldest run's watchdog
// budget: it waits up to d for that run's result and otherwise declares
// the run failed — either the deadline passed with nothing to show, or a
// newer run's result arrived first, which per-stream FIFO order turns
// into proof that the oldest result is lost. A failed run is popped,
// counted in Stats.RunTimeouts, and signalled cancelled pipeline-wide;
// the caller owns recovering its sessions. Endpoints without the
// comm.Waiter capability fall back to the blocking AwaitResult.
func (h *Head) AwaitResultWithin(d time.Duration) (run *Run, res Results, ok bool, failed bool, err error) {
	if h.inflight.len() == 0 {
		return nil, nil, false, false, fmt.Errorf("engine: AwaitResultWithin with empty pipeline")
	}
	if h.localResults.len() > 0 {
		run, res, ok, err = h.consumeResult(h.localResults.pop())
		return run, res, ok, false, err
	}
	waiter, canWait := h.EP.(comm.Waiter)
	if !canWait || h.Topo.FirstRemote() < 0 {
		run, res, ok, err = h.AwaitResult()
		return run, res, ok, false, err
	}
	last := h.Topo.LastStage()
	want := h.inflight.at(0).Msg.ID
	start := h.EP.Now()
	for {
		var payload []byte
		if h.pendingResult != nil {
			payload, h.pendingResult = h.pendingResult, nil
		} else {
			rem := d - (h.EP.Now() - start)
			if rem < 0 {
				rem = 0
			}
			if !waiter.WaitRecv(last, comm.TagResult, rem) {
				return h.failOldest(), nil, false, true, nil
			}
			payload = h.EP.Recv(last, comm.TagResult)
		}
		id, _, _, perr := ParseResult(payload)
		if perr != nil {
			comm.PutBuf(payload)
			return nil, nil, false, false, perr
		}
		switch {
		case id == want:
			run, res, ok, err = h.consumeResult(payload)
			return run, res, ok, false, err
		case int32(id-want) < 0:
			comm.PutBuf(payload) // stale: a failed run's late or duplicated result
		default:
			// FIFO order: a newer result can only arrive after the older
			// one, so the oldest run's result is gone. Keep the frame for
			// the next await.
			h.pendingResult = payload
			return h.failOldest(), nil, false, true, nil
		}
	}
}

// failOldest pops the oldest in-flight run as failed, counts the
// timeout, and signals every stage to skip whatever remains of it. The
// serving layer recovers the run's sessions afterwards (eviction +
// prefix-recompute readmission), which is what keeps greedy output
// bit-identical through the failure.
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
			payload := appendCancelSig(comm.GetBuf(cancelSigBytes), CancelSig{ID: run.Msg.ID})
			h.broadcastCancel(payload)
			comm.PutBuf(payload)
		}
	}
	return run
}

// Cancel back-propagates cancellation signals for the given runs to every
// worker stage and marks them cancelled in the FIFO (§IV-D.2). Under the
// no-cancellation ablation it only marks them locally so the head still
// discards their results. Signals carry run IDs, which are unique across
// sessions, so cancelling one session's runs can never touch another's.
func (h *Head) Cancel(runs []*Run) {
	payload := comm.GetBuf(cancelSigBytes * len(runs))
	n := 0
	for _, r := range runs {
		if r.Cancelled {
			continue
		}
		r.Cancelled = true
		n++
		payload = appendCancelSig(payload, CancelSig{ID: r.Msg.ID})
		h.Stats.RunsCancelled.Add(1)
		h.record(trace.FlightCancel, r.Msg.ID, trace.WholeRun)
	}
	if n > 0 && !h.CFG.DisableCancel {
		h.broadcastCancel(payload)
	}
	comm.PutBuf(payload)
}

// CancelRows surgically masks session slot's rows out of an in-flight
// batched run instead of cancelling the whole run: the head stops
// delivering those rows' results (the serving demux skips dead rows), and
// when signal is set a row-masked cancellation signal lets every stage
// skip the rows' evaluation too. signal must only be set when the
// session's sequences are cleaned up namespace-wide afterwards (chain
// drop, session drain, shard eviction) — stages that honour the mask skip
// the rows' KV occupancy, so without cleanup their caches would diverge.
// Once every session of the run is masked, the run counts as cancelled.
func (h *Head) CancelRows(run *Run, slot uint16, signal bool) {
	if !run.Msg.Batched() {
		panic("engine: CancelRows on a non-batched run")
	}
	if run.Cancelled || slot >= 64 {
		return
	}
	bit := uint64(1) << slot
	if run.Msg.DeadSessions&bit != 0 {
		return
	}
	run.Msg.DeadSessions |= bit
	h.Stats.RowCancels.Add(1)
	h.record(trace.FlightCancel, run.Msg.ID, int32(slot))
	if run.Msg.AllDead() {
		run.Cancelled = true
		h.Stats.RunsCancelled.Add(1)
	}
	if !signal || h.CFG.DisableCancel {
		return
	}
	payload := appendCancelSig(comm.GetBuf(cancelSigBytes), CancelSig{ID: run.Msg.ID, Sessions: bit})
	h.broadcastCancel(payload)
	comm.PutBuf(payload)
}

// CancelSession cancels session slot's share of each of runs. A run that
// is the session's alone (untagged) is cancelled whole, all of them in one
// broadcast (Cancel); a tagged run loses just the session's rows
// (CancelRows). cleanup says the session's sequences are cleaned up
// namespace-wide afterwards — the condition under which stages may skip
// non-speculative rows; without it only speculative rows are signalled
// (§IV-D.3 per row; stages never skip an untagged non-speculative run).
// runs is filtered in place.
func (h *Head) CancelSession(slot uint16, runs []*Run, cleanup bool) {
	whole := runs[:0]
	for _, r := range runs {
		if r.Msg.Batched() {
			h.CancelRows(r, slot, cleanup || r.Msg.Kind == KindSpec)
		} else {
			whole = append(whole, r)
		}
	}
	if len(whole) > 0 {
		h.Cancel(whole)
	}
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

// SendKV ships cache operations as a pipelined KV transaction: applied to
// the inline stage immediately and forwarded stage to stage (§IV-C.3).
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
	transact.Begin(h.EP, next, transact.TypeKV)
	enc := kvcache.AppendOps(comm.GetBuf(11*len(ops)), ops)
	h.EP.Send(next, comm.TagRun, enc, len(enc))
	comm.PutBuf(enc)
}

// Shutdown propagates the shutdown transaction through the pipeline.
func (h *Head) Shutdown() {
	if next := h.Topo.FirstRemote(); next >= 0 {
		transact.Begin(h.EP, next, transact.TypeShutdown)
	}
}

// Sampled records n accepted tokens, logging each timestamp: the
// single-request engines' acceptance hook.
func (h *Head) Sampled(n int) { h.sampled(n, true) }

// SampledAggregate is Sampled for the serving layer, whose aggregate
// keeps only first, last and count (see LiveStats.Sampled); per-request
// timestamps live in each session's own Stats.
func (h *Head) SampledAggregate(n int) { h.sampled(n, false) }

func (h *Head) sampled(n int, log bool) {
	if n <= 0 {
		return
	}
	now := h.EP.Now()
	h.Stats.Sampled(now, n, log)
	h.Flight.Record(now, trace.FlightAccept, 0, int32(n))
}
