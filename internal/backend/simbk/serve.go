package simbk

import (
	"fmt"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/simcomm"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/oracle"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/simnet"
	"github.com/pipeinfer/pipeinfer/internal/telemetry"
	"github.com/pipeinfer/pipeinfer/internal/token"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// ServeOptions configures one multi-tenant serving simulation: Sessions
// concurrent requests multiplexed over a paper-scale cluster, which is
// how multi-request scheduling behaviour is measured at 70B scale
// without 70B hardware.
type ServeOptions struct {
	Cluster cost.ClusterSpec
	Pair    cost.Pair
	CFG     engine.Config
	// Sessions is the number of requests to serve.
	Sessions int
	// PromptLen is each request's prompt size in tokens.
	PromptLen int
	// Seed drives every request's oracle stream; request i derives its
	// own prompt from it, so sessions generate distinct sequences.
	Seed uint64
	// Speculate enables per-session continuous speculation on a dedicated
	// drafting head (PipeInfer topology); without it every rank is a
	// target stage.
	Speculate bool
	// MaxSessions bounds concurrent session slots (default min(4,
	// Sessions)); SeqsPerSession is the per-session namespace width
	// (default 4 when speculating, else 1).
	MaxSessions    int
	SeqsPerSession int
	// KVCells overrides the per-stage KV capacity in cells (default:
	// every session slot fully provisioned); undersizing engages the
	// memory-pressure protocol. KVPageSize sets the page granularity.
	KVCells    int
	KVPageSize int
	// MaxBatch is the batch width: up to MaxBatch sessions' row groups
	// are composed into one multi-row pipeline run (internal/batch). 0 or
	// 1 is width 1.
	MaxBatch int
	// PrefillChunk splits prompt prefills into chunks of at most this
	// many tokens per composed run (chunked cross-session prefill,
	// shortest-remaining-first; 0 = a prompt's whole remaining range is
	// one chunk, one such chunk per run). AutoBatch replaces the static
	// width with the adaptive controller (MaxBatch becomes the cap).
	PrefillChunk int
	AutoBatch    bool
	// PrefixCache enables cross-session prompt-prefix reuse (PR 9):
	// completed cold prefills publish their page-aligned prompt prefix as
	// refcounted shared KV pages, and later admissions whose prompt
	// matches map the chain read-only instead of recomputing it.
	PrefixCache bool
	// SharedPromptLen, when > 0, prepends a common system prompt of that
	// many tokens to every request's otherwise-distinct prompt — the
	// multi-tenant shape prefix reuse targets. ServeReference derives its
	// per-request target stream from the same combined prompt, so parity
	// checks hold with or without the prefix cache.
	SharedPromptLen int
	// AcceptanceOverride, when > 0, replaces Pair.Acceptance.
	AcceptanceOverride float64
	// MaxQueue bounds the admission queue (PR 10): submissions past the
	// bound settle immediately as serve.ErrOverloaded results. 0 keeps
	// the queue unbounded.
	MaxQueue int
	// SLOFor, when non-nil, assigns request i its service class: a
	// priority plus TTFT and completion deadlines measured from the
	// simulation's virtual t=0 (0 disables a deadline). Requests whose
	// TTFT deadline becomes provably unmeetable while queued are shed
	// (serve.ErrShedDeadline) without consuming pipeline work; the
	// remaining sessions still reproduce ServeReference exactly.
	SLOFor func(i int) (priority int, ttftDeadline, deadline time.Duration)
	// RunTimeout arms the head's run watchdog in virtual time (PR 6):
	// failed runs recover their sessions by eviction + prefix-recompute
	// readmission. 0 disables.
	RunTimeout time.Duration
	// WrapEndpoint, when non-nil, wraps each rank's endpoint before the
	// engine sees it — the fault-injection hook (faultcomm over simcomm
	// perturbs the run in exact virtual time).
	WrapEndpoint func(rank int, ep comm.Endpoint) comm.Endpoint
	// OnRecover, when non-nil, observes fault recovery on the head.
	OnRecover func(req int)
	// Trace, when non-nil, receives the pipeline's timeline: every rank's
	// flight ring and the head's, as in Options.Trace.
	Trace *trace.Set
	// Obs, when non-nil, is the live telemetry registry: per-stage
	// busy/bubble meters, per-link traffic counters and flight rings are
	// registered for every simulated rank, and the scheduler's latency
	// histograms and health gauges are wired in — all evaluated in the
	// simulation's virtual time.
	Obs *telemetry.Registry
}

// ServeOutcome is the result of a serving simulation.
type ServeOutcome struct {
	Results    []serve.Result
	Stats      engine.Stats
	PerNodeMem []int64
}

func (o *ServeOptions) defaults() {
	if o.Sessions <= 0 {
		o.Sessions = 4
	}
	if o.PromptLen <= 0 {
		o.PromptLen = 128
	}
	sc := serve.Config{
		MaxSessions:    o.MaxSessions,
		SeqsPerSession: o.SeqsPerSession,
		Speculate:      o.Speculate,
	}.Normalize(o.Sessions)
	o.MaxSessions, o.SeqsPerSession = sc.MaxSessions, sc.SeqsPerSession
	if o.CFG.MaxInflight <= 0 {
		o.CFG.MaxInflight = max(12, o.MaxSessions+2)
	}
}

// servePrompt builds request i's deterministic prompt: an optional
// shared system prefix common to every request, then a per-request
// suffix no two requests share.
func servePrompt(opts *ServeOptions, i int) []token.Token {
	suffix := Prompt(simVocab, opts.PromptLen, opts.Seed^(uint64(i+1)*0x9e3779b97f4a7c15))
	if opts.SharedPromptLen <= 0 {
		return suffix
	}
	shared := Prompt(simVocab, opts.SharedPromptLen, opts.Seed^0xc0ffee51a12ed)
	return append(shared, suffix...)
}

// ServeReference returns the target stream request i of a serving
// simulation must reproduce exactly under greedy sampling — the
// per-session analogue of Reference.
func ServeReference(opts ServeOptions, i, maxNew int) []token.Token {
	opts.defaults()
	alpha := opts.Pair.Acceptance
	if opts.AcceptanceOverride > 0 {
		alpha = opts.AcceptanceOverride
	}
	o := oracle.New(simVocab, alpha, opts.Seed)
	return o.TargetStream(servePrompt(&opts, i), maxNew)
}

// Serve runs a multi-session serving simulation and returns per-request
// results plus aggregate stats and memory accounting.
func Serve(opts ServeOptions) (ServeOutcome, error) {
	opts.defaults()
	n := len(opts.Cluster.Nodes)
	strategy := engine.StrategyIterative
	if opts.Speculate {
		strategy = engine.StrategyPipeInfer
	}
	topo, err := engine.TopologyFor(strategy, n)
	if err != nil {
		return ServeOutcome{}, err
	}
	cfg := opts.CFG.Defaults()

	alpha := opts.Pair.Acceptance
	if opts.AcceptanceOverride > 0 {
		alpha = opts.AcceptanceOverride
	}
	o := oracle.New(simVocab, alpha, opts.Seed)
	reqs := make([]serve.Request, opts.Sessions)
	for i := range reqs {
		reqs[i] = serve.Request{Prompt: servePrompt(&opts, i), MaxNew: cfg.MaxNew}
		if opts.SLOFor != nil {
			reqs[i].Priority, reqs[i].TTFTDeadline, reqs[i].Deadline = opts.SLOFor(i)
		}
	}

	splits := cost.UniformSplit(opts.Pair.Target.NLayers, len(topo.Stages))
	cells := opts.MaxSessions*(opts.SharedPromptLen+opts.PromptLen+cfg.MaxNew+4*opts.SeqsPerSession*cfg.MicroBatch) + 256
	if opts.KVCells > 0 {
		cells = opts.KVCells
	}
	kv := kvpage.Config{Cells: cells, PageSize: opts.KVPageSize, ShardSeqs: opts.SeqsPerSession}

	k := simnet.NewKernel()
	cl := simcomm.New(k, n, func(int) *simnet.Link { return opts.Cluster.Link.NewLink() })

	var out ServeOutcome
	var runErr error
	workers := make([]*Worker, len(topo.Stages))
	// stageObs registers a stage: its meter with the registry, and its
	// one flight ring on whichever of the timeline set and the registry's
	// the caller supplied (all nil, and so inert, with neither).
	stageObs := func(rank int) engine.WorkerObs {
		name := fmt.Sprintf("rank%d", rank)
		ring := opts.Trace.Ring(name, 0)
		if ring == nil {
			ring = opts.Obs.Flight().Ring(name, 0)
		} else {
			opts.Obs.Flight().Attach(name, ring)
		}
		return engine.WorkerObs{Meter: opts.Obs.RegisterStage(name), Flight: ring}
	}

	for si, rank := range topo.Stages {
		if rank == topo.Head {
			continue
		}
		si, rank := si, rank
		k.Spawn(fmt.Sprintf("stage%d", si), func(p *simnet.Proc) {
			ep := comm.Endpoint(cl.Bind(rank, p))
			if opts.WrapEndpoint != nil {
				ep = opts.WrapEndpoint(rank, ep)
			}
			if opts.Obs != nil {
				ep = comm.Counted(ep, opts.Obs.RegisterLink(fmt.Sprintf("rank%d", rank)))
			}
			obs := stageObs(rank)
			w := NewWorker(ep, opts.Cluster.Nodes[rank], opts.Pair.Target,
				splits[si], si == len(topo.Stages)-1, kv)
			workers[si] = w
			if err := engine.WorkerLoop(ep, topo, w, obs); err != nil && runErr == nil {
				runErr = fmt.Errorf("simbk: stage %d: %w", si, err)
			}
		})
	}

	k.Spawn("head", func(p *simnet.Proc) {
		ep := comm.Endpoint(cl.Bind(topo.Head, p))
		if opts.WrapEndpoint != nil {
			ep = opts.WrapEndpoint(topo.Head, ep)
		}
		if opts.Obs != nil {
			ep = comm.Counted(ep, opts.Obs.RegisterLink(fmt.Sprintf("rank%d", topo.Head)))
		}
		bk := NewHead(ep, opts.Cluster.Nodes[topo.Head], opts.Pair.Draft, o)
		var local engine.Worker
		if topo.HeadIsStage() {
			w := NewWorker(ep, opts.Cluster.Nodes[topo.Head], opts.Pair.Target,
				splits[0], len(topo.Stages) == 1, kv)
			workers[0] = w
			local = w
		}
		h, err := engine.NewHead(ep, topo, cfg, bk, local)
		if err != nil {
			runErr = err
			return
		}
		// serve.New registers the head's ring with Obs itself.
		h.Flight = opts.Trace.Ring("head", 0)
		if local != nil {
			h.LocalObs = stageObs(topo.Head)
			h.LocalObs.Meter.Open(ep.Now())
		}
		sched, err := serve.New(h, serve.Config{
			MaxSessions:    opts.MaxSessions,
			SeqsPerSession: opts.SeqsPerSession,
			Speculate:      opts.Speculate,
			KV:             kv,
			MaxBatch:       opts.MaxBatch,
			PrefillChunk:   opts.PrefillChunk,
			AutoBatch:      opts.AutoBatch,
			RunTimeout:     opts.RunTimeout,
			MaxQueue:       opts.MaxQueue,
			OnRecover:      opts.OnRecover,
			PrefixCache:    opts.PrefixCache,
			Obs:            opts.Obs,
			// The simulated backend replays the oracle over run contexts.
			NeedCtx: true,
		}, reqs)
		if err != nil {
			runErr = err
			return
		}
		results, err := sched.Run()
		if err != nil {
			// The stages are parked in their worker loops and only the head
			// can release them; left there, the kernel reports their
			// deadlock in place of this error.
			h.Shutdown()
			runErr = fmt.Errorf("simbk: head: %w", err)
			return
		}
		out.Results = results
		out.Stats = h.Stats.Snapshot()
		out.PerNodeMem = make([]int64, n)
		out.PerNodeMem[topo.Head] += bk.MemoryBytes()
		for si, w := range workers {
			if w != nil {
				out.PerNodeMem[topo.Stages[si]] += w.MemoryBytes()
			}
		}
	})

	if err := k.Run(); err != nil {
		return ServeOutcome{}, fmt.Errorf("simbk: simulation: %w", err)
	}
	if runErr != nil {
		return ServeOutcome{}, runErr
	}
	// Serving end-state self-check: metadata invariants hold on every
	// stage and — every finished session having removed its namespace —
	// no cell is still occupied.
	for si, w := range workers {
		if w == nil {
			continue
		}
		if err := w.Cache().CheckInvariants(); err != nil {
			return ServeOutcome{}, fmt.Errorf("simbk: stage %d KV corruption: %w", si, err)
		}
		if used := w.Cache().Used(); used != 0 {
			return ServeOutcome{}, fmt.Errorf("simbk: stage %d KV leak: %d cells occupied after serving", si, used)
		}
	}
	return out, nil
}
