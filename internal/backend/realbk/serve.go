package realbk

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/telemetry"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// ServeOptions configures one multi-request serving run on the real
// backend: a persistent pipeline over which the session scheduler
// multiplexes every queued request.
type ServeOptions struct {
	Nodes    int
	CFG      engine.Config
	ModelCfg model.Config
	Seed     uint64
	// Speculate hosts a draft model on a dedicated head (PipeInfer
	// topology) and runs continuous per-session speculation; without it
	// every rank is a target stage and sessions interleave plain
	// non-speculative runs.
	Speculate  bool
	DraftNoise float32

	// MaxSessions is the number of concurrent session slots; queued
	// requests beyond it are admitted as slots free up. Defaults to
	// min(4, len(Requests)).
	MaxSessions int
	// SeqsPerSession is each session's KV namespace width (default 4 when
	// speculating, else 1).
	SeqsPerSession int

	// KVCells overrides the per-stage KV cache capacity in cells. The
	// default provisions every session's worst case simultaneously; a
	// smaller value oversubscribes the cache and engages the serving
	// layer's memory-pressure protocol (speculative drop, session
	// preemption, prefix-recompute readmission). It must cover at least
	// one full request.
	KVCells int
	// KVPageSize sets the paged cache's page granularity
	// (default kvpage.DefaultPageSize).
	KVPageSize int

	// MaxBatch is the batch width: up to MaxBatch sessions' row groups
	// are composed into one multi-row pipeline run (internal/batch). 0 or
	// 1 is width 1.
	MaxBatch int
	// PrefillChunk splits prompt prefills into chunks of at most this
	// many tokens per composed run; chunks batch across sessions and ride
	// in the same multi-row runs as decode rows, scheduled
	// shortest-remaining-prefill-first (0 = a prompt's whole remaining
	// range is one chunk, one such chunk per run).
	PrefillChunk int
	// AutoBatch replaces the static batch width with the adaptive
	// controller (-batch=auto): MaxBatch becomes the cap (default
	// MaxSessions) and the per-step width tracks demand, pipeline
	// occupancy and the EMA-measured per-run overhead.
	AutoBatch bool

	// PrefixCache enables cross-session prompt-prefix reuse (PR 9):
	// completed cold prefills publish their page-aligned prompt prefix as
	// immutable refcounted shared KV pages, and later requests whose
	// prompt matches map the published chain read-only instead of
	// recomputing it — a shared system prompt is computed once and hit
	// sessions' TTFT drops to the divergent suffix. Greedy output is
	// bit-identical with or without it.
	PrefixCache bool

	// RunTimeout arms the head's run watchdog (PR 6): a launched run whose
	// result does not arrive within its per-run deadline is declared
	// failed, and the sessions it carried are recovered by eviction +
	// prefix-recompute readmission. 0 (the default) disables the watchdog.
	RunTimeout time.Duration

	// MaxQueue bounds the admission queue (PR 10): submissions past the
	// bound settle as serve.ErrOverloaded results instead of waiting, and
	// the bound anchors the brown-out degradation ladder. 0 keeps the
	// queue unbounded. Per-request SLO classes (priority, TTFT and
	// completion deadlines) ride on the Requests entries themselves.
	MaxQueue int

	// WrapEndpoint, when non-nil, wraps each rank's endpoint before the
	// engine sees it — the hook fault-injection harnesses (faultcomm) use
	// to perturb a run without the backend knowing.
	WrapEndpoint func(rank int, ep comm.Endpoint) comm.Endpoint

	// Obs, when non-nil, is the live telemetry registry: each rank
	// registers a per-stage busy/idle meter, a per-link traffic counter
	// (the endpoint is wrapped with comm.Counted) and a flight-recorder
	// ring, and the head wires the scheduler's latency histograms and
	// health gauges into it. In-process Serve shares one registry across
	// all rank goroutines; distributed ServeRank deployments give each
	// process its own.
	Obs *telemetry.Registry

	Requests []serve.Request
	// OnWeights, when non-nil, hears each rank's target weights become
	// resident: layers [lo, hi) derived in took. In-process Serve calls
	// it from every rank's goroutine.
	OnWeights func(rank, lo, hi int, took time.Duration)
	// OnToken, when non-nil, streams accepted tokens as they are sampled.
	OnToken func(req int, tok token.Token)
	// OnPreempt / OnReadmit, when non-nil, observe the memory-pressure
	// protocol: a request being parked (its KV footprint evicted) and
	// later readmitted via prefix recompute.
	OnPreempt func(req int)
	OnReadmit func(req int)
	// OnRecover, when non-nil, observes fault recovery: a request whose
	// in-flight run was declared failed being parked for readmission.
	OnRecover func(req int)
}

// ServeOutcome is the result of a serving run.
type ServeOutcome struct {
	// Results holds one entry per request, in request order.
	Results []serve.Result
	// Stats aggregates the head's view of the whole run (total tokens,
	// launches, cancellations, acceptance timeline).
	Stats engine.Stats
	// PerNodeMem holds resident bytes per rank; in distributed runs each
	// rank fills only its own slot.
	PerNodeMem []int64
}

func (o *ServeOptions) defaults() {
	if o.ModelCfg.Dim == 0 {
		o.ModelCfg = model.TinyConfig()
	}
	if o.Nodes <= 0 {
		o.Nodes = 1
	}
	if o.DraftNoise == 0 {
		o.DraftNoise = 0.05
	}
	sc := serve.Config{
		MaxSessions:    o.MaxSessions,
		SeqsPerSession: o.SeqsPerSession,
		Speculate:      o.Speculate,
	}.Normalize(len(o.Requests))
	o.MaxSessions, o.SeqsPerSession = sc.MaxSessions, sc.SeqsPerSession
	if o.CFG.MaxInflight <= 0 {
		// Serving wants at least one run in flight per session slot, plus
		// headroom for speculation, before the global bound throttles.
		o.CFG.MaxInflight = max(12, o.MaxSessions+2)
	}
}

// servePlan derives the rank-independent layout every rank computes
// identically from ServeOptions.
func buildServePlan(opts *ServeOptions) (*plan, error) {
	opts.defaults()
	if len(opts.Requests) == 0 {
		return nil, fmt.Errorf("realbk: no requests to serve")
	}
	strategy := engine.StrategyIterative
	if opts.Speculate {
		strategy = engine.StrategyPipeInfer
	}
	topo, err := engine.TopologyFor(strategy, opts.Nodes)
	if err != nil {
		return nil, err
	}
	cfg := opts.CFG.Defaults()
	maxReq := 0
	for _, r := range opts.Requests {
		n := r.MaxNew
		if n <= 0 {
			n = cfg.MaxNew
		}
		if len(r.Prompt)+n > maxReq {
			maxReq = len(r.Prompt) + n
		}
	}
	// Every concurrent session can hold a full request in its canonical
	// sequence plus in-flight speculative partitions; KVCells deliberately
	// undersizes this to engage the memory-pressure protocol.
	cells := opts.MaxSessions*(maxReq+4*opts.SeqsPerSession*cfg.MicroBatch) + 128
	if opts.KVCells > 0 {
		cells = opts.KVCells
	}
	p := &plan{
		cfg:  cfg,
		topo: topo,
		kv: kvpage.Config{
			Cells:     cells,
			PageSize:  opts.KVPageSize,
			ShardSeqs: opts.SeqsPerSession,
		},
		obs:       opts.Obs,
		onWeights: opts.OnWeights,
	}
	if err := p.split(opts.ModelCfg, opts.Seed, opts.DraftNoise); err != nil {
		return nil, err
	}
	return p, nil
}

// ServeRank executes one pipeline rank of a serving run over the given
// endpoint; all ranks must be constructed with identical options. Rank 0
// runs the session scheduler and returns the full outcome, worker ranks
// return only their memory accounting — the same split RunRank uses, so
// the serving layer runs unchanged over chancomm or tcpcomm.
func ServeRank(ep comm.Endpoint, opts ServeOptions) (ServeOutcome, error) {
	return serveRank(ep, opts, newWeights(1))
}

// serveRank is ServeRank over the weights the ranks of one process share
// (a rank that is a process of its own shares with itself alone).
func serveRank(ep comm.Endpoint, opts ServeOptions, shared *weights) (ServeOutcome, error) {
	p, err := buildServePlan(&opts)
	if err != nil {
		return ServeOutcome{}, err
	}
	if ep.Size() != opts.Nodes {
		return ServeOutcome{}, fmt.Errorf("realbk: endpoint cluster size %d != %d nodes", ep.Size(), opts.Nodes)
	}
	if opts.WrapEndpoint != nil {
		ep = opts.WrapEndpoint(ep.Rank(), ep)
	}
	// rawEP keeps the pre-telemetry endpoint: capability probes (the
	// Reconnects accounting below) must not be hidden by the counting
	// wrapper.
	rawEP := ep
	if opts.Obs != nil {
		ep = comm.Counted(ep, opts.Obs.RegisterLink(fmt.Sprintf("rank%d", ep.Rank())))
	}
	rank := ep.Rank()
	part, err := p.build(rank, shared)
	if err != nil {
		return ServeOutcome{}, err
	}
	out := ServeOutcome{PerNodeMem: make([]int64, opts.Nodes)}

	if rank != p.topo.Head {
		si := p.stageIdx(rank)
		if si < 0 {
			return ServeOutcome{}, fmt.Errorf("realbk: rank %d has no role", rank)
		}
		w := p.newWorker(part, si)
		obs := stageObs(opts.Obs, rank)
		if err := engine.WorkerLoop(ep, p.topo, w, obs); err != nil {
			return ServeOutcome{}, fmt.Errorf("realbk: stage %d: %w", si, err)
		}
		if err := serveCacheClean(w.Cache()); err != nil {
			return ServeOutcome{}, fmt.Errorf("realbk: stage %d: %w", si, err)
		}
		out.PerNodeMem[rank] = w.MemoryBytes()
		return out, nil
	}

	// Head rank: scheduler over all requests.
	h, bk, localWorker, err := p.newHead(ep, part, shared, opts.Speculate)
	if err != nil {
		return ServeOutcome{}, err
	}
	defer bk.Settle()
	if localWorker != nil {
		// The head's inline stage is observed like any stage; its meter's
		// window opens with the scheduler, same as remote stages.
		h.LocalObs = stageObs(opts.Obs, rank)
		h.LocalObs.Meter.Open(ep.Now())
	}
	results, err := runScheduler(h, p, opts)
	if err != nil {
		// The stages are parked in their worker loops and only the head
		// can release them.
		h.Shutdown()
		return ServeOutcome{}, err
	}
	if localWorker != nil {
		if err := serveCacheClean(localWorker.Cache()); err != nil {
			return ServeOutcome{}, fmt.Errorf("realbk: head stage: %w", err)
		}
		out.PerNodeMem[rank] += localWorker.MemoryBytes()
	}
	out.PerNodeMem[rank] += bk.MemoryBytes()
	out.Results = results
	if rc, ok := rawEP.(interface{ Reconnects() int }); ok {
		h.Stats.Reconnects.Store(int64(rc.Reconnects()))
	}
	out.Stats = h.Stats.Snapshot()
	return out, nil
}

// runScheduler drives the session scheduler over every request.
func runScheduler(h *engine.Head, p *plan, opts ServeOptions) ([]serve.Result, error) {
	sched, err := serve.New(h, serve.Config{
		MaxSessions:    opts.MaxSessions,
		SeqsPerSession: opts.SeqsPerSession,
		Speculate:      opts.Speculate,
		KV:             p.kv,
		OnToken:        opts.OnToken,
		OnPreempt:      opts.OnPreempt,
		OnReadmit:      opts.OnReadmit,
		MaxBatch:       opts.MaxBatch,
		PrefillChunk:   opts.PrefillChunk,
		AutoBatch:      opts.AutoBatch,
		RunTimeout:     opts.RunTimeout,
		MaxQueue:       opts.MaxQueue,
		OnRecover:      opts.OnRecover,
		PrefixCache:    opts.PrefixCache,
		Obs:            opts.Obs,
	}, opts.Requests)
	if err != nil {
		return nil, err
	}
	return sched.Run()
}

// serveCacheClean asserts the serving end state: structurally consistent
// metadata and — because every finished session removed its whole
// namespace — an entirely empty cache with every page back on the free
// list.
func serveCacheClean(c *kvpage.Cache) error {
	if err := c.CheckInvariants(); err != nil {
		return fmt.Errorf("KV corruption: %w", err)
	}
	if c.Used() != 0 {
		return fmt.Errorf("KV leak: %d cells still occupied after serving", c.Used())
	}
	return nil
}

// Serve spawns one goroutine per pipeline rank connected by chancomm and
// multiplexes every request through the shared pipeline — the
// persistent-server counterpart of the one-shot Run. No weights are built
// ahead of the spawn: each rank derives the layers it evaluates on its
// own goroutine and the ranks share them read-only (weights), so the
// target is built once between them, in parallel, and a speculating
// head's draft perturbs it in place of a second derivation.
func Serve(opts ServeOptions) (ServeOutcome, error) {
	opts.defaults()
	cluster := chancomm.New(opts.Nodes)
	shared := newWeights(opts.Nodes)

	outcomes := make([]ServeOutcome, opts.Nodes)
	errs := make([]error, opts.Nodes)
	var wg sync.WaitGroup
	for rank := 1; rank < opts.Nodes; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[rank], errs[rank] = serveRank(cluster.Endpoint(rank), opts, shared)
		}()
	}
	outcomes[0], errs[0] = serveRank(cluster.Endpoint(0), opts, shared)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ServeOutcome{}, err
		}
	}
	out := outcomes[0]
	for rank := 1; rank < opts.Nodes; rank++ {
		for i, m := range outcomes[rank].PerNodeMem {
			out.PerNodeMem[i] += m
		}
	}
	// Everything this call built — the weights, every stage's KV store
	// and scratch, the in-flight wire buffers — has just died, and it was
	// nearly all of the process's live heap. Collect it at this boundary:
	// left to the pacer, a process that serves pipelines back to back
	// builds each one on top of its dead predecessor, and the collector,
	// having last seen a whole pipeline live, lets the heap reach twice
	// (pipeline + whatever the caller retains) before it runs again.
	// One collection per pipeline costs well under a millisecond.
	runtime.GC()
	return out, nil
}

// stageObs registers rank's stage with the registry: its bubble-fraction
// meter and its flight ring (both nil, and so inert, without a registry).
func stageObs(reg *telemetry.Registry, rank int) engine.WorkerObs {
	name := fmt.Sprintf("rank%d", rank)
	return engine.WorkerObs{Meter: reg.RegisterStage(name), Flight: reg.Flight().Ring(name, 0)}
}
