package realbk

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/backend"
	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/cost"
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

	// MaxSessions, SeqsPerSession, MaxBatch, PrefillChunk, AutoBatch,
	// PrefixCache, RunTimeout and MaxQueue are serve.Config's fields of
	// the same names, which document them: session slots (default
	// min(4, len(Requests))) and each session's namespace width (default
	// 4 when speculating, else 1); the batch width (0 or 1 is width 1),
	// the prefill chunk (0: a prompt's whole remaining range) and the
	// adaptive width controller; cross-session prefix reuse; the run
	// watchdog (0 disables it); the admission-queue bound (0: unbounded).
	// Per-request SLO classes ride on the Requests entries themselves.
	MaxSessions    int
	SeqsPerSession int
	MaxBatch       int
	PrefillChunk   int
	AutoBatch      bool
	PrefixCache    bool
	RunTimeout     time.Duration
	MaxQueue       int

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

	// WrapEndpoint, when non-nil, wraps each rank's endpoint before the
	// engine sees it — the hook fault-injection harnesses (faultcomm) use
	// to perturb a run without the backend knowing.
	WrapEndpoint func(rank int, ep comm.Endpoint) comm.Endpoint

	// Obs, when non-nil, is the live telemetry registry (serve.Config.Obs),
	// which every rank registers its link, stage meter and flight ring
	// with. In-process Serve shares one registry across all rank
	// goroutines; distributed ServeRank deployments give each process its
	// own.
	Obs *telemetry.Registry

	Requests []serve.Request
	// OnWeights, when non-nil, hears each rank's target weights become
	// resident: layers [lo, hi) derived in took. In-process Serve calls
	// it from every rank's goroutine.
	OnWeights func(rank, lo, hi int, took time.Duration)
	// OnToken, OnPreempt, OnReadmit and OnRecover, when non-nil, are
	// serve.Config's hooks: tokens as they are accepted, and requests
	// parked under memory pressure, readmitted, or recovered from a
	// failed run.
	OnToken   func(req int, tok token.Token)
	OnPreempt func(req int)
	OnReadmit func(req int)
	OnRecover func(req int)
}

// ServeOutcome is the result of a serving run.
type ServeOutcome = backend.ServeOutcome

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
	backend.Defaults(&o.CFG, &o.MaxSessions, &o.SeqsPerSession, o.Speculate, len(o.Requests))
}

// strategy is the strategy a serve runs: PipeInfer's topology and
// per-session speculation, or iterative inference.
func (o *ServeOptions) strategy() engine.Strategy {
	if o.Speculate {
		return engine.StrategyPipeInfer
	}
	return engine.StrategyIterative
}

// buildServePlan derives the rank-independent layout every rank computes
// identically from ServeOptions and the strategy's topology.
func buildServePlan(opts *ServeOptions, strategy engine.Strategy) (*plan, error) {
	opts.defaults()
	if len(opts.Requests) == 0 {
		return nil, fmt.Errorf("realbk: no requests to serve")
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
	// The model configuration is checked here, where every rank fails
	// alike, so that no rank can fail building its weights while the
	// others already wait on it.
	mcfg := opts.ModelCfg
	if err := mcfg.Validate(); err != nil {
		return nil, err
	}
	if mcfg.NLayers < len(topo.Stages) {
		return nil, fmt.Errorf("realbk: %d layers cannot split over %d stages", mcfg.NLayers, len(topo.Stages))
	}
	return &plan{
		Plan: backend.Plan{
			Nodes: opts.Nodes, Strategy: strategy, Topo: topo, CFG: cfg,
			Split: cost.UniformSplit(mcfg.NLayers, len(topo.Stages)),
			Serve: serve.Config{
				MaxSessions:    opts.MaxSessions,
				SeqsPerSession: opts.SeqsPerSession,
				Speculate:      opts.Speculate,
				KV:             kvpage.Config{Cells: cells, PageSize: opts.KVPageSize, ShardSeqs: opts.SeqsPerSession},
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
			},
			Requests:     opts.Requests,
			WrapEndpoint: opts.WrapEndpoint,
		},
		mcfg: mcfg, seed: opts.Seed, noise: opts.DraftNoise, onWeights: opts.OnWeights,
	}, nil
}

// ServeRank executes one pipeline rank of a serving run over the given
// endpoint; all ranks must be constructed with identical options. Rank 0
// runs the session scheduler and returns the full outcome, worker ranks
// return only their memory accounting — the same split RunRank uses, so
// the serving layer runs unchanged over chancomm or tcpcomm.
func ServeRank(ep comm.Endpoint, opts ServeOptions) (ServeOutcome, error) {
	return serveRank(ep, opts, newWeights(1), opts.strategy())
}

// serveRank is ServeRank over the weights the ranks of one process share
// (a rank that is a process of its own shares with itself alone), laid out
// for strategy, whose head loop the head runs (serve.Drive).
func serveRank(ep comm.Endpoint, opts ServeOptions, shared *weights, strategy engine.Strategy) (ServeOutcome, error) {
	p, err := buildServePlan(&opts, strategy)
	if err != nil {
		return ServeOutcome{}, err
	}
	return backend.ServeRank(ep, &p.Plan, source{p, shared})
}

// Serve spawns one goroutine per pipeline rank connected by chancomm and
// multiplexes every request through the shared pipeline. No weights are
// built ahead of the spawn: each rank derives the layers it evaluates on
// its own goroutine and the ranks share them read-only (weights), so the
// target is built once between them, in parallel, and a speculating
// head's draft perturbs it in place of a second derivation.
func Serve(opts ServeOptions) (ServeOutcome, error) {
	return spawn(opts, opts.strategy())
}

// spawn is Serve laid out for strategy: the wall-clock spawn, of a serve
// and of a single-request run alike, with the head on the calling
// goroutine and every other rank on one of its own.
func spawn(opts ServeOptions, strategy engine.Strategy) (ServeOutcome, error) {
	p, err := buildServePlan(&opts, strategy)
	if err != nil {
		return ServeOutcome{}, err
	}
	src := source{p, newWeights(opts.Nodes)}
	cluster := chancomm.New(opts.Nodes)
	outs, errs := make([]ServeOutcome, opts.Nodes), make([]error, opts.Nodes)
	var wg sync.WaitGroup
	for rank := 1; rank < opts.Nodes; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[rank], errs[rank] = backend.ServeRank(cluster.Endpoint(rank), &p.Plan, src)
		}()
	}
	outs[0], errs[0] = backend.ServeRank(cluster.Endpoint(0), &p.Plan, src)
	wg.Wait()
	// Everything this call built — the weights, every stage's KV store
	// and scratch, the in-flight wire buffers — has just died, and it was
	// nearly all of the process's live heap. Collect it at this boundary:
	// left to the pacer, a process that serves pipelines back to back
	// builds each one on top of its dead predecessor, and the collector,
	// having last seen a whole pipeline live, lets the heap reach twice
	// (pipeline + whatever the caller retains) before it runs again.
	// One collection per pipeline costs well under a millisecond.
	runtime.GC()
	return backend.Gather(&p.Plan, outs, errs)
}
