package simbk

import (
	"fmt"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/backend"
	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/oracle"
	"github.com/pipeinfer/pipeinfer/internal/serve"
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
	// MaxSessions, SeqsPerSession, MaxBatch, PrefillChunk, AutoBatch,
	// PrefixCache, MaxQueue, RunTimeout and OnRecover are serve.Config's
	// fields of the same names, as in realbk.ServeOptions (slots default
	// to min(4, Sessions)); the run watchdog runs in virtual time.
	MaxSessions    int
	SeqsPerSession int
	MaxBatch       int
	PrefillChunk   int
	AutoBatch      bool
	PrefixCache    bool
	MaxQueue       int
	RunTimeout     time.Duration
	OnRecover      func(req int)
	// KVCells overrides the per-stage KV capacity in cells (default:
	// every session slot fully provisioned); undersizing engages the
	// memory-pressure protocol. KVPageSize sets the page granularity.
	KVCells    int
	KVPageSize int
	// SharedPromptLen, when > 0, prepends a common system prompt of that
	// many tokens to every request's otherwise-distinct prompt — the
	// multi-tenant shape prefix reuse targets. ServeReference derives its
	// per-request target stream from the same combined prompt, so parity
	// checks hold with or without the prefix cache.
	SharedPromptLen int
	// AcceptanceOverride, when > 0, replaces Pair.Acceptance.
	AcceptanceOverride float64
	// SLOFor, when non-nil, assigns request i its service class: a
	// priority plus TTFT and completion deadlines measured from the
	// simulation's virtual t=0 (0 disables a deadline). Requests whose
	// TTFT deadline becomes provably unmeetable while queued are shed
	// (serve.ErrShedDeadline) without consuming pipeline work; the
	// remaining sessions still reproduce ServeReference exactly.
	SLOFor func(i int) (priority int, ttftDeadline, deadline time.Duration)
	// WrapEndpoint, when non-nil, wraps each rank's endpoint before the
	// engine sees it — the fault-injection hook (faultcomm over simcomm
	// perturbs the run in exact virtual time).
	WrapEndpoint func(rank int, ep comm.Endpoint) comm.Endpoint
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
type ServeOutcome = backend.ServeOutcome

func (o *ServeOptions) defaults() {
	if o.Sessions <= 0 {
		o.Sessions = 4
	}
	if o.PromptLen <= 0 {
		o.PromptLen = 128
	}
	backend.Defaults(&o.CFG, &o.MaxSessions, &o.SeqsPerSession, o.Speculate, o.Sessions)
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
	return newOracle(opts.Pair, opts.AcceptanceOverride, opts.Seed).TargetStream(servePrompt(&opts, i), maxNew)
}

// Serve runs a multi-session serving simulation and returns per-request
// results plus aggregate stats and memory accounting.
func Serve(opts ServeOptions) (ServeOutcome, error) {
	opts.defaults()
	cfg := opts.CFG.Defaults()
	reqs := make([]serve.Request, opts.Sessions)
	for i := range reqs {
		reqs[i] = serve.Request{Prompt: servePrompt(&opts, i), MaxNew: cfg.MaxNew}
		if opts.SLOFor != nil {
			reqs[i].Priority, reqs[i].TTFTDeadline, reqs[i].Deadline = opts.SLOFor(i)
		}
	}
	strategy := engine.StrategyIterative
	if opts.Speculate {
		strategy = engine.StrategyPipeInfer
	}
	return simulate(opts, strategy, nil, reqs)
}

// simulate settles reqs on one simulated pipeline laid out for strategy —
// a process per stage rank that is not the head, and the head's, which
// runs serve.Drive — with the layer split splitWeights asks for (nil:
// uniform). Every stage must drain to zero whatever the strategy.
func simulate(opts ServeOptions, strategy engine.Strategy, splitWeights []float64, reqs []serve.Request) (ServeOutcome, error) {
	n := len(opts.Cluster.Nodes)
	topo, err := engine.TopologyFor(strategy, n)
	if err != nil {
		return ServeOutcome{}, err
	}
	cfg := opts.CFG.Defaults()

	src := &source{nodes: opts.Cluster.Nodes, pair: opts.Pair, o: newOracle(opts.Pair, opts.AcceptanceOverride, opts.Seed)}

	split := cost.UniformSplit(opts.Pair.Target.NLayers, len(topo.Stages))
	if splitWeights != nil {
		if len(splitWeights) != len(topo.Stages) {
			return ServeOutcome{}, fmt.Errorf("simbk: %d split weights for %d stages",
				len(splitWeights), len(topo.Stages))
		}
		split = cost.SplitLayers(opts.Pair.Target.NLayers, splitWeights)
	}
	cells := opts.MaxSessions*(opts.SharedPromptLen+opts.PromptLen+cfg.MaxNew+4*opts.SeqsPerSession*cfg.MicroBatch) + 256
	if opts.KVCells > 0 {
		cells = opts.KVCells
	}
	p := &backend.Plan{
		Nodes: n, Strategy: strategy, Topo: topo, CFG: cfg, Split: split,
		Serve: serve.Config{
			MaxSessions:    opts.MaxSessions,
			SeqsPerSession: opts.SeqsPerSession,
			Speculate:      opts.Speculate,
			KV:             kvpage.Config{Cells: cells, PageSize: opts.KVPageSize, ShardSeqs: opts.SeqsPerSession},
			MaxBatch:       opts.MaxBatch,
			PrefillChunk:   opts.PrefillChunk,
			AutoBatch:      opts.AutoBatch,
			RunTimeout:     opts.RunTimeout,
			MaxQueue:       opts.MaxQueue,
			OnRecover:      opts.OnRecover,
			PrefixCache:    opts.PrefixCache,
			Obs:            opts.Obs,
		},
		Requests:     reqs,
		WrapEndpoint: opts.WrapEndpoint,
		Rings:        backend.OpenRings(opts.Trace, topo),
	}
	return backend.Simulate(p, opts.Cluster.Link, func(int) backend.Source { return src })
}

// source is where a simulated pipeline's ranks get their compute: the
// cost model of each rank's node and of the model pair, and one oracle,
// which the head drafts from and the last stage samples.
type source struct {
	nodes []cost.NodeSpec
	pair  cost.Pair
	o     *oracle.Oracle
}

// Stage builds a simulated stage over the slice's layers; the last one
// samples the target.
func (s *source) Stage(ep comm.Endpoint, sl backend.Slice) (backend.Layers, error) {
	var target *oracle.Oracle
	if sl.Last {
		target = s.o
	}
	return NewWorker(ep, s.nodes[ep.Rank()], s.pair.Target, sl.Hi-sl.Lo, target, sl.Cells), nil
}

// Head builds the simulated head, whose oracle draft exists from the start.
func (s *source) Head(ep comm.Endpoint, _, _ bool) (backend.Head, error) {
	return NewHead(ep, s.nodes[ep.Rank()], s.pair.Draft, s.o), nil
}
