// Package backend is the one rank routine, ServeRank, and the one
// pipeline stage, Stage, that both backends serve through. The
// real-compute backend (realbk) and the simulated one (simbk) differ only
// in where a rank's tokens come from, the Source each hands the routine
// (model layers and a model draft, or roofline charges and the oracle),
// and in the clock their ranks run on: realbk's spawn runs them as
// goroutines over chancomm on the wall clock, Simulate as simnet processes
// over simcomm in virtual time, and a rank that is a process of its own
// (tcpcomm) calls ServeRank directly. Everything else reaches the routine
// as data, a Plan; it never asks which backend or transport it serves.
package backend

import (
	"fmt"
	"slices"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/simcomm"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/simnet"
	"github.com/pipeinfer/pipeinfer/internal/token"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// Plan is the rank-independent layout of one serve.
type Plan struct {
	Nodes    int
	Strategy engine.Strategy
	Topo     engine.Topology
	CFG      engine.Config
	// Split is the number of target layers each stage holds, in
	// Topo.Stages order.
	Split []int
	// Serve is the scheduler's configuration; its KV sizes every stage's
	// cache, and its Obs, when non-nil, is every rank's registry.
	Serve    serve.Config
	Requests []serve.Request
	// WrapEndpoint, when non-nil, wraps each rank's endpoint before the
	// engine sees it: the fault-injection hook.
	WrapEndpoint func(rank int, ep comm.Endpoint) comm.Endpoint
	// Rings, when opened (OpenRings), are the timeline's flight rings;
	// without them each rank takes its ring from the registry.
	Rings Rings
}

// Rings are a timeline's flight rings: the head's, and each stage's by rank.
type Rings struct {
	Head  *trace.Ring
	Stage map[int]*trace.Ring
}

// OpenRings opens the rings of topo's ranks on set (none on a nil set):
// the head's first, then the stages' in topology order, so that events at
// the same instant read head first — a launch, then the inline stage's
// evaluation of it.
func OpenRings(set *trace.Set, topo engine.Topology) Rings {
	r := Rings{Head: set.Ring("head", 0), Stage: make(map[int]*trace.Ring, len(topo.Stages))}
	for _, rank := range topo.Stages {
		r.Stage[rank] = set.Ring(fmt.Sprintf("rank%d", rank), 0)
	}
	return r
}

// Slice is what one stage holds: target layers [Lo, Hi), the embedding
// when First and the output head when Last, and a KV cache of Cells cells
// (Serve.KV's capacity in whole pages).
type Slice struct {
	Lo, Hi      int
	First, Last bool
	Cells       int
}

// stage builds stage si of p on ep's rank: its cache, sized by the
// serve's KV, and the layers src builds over the slice it holds.
func (p *Plan) stage(ep comm.Endpoint, src Source, si int) (*Stage, error) {
	lo := 0
	for _, n := range p.Split[:si] {
		lo += n
	}
	cache := kvpage.New(p.Serve.KV)
	l, err := src.Stage(ep, Slice{Lo: lo, Hi: lo + p.Split[si], First: si == 0, Last: si == len(p.Split)-1, Cells: cache.Size()})
	if err != nil {
		return nil, err
	}
	return NewStage(cache, l), nil
}

// Source is where a backend's ranks get their compute and their tokens.
type Source interface {
	// Stage builds the layers of a stage over the slice it holds, on ep's
	// rank: a stage rank, or the head holding stage 0.
	Stage(ep comm.Endpoint, s Slice) (Layers, error)
	// Head builds the head's backend; drafts says whether the strategy
	// drafts, inline whether Stage has built the head's stage 0.
	Head(ep comm.Endpoint, drafts, inline bool) (Head, error)
}

// Head is a head backend. Attach hands it the head driving it before the
// serve starts; Settle waits for whatever it runs on goroutines of its
// own, so that none outlives the rank.
type Head interface {
	engine.HeadBackend
	Attach(h *engine.Head)
	Settle()
}

// ServeOutcome is the result of a serve: one Result per request, in
// request order; the head's aggregate statistics; resident bytes per rank
// (a rank that serves on its own fills only its own slot).
type ServeOutcome struct {
	Results    []serve.Result
	Stats      engine.Stats
	PerNodeMem []int64
}

// Outcome is the result of a single-request run.
type Outcome struct {
	Tokens     []token.Token
	Stats      engine.Stats
	PerNodeMem []int64
}

// Solo is a rank's share of a single-request run: the head's tokens and
// statistics (serve.Solo), every rank's resident bytes.
func Solo(out ServeOutcome, err error) (Outcome, error) {
	if err != nil {
		return Outcome{}, err
	}
	o := Outcome{PerNodeMem: out.PerNodeMem}
	if out.Results != nil {
		o.Tokens, o.Stats, err = serve.Solo(out.Results, out.Stats)
	}
	return o, err
}

// Defaults fills a serve's session layout (serve.Config.Normalize) and
// its run bound: a run in flight per slot, plus headroom for speculation.
func Defaults(cfg *engine.Config, maxSessions, seqsPerSession *int, speculate bool, requests int) {
	sc := serve.Config{MaxSessions: *maxSessions, SeqsPerSession: *seqsPerSession, Speculate: speculate}.Normalize(requests)
	*maxSessions, *seqsPerSession = sc.MaxSessions, sc.SeqsPerSession
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = max(12, sc.MaxSessions+2)
	}
}

// ServeRank runs one rank of p over ep on the compute src builds: a stage
// rank evaluates until the head shuts the pipeline down, the head settles
// every request (serve.Drive). Each returns its resident bytes, the head
// also the results and its statistics, and every stage must end the serve
// with an empty cache.
func ServeRank(ep comm.Endpoint, p *Plan, src Source) (ServeOutcome, error) {
	if ep.Size() != p.Nodes {
		return ServeOutcome{}, fmt.Errorf("endpoint cluster size %d != %d nodes", ep.Size(), p.Nodes)
	}
	rank := ep.Rank()
	if p.WrapEndpoint != nil {
		ep = p.WrapEndpoint(rank, ep)
	}
	// The counting wrapper would hide Reconnects from the probe below.
	raw := ep
	if p.Serve.Obs != nil {
		ep = comm.Counted(ep, p.Serve.Obs.RegisterLink(fmt.Sprintf("rank%d", rank)))
	}
	out := ServeOutcome{PerNodeMem: make([]int64, p.Nodes)}

	if rank != p.Topo.Head {
		si := slices.Index(p.Topo.Stages, rank)
		if si < 0 {
			return ServeOutcome{}, fmt.Errorf("rank %d has no role", rank)
		}
		w, err := p.stage(ep, src, si)
		if err != nil {
			return ServeOutcome{}, err
		}
		if err := engine.WorkerLoop(ep, p.Topo, w, p.stageObs(rank)); err != nil {
			return ServeOutcome{}, fmt.Errorf("stage %d: %w", si, err)
		}
		if err := w.drained(); err != nil {
			return ServeOutcome{}, fmt.Errorf("stage %d: %w", si, err)
		}
		out.PerNodeMem[rank] = w.MemoryBytes()
		return out, nil
	}

	var local *Stage
	var inline engine.Worker // an untyped nil when the head holds no stage
	if p.Topo.HeadIsStage() {
		w, err := p.stage(ep, src, 0)
		if err != nil {
			return ServeOutcome{}, err
		}
		local, inline = w, w
	}
	// Only the speculative strategies host a draft model (§V-B: "iterative
	// inference maintained lower memory requirements due to the lack of a
	// speculative model").
	drafts := p.Strategy != engine.StrategyIterative
	bk, err := src.Head(ep, drafts, local != nil)
	if err != nil {
		return ServeOutcome{}, err
	}
	defer bk.Settle()
	h, err := engine.NewHead(ep, p.Topo, p.CFG, bk, inline)
	if err != nil {
		return ServeOutcome{}, err
	}
	bk.Attach(h)
	h.Flight = p.Rings.Head // serve.New registers it with the registry
	if local != nil {
		// Observed like any stage, its meter's window opening with the
		// scheduler's.
		h.LocalObs = p.stageObs(rank)
		h.LocalObs.Meter.Open(ep.Now())
	}
	results, err := serve.Drive(h, p.Strategy, p.Serve, p.Requests)
	if err != nil {
		// The stages are parked in their worker loops and only the head
		// can release them; left there, a simulation's kernel reports
		// their deadlock in place of this error.
		h.Shutdown()
		return ServeOutcome{}, err
	}
	if local != nil {
		if err := local.drained(); err != nil {
			return ServeOutcome{}, fmt.Errorf("head stage: %w", err)
		}
		out.PerNodeMem[rank] += local.MemoryBytes()
	}
	if drafts {
		out.PerNodeMem[rank] += bk.MemoryBytes()
	}
	if rc, ok := raw.(interface{ Reconnects() int }); ok {
		h.Stats.Reconnects.Store(int64(rc.Reconnects()))
	}
	out.Results, out.Stats = results, h.Stats.Snapshot()
	return out, nil
}

// stageObs registers rank's stage: its meter with the registry, and its
// one flight ring — the timeline's, attached to the registry's set, or
// else one from the registry (all nil, and so inert, with neither).
func (p *Plan) stageObs(rank int) engine.WorkerObs {
	name, reg := fmt.Sprintf("rank%d", rank), p.Serve.Obs
	ring := p.Rings.Stage[rank]
	if ring == nil {
		ring = reg.Flight().Ring(name, 0)
	} else {
		reg.Flight().Attach(name, ring)
	}
	return engine.WorkerObs{Meter: reg.RegisterStage(name), Flight: ring}
}

// Simulate runs every rank of p in virtual time: one simnet process per
// stage rank that is not the head, spawned in topology order, then the
// head's, connected by simcomm over links of the given spec.
func Simulate(p *Plan, link cost.LinkSpec, src func(rank int) Source) (ServeOutcome, error) {
	k := simnet.NewKernel()
	cl := simcomm.New(k, p.Nodes, func(int) *simnet.Link { return link.NewLink() })
	outs, errs := make([]ServeOutcome, p.Nodes), make([]error, p.Nodes)
	proc := func(rank int) func(*simnet.Proc) {
		return func(pr *simnet.Proc) {
			outs[rank], errs[rank] = ServeRank(cl.Bind(rank, pr), p, src(rank))
		}
	}
	for si, rank := range p.Topo.Stages {
		if rank != p.Topo.Head {
			k.Spawn(fmt.Sprintf("stage%d", si), proc(rank))
		}
	}
	k.Spawn("head", proc(p.Topo.Head))
	if err := k.Run(); err != nil {
		return ServeOutcome{}, fmt.Errorf("simulation: %w", err)
	}
	return Gather(p, outs, errs)
}

// Gather is a spawn's outcome from its ranks': the first error in rank
// order, or the head's outcome with every rank's resident bytes.
func Gather(p *Plan, outs []ServeOutcome, errs []error) (ServeOutcome, error) {
	for _, err := range errs {
		if err != nil {
			return ServeOutcome{}, err
		}
	}
	out := outs[p.Topo.Head]
	out.PerNodeMem = make([]int64, p.Nodes)
	for _, o := range outs {
		for i, m := range o.PerNodeMem {
			out.PerNodeMem[i] += m
		}
	}
	return out, nil
}
