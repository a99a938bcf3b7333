package realbk

import (
	"fmt"
	"sync"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/telemetry"
	"github.com/pipeinfer/pipeinfer/internal/token"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// Options configures one real-compute generation.
type Options struct {
	Nodes    int
	Strategy engine.Strategy
	CFG      engine.Config
	// ModelCfg is the target architecture; zero value means TinyConfig.
	ModelCfg model.Config
	// Seed determines target weights (and everything downstream). Every
	// rank derives the layers it evaluates from it — the same bits the
	// whole-model build would give them — which is how the distributed
	// TCP deployment replaces weight files.
	Seed uint64
	// DraftNoise perturbs the target into the draft model; smaller values
	// mean better alignment (higher acceptance).
	DraftNoise float32
	Prompt     []token.Token
	// OnWeights, when non-nil, hears each rank's target weights become
	// resident: layers [lo, hi) derived in took. In-process runs call it
	// from every rank's goroutine.
	OnWeights func(rank, lo, hi int, took time.Duration)
}

// Outcome is the result of a real generation.
type Outcome struct {
	Tokens []token.Token
	Stats  engine.Stats
	// PerNodeMem holds resident bytes per rank; in distributed runs each
	// rank fills only its own slot.
	PerNodeMem []int64
}

func (o *Options) defaults() {
	if o.ModelCfg.Dim == 0 {
		o.ModelCfg = model.TinyConfig()
	}
	if o.Nodes <= 0 {
		o.Nodes = 1
	}
	if o.DraftNoise == 0 {
		o.DraftNoise = 0.05
	}
}

// plan is the rank-independent execution layout every rank derives
// deterministically from ServeOptions (buildServePlan).
type plan struct {
	cfg    engine.Config
	topo   engine.Topology
	lo, hi []int
	// kv sizes every stage's paged KV cache; all ranks derive the same
	// config so their metadata stores evolve in lock-step.
	kv kvpage.Config

	// What the weights derive from, and who hears that they are ready.
	mcfg      model.Config
	seed      uint64
	noise     float32
	obs       *telemetry.Registry
	onWeights func(rank, lo, hi int, took time.Duration)
}

func (p *plan) stageIdx(rank int) int {
	for i, s := range p.topo.Stages {
		if s == rank {
			return i
		}
	}
	return -1
}

func (p *plan) newWorker(part *model.Model, si int) *Worker {
	return NewWorker(part, p.lo[si], p.hi[si], si == 0, si == len(p.topo.Stages)-1, p.kv)
}

// weights is how the ranks of one process share what they derived: every
// rank publishes the slice of the target it built, and a drafting head
// waits for all of them and perturbs the resident weights rather than
// derive the target a second time. A rank of a multi-process deployment
// shares with nobody — its weights hold its own slice — and what it does
// not hold, its draft derives from the seed alongside the noise.
type weights struct {
	pending sync.WaitGroup // ranks yet to publish
	mu      sync.Mutex
	parts   []*model.Model
}

func newWeights(ranks int) *weights {
	w := &weights{}
	w.pending.Add(ranks)
	return w
}

func (w *weights) publish(part *model.Model) {
	w.mu.Lock()
	w.parts = append(w.parts, part)
	w.mu.Unlock()
	w.pending.Done()
}

// target waits for every rank's slice and returns them as one model.
func (w *weights) target() *model.Model {
	w.pending.Wait()
	return model.Join(w.parts...)
}

// build derives the slice of the target this rank evaluates — a stage's
// layers, or on a dedicated head nothing but the model's name — and
// publishes it to the ranks it shares weights with.
func (p *plan) build(rank int, shared *weights) (*model.Model, error) {
	lo, hi, first, last := 0, 0, false, false
	if si := p.stageIdx(rank); si >= 0 {
		lo, hi, first, last = p.lo[si], p.hi[si], si == 0, si == len(p.topo.Stages)-1
	}
	start := time.Now()
	part, err := model.NewStage(p.mcfg, p.seed, lo, hi, first, last)
	shared.publish(part)
	if err != nil {
		return nil, err
	}
	took := time.Since(start)
	p.obs.SetModelBuild(fmt.Sprintf("rank%d", rank), took)
	if p.onWeights != nil {
		p.onWeights(rank, lo, hi, took)
	}
	return part, nil
}

// newHead assembles the head rank around part, the slice of the target
// it holds: the inline stage worker where the head is stage 0, and, when
// the strategy drafts, a backend whose draft model is derived only once
// the first run — the first prefill — is on the wire, overlapping its
// transit instead of delaying it, while the head decodes without
// speculation. The flight ring marks both ends of the derivation. The
// caller owes the backend a Settle on every path out.
func (p *plan) newHead(ep comm.Endpoint, part *model.Model, shared *weights, drafts bool) (*engine.Head, *Head, *Worker, error) {
	var h *engine.Head
	bk := NewHead(nil, p.mcfg.VocabSize)
	if drafts {
		bk = NewLazyHead(func() *model.Runner {
			target := shared.target()
			start := time.Now()
			d := model.NewDraft(target, p.noise, p.seed^0xd4af)
			p.obs.SetModelBuild("draft", time.Since(start))
			r := model.NewRunner(d, p.kv.Cells)
			h.Flight.Record(ep.Now(), trace.FlightBuild, 0, trace.BuildReady)
			return r
		}, p.mcfg.VocabSize)
	}
	var local engine.Worker
	var localWorker *Worker
	if p.topo.HeadIsStage() {
		localWorker = p.newWorker(part, 0)
		local = localWorker
	}
	h, err := engine.NewHead(ep, p.topo, p.cfg, bk, local)
	if err != nil {
		return nil, nil, nil, err
	}
	if drafts {
		bk.YieldTo(h.YieldDraft)
		h.AfterFirstLaunch = func() {
			h.Flight.Record(ep.Now(), trace.FlightBuild, 0, trace.BuildBegin)
			bk.StartDraft()
		}
	}
	return h, bk, localWorker, nil
}

// oneSession is the one-session serve a single-request run is: the run's
// prompt as the only request, one slot, width one, no prefix cache, and —
// when the strategy drafts — a namespace of the canonical sequence plus
// MaxSeqs partitions. The strategy picks the topology and the schedule
// (serve.Drive).
func (o Options) oneSession() ServeOptions {
	o.defaults()
	so := ServeOptions{
		Nodes: o.Nodes, CFG: o.CFG, ModelCfg: o.ModelCfg, Seed: o.Seed,
		Speculate:   o.Strategy == engine.StrategyPipeInfer,
		DraftNoise:  o.DraftNoise,
		MaxSessions: 1,
		Requests:    []serve.Request{{Prompt: o.Prompt}},
		OnWeights:   o.OnWeights,
	}
	if o.Strategy != engine.StrategyIterative {
		so.SeqsPerSession = o.CFG.Defaults().MaxSeqs + 1
	}
	return so
}

// outcome is a rank's share of a single-request run: the head's tokens and
// statistics (serve.Solo), every rank's resident bytes.
func outcome(out ServeOutcome, err error) (Outcome, error) {
	if err != nil {
		return Outcome{}, err
	}
	o := Outcome{PerNodeMem: out.PerNodeMem}
	if out.Results != nil {
		o.Tokens, o.Stats, err = serve.Solo(out.Results, out.Stats)
	}
	return o, err
}

// RunRank executes one pipeline rank over the given endpoint. All ranks
// must be constructed with identical Options. Rank 0 returns the full
// outcome (generated tokens, stats); worker ranks return only their local
// memory accounting. This is the entry point cmd/pipeinfer-node uses to
// run PipeInfer across separate OS processes connected by tcpcomm.
func RunRank(ep comm.Endpoint, opts Options) (Outcome, error) {
	return outcome(serveRank(ep, opts.oneSession(), newWeights(1), opts.Strategy))
}

// Run spawns one goroutine per pipeline rank connected by chancomm and
// executes the selected strategy end to end, merging per-rank memory
// accounting into one outcome — the one-session serve of Serve's spawn.
func Run(opts Options) (Outcome, error) {
	return outcome(spawn(opts.oneSession(), opts.Strategy))
}

// ReferenceGreedy produces the single-runner greedy output every strategy
// must match exactly.
func ReferenceGreedy(opts Options, maxNew int) ([]token.Token, error) {
	opts.defaults()
	target, err := model.New(opts.ModelCfg, opts.Seed)
	if err != nil {
		return nil, err
	}
	r := model.NewRunner(target, len(opts.Prompt)+maxNew+16)
	return r.Greedy(opts.Prompt, maxNew)
}
