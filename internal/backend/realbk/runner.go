package realbk

import (
	"fmt"
	"sync"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/core"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/model"
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
// deterministically from Options.
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

// split fills in the layer ranges and the weight source, the tail both
// plan builders share. The model configuration is checked here, where
// every rank fails alike, so that no rank can fail building its weights
// while the others already wait on it.
func (p *plan) split(mcfg model.Config, seed uint64, noise float32) error {
	if err := mcfg.Validate(); err != nil {
		return err
	}
	if mcfg.NLayers < len(p.topo.Stages) {
		return fmt.Errorf("realbk: %d layers cannot split over %d stages", mcfg.NLayers, len(p.topo.Stages))
	}
	p.mcfg, p.seed, p.noise = mcfg, seed, noise
	p.lo, p.hi = make([]int, len(p.topo.Stages)), make([]int, len(p.topo.Stages))
	acc := 0
	for i, s := range cost.UniformSplit(mcfg.NLayers, len(p.topo.Stages)) {
		p.lo[i], p.hi[i] = acc, acc+s
		acc += s
	}
	return nil
}

func buildPlan(opts *Options) (*plan, error) {
	opts.defaults()
	if len(opts.Prompt) == 0 {
		return nil, fmt.Errorf("realbk: empty prompt")
	}
	topo, err := engine.TopologyFor(opts.Strategy, opts.Nodes)
	if err != nil {
		return nil, err
	}
	cfg := opts.CFG.Defaults()
	p := &plan{
		cfg:       cfg,
		topo:      topo,
		kv:        kvpage.Config{Cells: len(opts.Prompt) + cfg.MaxNew + 4*cfg.MaxSeqs*cfg.MicroBatch + 128},
		onWeights: opts.OnWeights,
	}
	if err := p.split(opts.ModelCfg, opts.Seed, opts.DraftNoise); err != nil {
		return nil, err
	}
	return p, nil
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
// transit instead of delaying it. The caller owes the backend a Settle
// on every path out.
func (p *plan) newHead(ep comm.Endpoint, part *model.Model, shared *weights, drafts bool) (*engine.Head, *Head, *Worker, error) {
	bk := NewHead(nil, p.mcfg.VocabSize)
	if drafts {
		bk = NewLazyHead(func() *model.Runner {
			target := shared.target()
			start := time.Now()
			d := model.NewDraft(target, p.noise, p.seed^0xd4af)
			p.obs.SetModelBuild("draft", time.Since(start))
			return model.NewRunner(d, p.kv.Cells)
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
		h.AfterFirstLaunch = func() {
			h.Flight.Record(ep.Now(), trace.FlightBuild, 0, 0)
			bk.StartDraft()
		}
	}
	return h, bk, localWorker, nil
}

// RunRank executes one pipeline rank over the given endpoint. All ranks
// must be constructed with identical Options. Rank 0 returns the full
// outcome (generated tokens, stats); worker ranks return only their local
// memory accounting. This is the entry point cmd/pipeinfer-node uses to
// run PipeInfer across separate OS processes connected by tcpcomm.
func RunRank(ep comm.Endpoint, opts Options) (Outcome, error) {
	return runRank(ep, opts, newWeights(1))
}

// runRank is RunRank over the weights the ranks of one process share (a
// rank that is a process of its own shares with itself alone).
func runRank(ep comm.Endpoint, opts Options, shared *weights) (Outcome, error) {
	p, err := buildPlan(&opts)
	if err != nil {
		return Outcome{}, err
	}
	if ep.Size() != opts.Nodes {
		return Outcome{}, fmt.Errorf("realbk: endpoint cluster size %d != %d nodes", ep.Size(), opts.Nodes)
	}
	rank := ep.Rank()
	part, err := p.build(rank, shared)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{PerNodeMem: make([]int64, opts.Nodes)}

	if rank != p.topo.Head {
		si := p.stageIdx(rank)
		if si < 0 {
			return Outcome{}, fmt.Errorf("realbk: rank %d has no role", rank)
		}
		w := p.newWorker(part, si)
		if err := engine.WorkerLoop(ep, p.topo, w, engine.WorkerObs{}); err != nil {
			return Outcome{}, fmt.Errorf("realbk: stage %d: %w", si, err)
		}
		if err := w.Cache().CheckInvariants(); err != nil {
			return Outcome{}, fmt.Errorf("realbk: stage %d KV corruption: %w", si, err)
		}
		out.PerNodeMem[rank] = w.MemoryBytes()
		return out, nil
	}

	// Head rank.
	h, bk, localWorker, err := p.newHead(ep, part, shared, opts.Strategy != engine.StrategyIterative)
	if err != nil {
		return Outcome{}, err
	}
	defer bk.Settle()
	var toks []token.Token
	switch opts.Strategy {
	case engine.StrategyIterative:
		toks, err = engine.RunIterative(h, opts.Prompt)
	case engine.StrategySpeculative:
		toks, err = engine.RunSpeculative(h, opts.Prompt)
	case engine.StrategyPipeInfer:
		toks, err = core.Run(h, opts.Prompt)
	default:
		err = fmt.Errorf("realbk: unknown strategy %v", opts.Strategy)
	}
	if err != nil {
		// The stages are parked in their worker loops and only the head
		// can release them.
		h.Shutdown()
		return Outcome{}, err
	}
	if localWorker != nil {
		if err := localWorker.Cache().CheckInvariants(); err != nil {
			return Outcome{}, fmt.Errorf("realbk: head stage KV corruption: %w", err)
		}
		out.PerNodeMem[rank] += localWorker.MemoryBytes()
	}
	out.PerNodeMem[rank] += bk.MemoryBytes()
	out.Tokens = toks
	out.Stats = h.Stats.Snapshot()
	return out, nil
}

// Run spawns one goroutine per pipeline rank connected by chancomm and
// executes the selected strategy end to end, merging per-rank memory
// accounting into one outcome. Each rank derives the layers it evaluates
// and the ranks share them (weights), so the target is built once
// between them.
func Run(opts Options) (Outcome, error) {
	opts.defaults()
	cluster := chancomm.New(opts.Nodes)
	shared := newWeights(opts.Nodes)

	outcomes := make([]Outcome, opts.Nodes)
	errs := make([]error, opts.Nodes)
	var wg sync.WaitGroup
	for rank := 1; rank < opts.Nodes; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[rank], errs[rank] = runRank(cluster.Endpoint(rank), opts, shared)
		}()
	}
	outcomes[0], errs[0] = runRank(cluster.Endpoint(0), opts, shared)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Outcome{}, err
		}
	}
	out := outcomes[0]
	for rank := 1; rank < opts.Nodes; rank++ {
		for i, m := range outcomes[rank].PerNodeMem {
			out.PerNodeMem[i] += m
		}
	}
	return out, nil
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
