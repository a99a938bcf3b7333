package realbk

import (
	"fmt"
	"sync"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/backend"
	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/token"
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
type Outcome = backend.Outcome

// plan is the rank-independent layout every rank derives
// deterministically from ServeOptions (buildServePlan): the pipeline's,
// and what the weights derive from and who hears that they are ready.
type plan struct {
	backend.Plan
	mcfg      model.Config
	seed      uint64
	noise     float32
	onWeights func(rank, lo, hi int, took time.Duration)
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

// source is where the ranks of one process get their compute: weights
// derived from the plan, shared between them.
type source struct {
	*plan
	shared *weights
}

// build derives sl, the slice of the target a rank evaluates — a stage's
// layers, or on a dedicated head nothing but the model's name — and
// publishes it to the ranks it shares weights with.
func (s source) build(rank int, sl backend.Slice) (*model.Model, error) {
	start := time.Now()
	part, err := model.NewStage(s.mcfg, s.seed, sl.Lo, sl.Hi, sl.First, sl.Last)
	s.shared.publish(part)
	if err != nil {
		return nil, err
	}
	took := time.Since(start)
	s.Serve.Obs.SetModelBuild(fmt.Sprintf("rank%d", rank), took)
	if s.onWeights != nil {
		s.onWeights(rank, sl.Lo, sl.Hi, took)
	}
	return part, nil
}

// Stage derives the stage's layers and builds its worker over them.
func (s source) Stage(ep comm.Endpoint, sl backend.Slice) (backend.Layers, error) {
	part, err := s.build(ep.Rank(), sl)
	if err != nil {
		return nil, err
	}
	return NewWorker(part, sl.Lo, sl.Hi, sl.First, sl.Last, sl.Cells), nil
}

// Head builds the head's backend; a dedicated head derives its (empty)
// slice of the target here, since no Stage call does. When the strategy
// drafts, the draft model is derived only once the first run — the first
// prefill — is on the wire (Head.Attach), overlapping its transit instead
// of delaying it, while the head decodes without speculation.
func (s source) Head(ep comm.Endpoint, drafts, inline bool) (backend.Head, error) {
	if !inline {
		if _, err := s.build(ep.Rank(), backend.Slice{}); err != nil {
			return nil, err
		}
	}
	if !drafts {
		return NewHead(nil, s.mcfg.VocabSize), nil
	}
	return NewLazyHead(func() *model.Runner {
		target := s.shared.target()
		start := time.Now()
		d := model.NewDraft(target, s.noise, s.seed^0xd4af)
		s.Serve.Obs.SetModelBuild("draft", time.Since(start))
		return model.NewRunner(d, s.Serve.KV.Cells)
	}, s.mcfg.VocabSize), nil
}

// oneSession is the one-session serve a single-request run is: the run's
// prompt as the only request, one slot, width one, no prefix cache, and —
// when the strategy drafts — a namespace of the canonical sequence plus
// MaxSeqs partitions. The strategy picks the topology and the schedule
// (serve.Drive).
func (o Options) oneSession() ServeOptions {
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

// RunRank executes one pipeline rank over the given endpoint. All ranks
// must be constructed with identical Options. Rank 0 returns the full
// outcome (generated tokens, stats); worker ranks return only their local
// memory accounting. This is the entry point cmd/pipeinfer-node uses to
// run PipeInfer across separate OS processes connected by tcpcomm.
func RunRank(ep comm.Endpoint, opts Options) (Outcome, error) {
	return backend.Solo(serveRank(ep, opts.oneSession(), newWeights(1), opts.Strategy))
}

// Run spawns one goroutine per pipeline rank connected by chancomm and
// executes the selected strategy end to end, merging per-rank memory
// accounting into one outcome — the one-session serve of Serve's spawn.
func Run(opts Options) (Outcome, error) {
	return backend.Solo(spawn(opts.oneSession(), opts.Strategy))
}

// ReferenceGreedy produces the single-runner greedy output every strategy
// must match exactly.
func ReferenceGreedy(opts Options, maxNew int) ([]token.Token, error) {
	if opts.ModelCfg.Dim == 0 {
		opts.ModelCfg = model.TinyConfig()
	}
	target, err := model.New(opts.ModelCfg, opts.Seed)
	if err != nil {
		return nil, err
	}
	r := model.NewRunner(target, len(opts.Prompt)+maxNew+16)
	return r.Greedy(opts.Prompt, maxNew)
}
