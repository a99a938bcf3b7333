package simbk

import (
	"fmt"

	"github.com/pipeinfer/pipeinfer/internal/comm/simcomm"
	"github.com/pipeinfer/pipeinfer/internal/core"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/oracle"
	"github.com/pipeinfer/pipeinfer/internal/simnet"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// Options configures one simulated generation experiment.
type Options struct {
	Cluster  cost.ClusterSpec
	Pair     cost.Pair
	Strategy engine.Strategy
	CFG      engine.Config
	// PromptLen is the prompt size in tokens (the paper uses 128).
	PromptLen int
	// Seed drives the oracle and prompt; equal seeds give identical
	// target streams across strategies.
	Seed uint64
	// SplitWeights optionally weights the per-stage layer split (nil =
	// uniform, the llama.cpp default the paper's clusters used).
	SplitWeights []float64
	// AcceptanceOverride, when > 0, replaces Pair.Acceptance (used for
	// prompt-variance experiments).
	AcceptanceOverride float64
	// Trace, when non-nil, receives the pipeline's timeline: one flight
	// ring per rank plus the head's ("head"; a head hosting a stage also
	// has its rank's), each holding its most recent events.
	Trace *trace.Set
}

// Outcome is the result of a simulated generation.
type Outcome struct {
	Tokens     []token.Token
	Stats      engine.Stats
	PerNodeMem []int64
}

// simVocab is the oracle vocabulary: it only influences token identity,
// not wire sizes (those use the model spec); a compact vocab keeps
// hashing fast.
const simVocab = 4096

// Prompt builds the deterministic synthetic prompt for a seed.
func Prompt(vocab, n int, seed uint64) []token.Token {
	rng := tensor.NewRNG(seed ^ 0x9e37)
	out := make([]token.Token, n)
	out[0] = token.BOS
	for i := 1; i < n; i++ {
		out[i] = token.Token(rng.Intn(vocab-token.NumSpecial)) + token.NumSpecial
	}
	return out
}

// Run executes one generation on the simulated cluster and returns the
// outcome, including per-node memory accounting for Fig 7a.
func Run(opts Options) (Outcome, error) {
	n := len(opts.Cluster.Nodes)
	topo, err := engine.TopologyFor(opts.Strategy, n)
	if err != nil {
		return Outcome{}, err
	}
	cfg := opts.CFG.Defaults()
	if opts.PromptLen <= 0 {
		opts.PromptLen = 128
	}

	alpha := opts.Pair.Acceptance
	if opts.AcceptanceOverride > 0 {
		alpha = opts.AcceptanceOverride
	}
	o := oracle.New(simVocab, alpha, opts.Seed)
	prompt := Prompt(simVocab, opts.PromptLen, opts.Seed)

	splits := cost.UniformSplit(opts.Pair.Target.NLayers, len(topo.Stages))
	if opts.SplitWeights != nil {
		if len(opts.SplitWeights) != len(topo.Stages) {
			return Outcome{}, fmt.Errorf("simbk: %d split weights for %d stages",
				len(opts.SplitWeights), len(topo.Stages))
		}
		splits = cost.SplitLayers(opts.Pair.Target.NLayers, opts.SplitWeights)
	}
	kv := kvpage.Config{Cells: opts.PromptLen + cfg.MaxNew + 4*cfg.MaxSeqs*cfg.MicroBatch + 256}

	k := simnet.NewKernel()
	cl := simcomm.New(k, n, func(int) *simnet.Link { return opts.Cluster.Link.NewLink() })

	var out Outcome
	var runErr error
	workers := make([]*Worker, len(topo.Stages))
	// One ring per recording goroutine, the head's first: events at the
	// same instant read in that order (a launch, then the inline stage's
	// evaluation of it).
	headRing := opts.Trace.Ring("head", 0)
	var inlineRing *trace.Ring

	// Worker processes (every stage rank except an inline head stage).
	for si, rank := range topo.Stages {
		ring := opts.Trace.Ring(fmt.Sprintf("rank%d", rank), 0)
		if rank == topo.Head {
			inlineRing = ring
			continue
		}
		si, rank := si, rank
		k.Spawn(fmt.Sprintf("stage%d", si), func(p *simnet.Proc) {
			ep := cl.Bind(rank, p)
			w := NewWorker(ep, opts.Cluster.Nodes[rank], opts.Pair.Target,
				splits[si], si == len(topo.Stages)-1, kv)
			workers[si] = w
			if err := engine.WorkerLoop(ep, topo, w, engine.WorkerObs{Flight: ring}); err != nil && runErr == nil {
				runErr = fmt.Errorf("simbk: stage %d: %w", si, err)
			}
		})
	}

	// Head process.
	k.Spawn("head", func(p *simnet.Proc) {
		ep := cl.Bind(topo.Head, p)
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
		h.Flight, h.LocalObs.Flight = headRing, inlineRing
		var toks []token.Token
		switch opts.Strategy {
		case engine.StrategyIterative:
			toks, err = engine.RunIterative(h, prompt)
		case engine.StrategySpeculative:
			toks, err = engine.RunSpeculative(h, prompt)
		case engine.StrategyPipeInfer:
			toks, err = core.Run(h, prompt)
		}
		if err != nil {
			// Release the stages, or the kernel reports their deadlock in
			// place of this error.
			h.Shutdown()
			runErr = fmt.Errorf("simbk: head: %w", err)
			return
		}
		out.Tokens = toks
		out.Stats = h.Stats.Snapshot()
		out.PerNodeMem = make([]int64, n)
		if opts.Strategy != engine.StrategyIterative {
			// Only the speculative strategies host a draft model (§V-B:
			// "iterative inference maintained lower memory requirements
			// due to the lack of a speculative model").
			out.PerNodeMem[topo.Head] += bk.MemoryBytes()
		}
		for si, w := range workers {
			if w != nil {
				out.PerNodeMem[topo.Stages[si]] += w.MemoryBytes()
			}
		}
	})

	if err := k.Run(); err != nil {
		return Outcome{}, fmt.Errorf("simbk: simulation: %w", err)
	}
	if runErr != nil {
		return Outcome{}, runErr
	}
	// Every simulation is self-checking: the KV metadata on every stage
	// must satisfy the structural invariants, and the canonical sequence
	// must hold exactly the evaluated accepted tokens (never more than the
	// accepted sequence, never fewer than the prompt).
	for si, w := range workers {
		if w == nil {
			continue
		}
		if err := w.Cache().CheckInvariants(); err != nil {
			return Outcome{}, fmt.Errorf("simbk: stage %d KV corruption: %w", si, err)
		}
		canon := w.Cache().SeqLen(0)
		if canon < opts.PromptLen || canon > opts.PromptLen+out.Stats.Generated {
			return Outcome{}, fmt.Errorf("simbk: stage %d canonical sequence has %d cells (prompt %d, generated %d)",
				si, canon, opts.PromptLen, out.Stats.Generated)
		}
	}
	return out, nil
}

// Reference returns the target stream the generation must equal under
// greedy sampling (the §V-B zero-deviation check).
func Reference(opts Options, maxNew int) []token.Token {
	alpha := opts.Pair.Acceptance
	if opts.AcceptanceOverride > 0 {
		alpha = opts.AcceptanceOverride
	}
	o := oracle.New(simVocab, alpha, opts.Seed)
	if opts.PromptLen <= 0 {
		opts.PromptLen = 128
	}
	prompt := Prompt(simVocab, opts.PromptLen, opts.Seed)
	return o.TargetStream(prompt, maxNew)
}
