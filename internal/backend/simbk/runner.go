package simbk

import (
	"github.com/pipeinfer/pipeinfer/internal/backend"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/oracle"
	"github.com/pipeinfer/pipeinfer/internal/serve"
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
type Outcome = backend.Outcome

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
	so, reqs := opts.oneSession()
	return backend.Solo(simulate(so, opts.Strategy, opts.SplitWeights, reqs))
}

// oneSession is the one-session serve a single-request run is: the run's
// own prompt as the only request, one slot, width one, no prefix cache,
// default KV provisioning, and — when the strategy drafts — a namespace
// of the canonical sequence plus MaxSeqs partitions.
func (o Options) oneSession() (ServeOptions, []serve.Request) {
	if o.PromptLen <= 0 {
		o.PromptLen = 128
	}
	so := ServeOptions{
		Cluster: o.Cluster, Pair: o.Pair, CFG: o.CFG,
		Sessions: 1, PromptLen: o.PromptLen, Seed: o.Seed,
		Speculate:          o.Strategy == engine.StrategyPipeInfer,
		MaxSessions:        1,
		AcceptanceOverride: o.AcceptanceOverride,
		Trace:              o.Trace,
	}
	if o.Strategy != engine.StrategyIterative {
		so.SeqsPerSession = o.CFG.Defaults().MaxSeqs + 1
	}
	so.defaults()
	return so, []serve.Request{{Prompt: Prompt(simVocab, o.PromptLen, o.Seed)}}
}

// Reference returns the target stream the generation must equal under
// greedy sampling (the §V-B zero-deviation check).
func Reference(opts Options, maxNew int) []token.Token {
	if opts.PromptLen <= 0 {
		opts.PromptLen = 128
	}
	return newOracle(opts.Pair, opts.AcceptanceOverride, opts.Seed).TargetStream(Prompt(simVocab, opts.PromptLen, opts.Seed), maxNew)
}

// newOracle is the oracle of a pair at its acceptance rate, or at
// override when that is set.
func newOracle(pair cost.Pair, override float64, seed uint64) *oracle.Oracle {
	alpha := pair.Acceptance
	if override > 0 {
		alpha = override
	}
	return oracle.New(simVocab, alpha, seed)
}
