// Package pipeinfer is a from-scratch Go reproduction of "PipeInfer:
// Accelerating LLM Inference using Asynchronous Pipelined Speculation"
// (Butler, Yu, Mazaheri, Jannesari — SC 2024).
//
// The library provides three pipeline-parallel inference strategies —
// naive iterative, speculative (SpecInfer-style), and PipeInfer's
// continuous asynchronous speculation — implemented once against
// backend-neutral interfaces and executable on two substrates:
//
//   - a real compute backend (Generate): a pure-Go decoder-only
//     transformer running tiny deterministic models across goroutine
//     pipeline stages, used to validate that all strategies produce
//     bit-identical greedy output;
//
//   - a simulated cluster backend (Simulate): a deterministic
//     discrete-event simulation with calibrated hardware cost models for
//     the paper's testbeds, used to regenerate every figure of the
//     evaluation at 70B-180B scale.
//
// ROADMAP.md's architecture sections record the design, layer by layer,
// with the invariants each holds; cmd/pipeinfer-bench regenerates every
// table and figure of the paper's evaluation.
package pipeinfer

import (
	"github.com/pipeinfer/pipeinfer/internal/backend/realbk"
	"github.com/pipeinfer/pipeinfer/internal/backend/simbk"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/harness"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/token"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// Strategy selects the inference algorithm.
type Strategy = engine.Strategy

// The three strategies compared throughout the paper.
const (
	Iterative   = engine.StrategyIterative
	Speculative = engine.StrategySpeculative
	PipeInfer   = engine.StrategyPipeInfer
)

// Config exposes the engine's tunables (micro-batch size, confidence
// cutoff and its recovery/decay factors, sequence partitions, ablation
// switches). The zero value selects the reference configuration.
type Config = engine.Config

// Stats carries the paper's evaluation metrics for one generation:
// generation speed, TTFT, ITL, acceptance rate, cancellation counts.
type Stats = engine.Stats

// Token is a vocabulary index.
type Token = token.Token

// Tokenizer is the byte-level tokenizer used with the real backend.
type Tokenizer = token.Tokenizer

// NewTokenizer returns a tokenizer for the given vocabulary size.
func NewTokenizer(vocabSize int) (*Tokenizer, error) { return token.NewTokenizer(vocabSize) }

// ModelConfig describes a real (tiny) transformer architecture.
type ModelConfig = model.Config

// TinyModel returns the default small architecture for real-backend runs.
func TinyModel() ModelConfig { return model.TinyConfig() }

// GenerateOptions configures a real-compute generation.
type GenerateOptions = realbk.Options

// GenerateResult is the outcome of a real-compute generation.
type GenerateResult = realbk.Outcome

// Generate runs a generation with real tensor computation across an
// in-process pipeline of Nodes goroutine stages.
func Generate(opts GenerateOptions) (GenerateResult, error) { return realbk.Run(opts) }

// ReferenceGreedy returns the single-model greedy output that every
// strategy must reproduce exactly under greedy sampling.
func ReferenceGreedy(opts GenerateOptions, maxNew int) ([]Token, error) {
	return realbk.ReferenceGreedy(opts, maxNew)
}

// ServeRequest is one queued generation request for the serving layer.
type ServeRequest = serve.Request

// ServeResult is one served request's outcome (tokens plus per-session
// §V-A metrics). A request that was not served — invalid, refused by
// admission control, or shed on an unmeetable TTFT deadline — carries a
// sentinel-wrapped error instead of tokens; no request settles silently.
type ServeResult = serve.Result

// Sentinel errors a ServeResult.Err wraps (match with errors.Is): an
// invalid request, one refused by overload admission control, and one
// shed because its TTFT deadline became provably unmeetable.
var (
	ErrServeInvalid    = serve.ErrInvalid
	ErrServeOverloaded = serve.ErrOverloaded
	ErrServeShed       = serve.ErrShedDeadline
)

// ServeOptions configures a real-compute serving run: N concurrent
// requests multiplexed over one shared pipeline with continuous session
// scheduling and optional per-session speculation.
type ServeOptions = realbk.ServeOptions

// ServeOutcome bundles per-request results with aggregate stats.
type ServeOutcome = realbk.ServeOutcome

// Serve runs the multi-request serving layer on the real backend: the
// pipeline is built once and every queued request is admitted to a
// session slot as one frees up, each session's output remaining
// bit-identical to its serial greedy reference. Stage KV caches are
// paged (internal/kvpage) and may be oversubscribed via
// ServeOptions.KVCells: under memory pressure the scheduler drops
// speculative pages, preempts idle sessions (evicting their KV
// pipeline-wide), and readmits parked requests by recomputing their
// prefix — still bit-identical. See internal/serve for the
// session/namespace contract and the pressure protocol.
func Serve(opts ServeOptions) (ServeOutcome, error) { return realbk.Serve(opts) }

// SimulateServeOptions configures a simulated multi-tenant serving run
// (paper-scale clusters, virtual time).
type SimulateServeOptions = simbk.ServeOptions

// SimulateServeOutcome is the simulated serving result.
type SimulateServeOutcome = simbk.ServeOutcome

// SimulateServe runs the serving layer on the discrete-event cluster
// simulator, which is how multi-tenant scheduling is measured at 70B
// scale without 70B hardware.
func SimulateServe(opts SimulateServeOptions) (SimulateServeOutcome, error) {
	return simbk.Serve(opts)
}

// SimulateOptions configures a simulated-cluster generation.
type SimulateOptions = simbk.Options

// SimulateResult is the outcome of a simulated generation.
type SimulateResult = simbk.Outcome

// Simulate runs a generation on the discrete-event cluster simulator with
// paper-scale model and hardware presets.
func Simulate(opts SimulateOptions) (SimulateResult, error) { return simbk.Run(opts) }

// Cluster and interconnect presets (paper Table II / IV).
var (
	ClusterA   = cost.ClusterA
	ClusterB   = cost.ClusterB
	ClusterC   = cost.ClusterC
	GPUCluster = cost.GPUCluster
)

// ModelPair couples a target and draft model with the pair's calibrated
// acceptance rate (paper Tables I and III).
type ModelPair = cost.Pair

// Model pair presets in figure order.
var (
	CPUPairs = cost.CPUPairs
	GPUPairs = cost.GPUPairs
)

// ExperimentParams scales a figure regeneration (repetitions, generated
// tokens, prompt length).
type ExperimentParams = harness.Params

// PaperParams returns the full paper-scale experiment parameters
// (10 repetitions, 512 tokens, 128-token prompts).
func PaperParams() ExperimentParams { return harness.Paper() }

// Figure is a regenerated experiment result with a text rendering.
type Figure = harness.Figure

// Trace collects a pipeline's execution timeline (Fig 3-style): one
// flight ring per node. Dump captures it; the dump renders the timeline
// text and computes evaluation spans and per-node utilisation.
type Trace = trace.Set

// NewTrace creates an empty timeline to attach to SimulateOptions.Trace.
func NewTrace() *Trace { return trace.NewSet() }
