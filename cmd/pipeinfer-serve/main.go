// Command pipeinfer-serve runs the multi-request serving layer: N
// concurrent prompts multiplexed over one shared pipeline with continuous
// session scheduling, streaming each session's tokens as they are
// accepted. Every session's output is verified against the single-model
// greedy reference, so each invocation doubles as a serving correctness
// check.
//
// Usage:
//
//	pipeinfer-serve -nodes 3 -sessions 4 -tokens 32        # real backend
//	pipeinfer-serve -speculate -slots 4                    # per-session speculation
//	pipeinfer-serve -sim -sessions 16 -nodes 8             # 70B-scale simulation
//	pipeinfer-serve -sessions 16 -slots 16 -kv-cells 128 -kv-page 8
//	                                                       # oversubscribed KV: eviction +
//	                                                       # preemption + readmission engage
//	pipeinfer-serve -sessions 16 -slots 16 -batch 4        # cross-session batching: up to 4
//	                                                       # sessions' steps coalesce into one
//	                                                       # multi-row pipeline run
//	pipeinfer-serve -batch 8 -prefill-chunk 32             # chunked cross-session prefill:
//	                                                       # prompts split into 32-token chunks
//	                                                       # that ride in the same runs as
//	                                                       # decode rows, shortest prompt first
//	pipeinfer-serve -batch auto                            # adaptive batch width: the scheduler
//	                                                       # picks each step's width from load,
//	                                                       # occupancy and measured run overhead
//	pipeinfer-serve -sessions 16 -slots 4 -kv-cells 512 -kv-page 8 \
//	                -prompt "You are a helpful assistant. Answer briefly."
//	                                                       # shared-prefix reuse: sessions share
//	                                                       # the long system prompt; recycled
//	                                                       # slots map the published prefix
//	                                                       # read-only instead of recomputing it
//	                                                       # (-prefix-cache=false disables)
//	pipeinfer-serve -sessions 16 -slots 4 -ttft-slo 2s \
//	                -deadline 30s -max-queue 8             # overload control: requests carry a
//	                                                       # TTFT SLO and completion deadline
//	                                                       # (budgets from serve start); queued
//	                                                       # requests whose TTFT budget is
//	                                                       # provably blown are shed before any
//	                                                       # compute, submissions past the queue
//	                                                       # bound are refused with a
//	                                                       # distinguishable overload error, and
//	                                                       # the brown-out ladder drops
//	                                                       # speculation then narrows prefill
//	                                                       # before any mandatory work suffers
//	pipeinfer-serve -metrics-addr :9090                    # live observability: /metrics
//	                                                       # (Prometheus), /healthz, /readyz and
//	                                                       # /debug/pprof while serving
//	pipeinfer-serve -run-timeout 50ms -flight-dump f.bin   # arm the always-on flight recorder's
//	                                                       # automatic dump: on watchdog failure
//	                                                       # or breaker trip the event rings are
//	                                                       # written to f.bin (convert to Chrome
//	                                                       # trace JSON with pipeinfer-trace
//	                                                       # -flight f.bin)
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	pipeinfer "github.com/pipeinfer/pipeinfer"
	"github.com/pipeinfer/pipeinfer/internal/backend/simbk"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/telemetry"
	"github.com/pipeinfer/pipeinfer/internal/token"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// parseBatch interprets the -batch flag: "auto" selects the adaptive
// width controller (optionally capped, "auto:8"), an integer sets a
// static width, 0/1 disables batching.
func parseBatch(v string) (width int, auto bool, err error) {
	if v == "" || v == "0" {
		return 0, false, nil
	}
	if v == "auto" {
		return 0, true, nil
	}
	if rest, ok := strings.CutPrefix(v, "auto:"); ok {
		w, err := strconv.Atoi(rest)
		if err != nil || w <= 1 {
			// Caps <= 1 would silently fall back to the slot-count default
			// (serve.Config treats them as "no cap given"); reject instead.
			return 0, false, fmt.Errorf("bad -batch cap %q (want an integer >= 2)", rest)
		}
		return w, true, nil
	}
	w, err := strconv.Atoi(v)
	if err != nil {
		return 0, false, fmt.Errorf("bad -batch %q (want an integer or \"auto\")", v)
	}
	return w, false, nil
}

func main() {
	var (
		nodes     = flag.Int("nodes", 3, "pipeline ranks")
		sessions  = flag.Int("sessions", 4, "concurrent generation requests")
		slots     = flag.Int("slots", 0, "concurrent session slots (0 = min(4, sessions))")
		tokens    = flag.Int("tokens", 32, "tokens to generate per request")
		prompt    = flag.String("prompt", "Request", "base prompt; each session appends its index")
		seed      = flag.Uint64("seed", 7, "model weight seed")
		layers    = flag.Int("layers", 8, "target model layers")
		speculate = flag.Bool("speculate", false, "dedicated drafting head + per-session speculation")
		noise     = flag.Float64("noise", 0.01, "draft perturbation (with -speculate)")
		stream    = flag.Bool("stream", true, "print tokens as sessions accept them")
		sim       = flag.Bool("sim", false, "serve on the simulated 70B-scale cluster instead")
		kvCells   = flag.Int("kv-cells", 0, "per-stage KV capacity in cells (0 = fully provisioned; smaller values oversubscribe and engage eviction/preemption)")
		kvPage    = flag.Int("kv-page", 0, "KV page size in cells (0 = default 16)")
		prefix    = flag.Bool("prefix-cache", true, "shared-prefix reuse: publish completed prompt prefixes in a block-hash trie and map them read-only into later sessions sharing them, skipping recompute (needs -kv-cells > 0; ignored otherwise)")
		sharedLen = flag.Int("shared-prompt", 0, "prepend this many common system-prompt tokens to every session (sim mode; pairs with -prefix-cache to demonstrate shared-prefix reuse)")
		batchStr  = flag.String("batch", "0", "cross-session batching: coalesce up to this many sessions' steps into one multi-row pipeline run (0/1 = width 1; \"auto\" = adaptive width, \"auto:N\" = adaptive capped at N)")
		chunk     = flag.Int("prefill-chunk", 0, "chunked cross-session prefill: per-run prompt token budget; prompts split into chunks that batch across sessions and ride with decode rows (0 = whole-prompt prefills)")
		runTO     = flag.Duration("run-timeout", 0, "run watchdog floor: a run without a result past its deadline fails and its sessions recover by evict + prefix recompute (0 = off)")
		priority  = flag.Int("priority", 0, "service class for every request: higher priorities rank as if their deadline were earlier in the admission queue (aging prevents starvation of lower classes)")
		ttftSLO   = flag.Duration("ttft-slo", 0, "time-to-first-token budget from serve start; a queued request whose budget is provably blown is shed before any compute is spent on it (0 = no TTFT SLO)")
		deadline  = flag.Duration("deadline", 0, "completion budget from serve start; served requests score a deadline hit or miss (0 = no deadline)")
		maxQueue  = flag.Int("max-queue", 0, "admission queue bound: submissions past it are refused with a distinguishable overload error instead of waiting; also anchors the brown-out degradation ladder (0 = unbounded)")
		mAddr     = flag.String("metrics-addr", "", "serve live observability HTTP on this address (e.g. :9090): /metrics Prometheus exposition with streaming p50/p90/p99 latency summaries and per-stage bubble fractions, /healthz + /readyz health, /debug/pprof profiling (empty = off)")
		flightOut = flag.String("flight-dump", "", "arm automatic flight-recorder dumps: on watchdog failure or breaker trip the per-rank event rings are written to this file (binary; convert with pipeinfer-trace -flight; empty = off)")
	)
	flag.Parse()

	batchSz, autoBatch, err := parseBatch(*batchStr)
	if err != nil {
		fatal(err)
	}

	reg, bound, err := telemetry.Open(*mAddr, *flightOut)
	if err != nil {
		fatal(err)
	}
	if bound != "" {
		fmt.Printf("telemetry: http://%s/metrics (also /healthz, /readyz, /debug/pprof)\n", bound)
	}

	slo := sloOptions{priority: *priority, ttftSLO: *ttftSLO, deadline: *deadline, maxQueue: *maxQueue}

	if *sim {
		simServe(*nodes, *sessions, *slots, *tokens, *seed, *speculate, *kvCells, *kvPage, *prefix, *sharedLen, batchSz, *chunk, autoBatch, *runTO, slo, reg)
		return
	}

	cfg := model.TinyConfig()
	cfg.NLayers = *layers
	tk, err := token.NewTokenizer(cfg.VocabSize)
	if err != nil {
		fatal(err)
	}
	reqs := make([]pipeinfer.ServeRequest, *sessions)
	for i := range reqs {
		reqs[i] = pipeinfer.ServeRequest{
			Prompt: tk.Encode(fmt.Sprintf("%s %d", *prompt, i)),
			MaxNew: *tokens,
			// SLO budgets are measured from serve start; the endpoint
			// clock's epoch is the cluster's creation inside Serve, so the
			// relative budget is the absolute deadline.
			Priority:     slo.priority,
			TTFTDeadline: slo.ttftSLO,
			Deadline:     slo.deadline,
		}
	}

	opts := pipeinfer.ServeOptions{
		Nodes:        *nodes,
		CFG:          engine.Config{MaxNew: *tokens},
		ModelCfg:     cfg,
		Seed:         *seed,
		Speculate:    *speculate,
		DraftNoise:   float32(*noise),
		MaxSessions:  *slots,
		KVCells:      *kvCells,
		KVPageSize:   *kvPage,
		PrefixCache:  *prefix,
		MaxBatch:     batchSz,
		PrefillChunk: *chunk,
		AutoBatch:    autoBatch,
		RunTimeout:   *runTO,
		MaxQueue:     slo.maxQueue,
		Obs:          reg,
		Requests:     reqs,
	}
	if *stream {
		opts.OnToken = func(req int, tok token.Token) {
			fmt.Printf("[s%d] %s\n", req, tk.Decode([]token.Token{tok}))
		}
	}
	// Memory-pressure and fault events are part of the serving story: show them.
	opts.OnPreempt = func(req int) { fmt.Printf("[s%d] -- preempted: KV evicted, request parked --\n", req) }
	opts.OnReadmit = func(req int) { fmt.Printf("[s%d] -- readmitted: recomputing prefix --\n", req) }
	opts.OnRecover = func(req int) { fmt.Printf("[s%d] -- run failed: recovering by prefix recompute --\n", req) }
	opts.OnWeights = func(rank, lo, hi int, took time.Duration) {
		fmt.Fprintf(os.Stderr, "rank %d weights ready in %.1f ms (layers [%d,%d))\n", rank, took.Seconds()*1e3, lo, hi)
	}

	start := time.Now()
	out, err := pipeinfer.Serve(opts)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	fmt.Printf("== served %d requests over %d nodes (speculate=%v) ==\n", *sessions, *nodes, *speculate)
	mismatch := false
	for i, res := range out.Results {
		if res.Err != nil {
			// Shed and refused requests settle with an error Result, never
			// silently — and never count against correctness.
			fmt.Printf("session %d: not served (%v)\n", i, res.Err)
			continue
		}
		ref, err := pipeinfer.ReferenceGreedy(pipeinfer.GenerateOptions{
			ModelCfg: cfg, Seed: *seed, Prompt: reqs[i].Prompt,
		}, opts.CFG.Defaults().MaxNew)
		if err != nil {
			fatal(err)
		}
		ok := len(res.Tokens) == len(ref)
		for j := 0; ok && j < len(ref); j++ {
			ok = res.Tokens[j] == ref[j]
		}
		if !ok {
			mismatch = true
		}
		fmt.Printf("session %d: %q (%d tok, verified=%v)\n", i, tk.Decode(res.Tokens), len(res.Tokens), ok)
	}
	total := 0
	for _, r := range out.Results {
		total += r.Stats.Generated
	}
	fmt.Printf("aggregate: %d tokens in %v (%.1f tok/s); runs: %d launched, %d cancelled\n",
		total, wall.Round(time.Millisecond), float64(total)/wall.Seconds(),
		out.Stats.RunsLaunched, out.Stats.RunsCancelled)
	if len(out.Results) > 0 {
		var ttftSum time.Duration
		for _, r := range out.Results {
			ttftSum += r.Stats.TimeToFirst()
		}
		fmt.Printf("latency: mean TTFT %v across %d sessions\n",
			(ttftSum / time.Duration(len(out.Results))).Round(time.Millisecond), len(out.Results))
	}
	sum := slo.summary(*runTO)
	if *prefix && *kvCells > 0 {
		for _, r := range reqs {
			sum.PromptTokens += len(r.Prompt)
		}
	}
	out.Stats.WriteSummary(os.Stdout, sum)
	printTelemetry(reg)
	if mismatch {
		fmt.Println("correctness: MISMATCH against greedy reference")
		os.Exit(1)
	}
	fmt.Println("correctness: every session identical to its greedy reference")
}

// printTelemetry summarises the registry's streaming percentiles and
// per-stage pipeline utilisation after the run.
func printTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	fmt.Printf("telemetry: TTFT p50 %v p99 %v; ITL p50 %v p99 %v over %d/%d samples\n",
		reg.TTFT.QuantileDuration(0.5).Round(time.Microsecond),
		reg.TTFT.QuantileDuration(0.99).Round(time.Microsecond),
		reg.ITL.QuantileDuration(0.5).Round(time.Microsecond),
		reg.ITL.QuantileDuration(0.99).Round(time.Microsecond),
		reg.TTFT.Count(), reg.ITL.Count())
	now := reg.Now()
	reg.EachStage(func(name string, m *trace.StageMeter) {
		fmt.Printf("telemetry: stage %s busy %.0f%% bubble %.0f%% over %d evals\n",
			name, m.BusyFraction(now)*100, m.BubbleFraction(now)*100, m.Evals())
	})
	if reg.Dumps() > 0 {
		fmt.Printf("telemetry: %d flight dump(s) taken\n", reg.Dumps())
	}
}

// sloOptions bundles the overload-control flags: one service class plus
// TTFT/completion budgets (from serve start) applied to every request,
// and the admission queue bound.
type sloOptions struct {
	priority          int
	ttftSLO, deadline time.Duration
	maxQueue          int
}

// summary says which mechanisms this invocation armed, for the closing
// counter report.
func (slo sloOptions) summary(runTimeout time.Duration) engine.Summary {
	return engine.Summary{
		Watchdog: runTimeout > 0,
		Overload: slo.maxQueue != 0 || slo.ttftSLO != 0 || slo.deadline != 0,
	}
}

// simServe serves on the discrete-event simulator at paper scale and
// reports virtual-time throughput. Every served session is verified
// against its target stream (simbk.ServeReference), and a mismatch exits
// non-zero, as on the real path.
func simServe(nodes, sessions, slots, tokens int, seed uint64, speculate bool, kvCells, kvPage int, prefix bool, sharedLen, batchSz, chunk int, autoBatch bool, runTO time.Duration, slo sloOptions, reg *telemetry.Registry) {
	simOpts := pipeinfer.SimulateServeOptions{
		Cluster:         pipeinfer.ClusterC().Take(nodes),
		Pair:            pipeinfer.CPUPairs()[0],
		CFG:             engine.Config{MaxNew: tokens},
		Sessions:        sessions,
		PromptLen:       64,
		SharedPromptLen: sharedLen,
		Seed:            seed,
		Speculate:       speculate,
		MaxSessions:     slots,
		KVCells:         kvCells,
		KVPageSize:      kvPage,
		PrefixCache:     prefix,
		MaxBatch:        batchSz,
		PrefillChunk:    chunk,
		AutoBatch:       autoBatch,
		RunTimeout:      runTO,
		MaxQueue:        slo.maxQueue,
		Obs:             reg,
	}
	if slo.priority != 0 || slo.ttftSLO > 0 || slo.deadline > 0 {
		// Budgets from serve start are absolute deadlines on the
		// simulation's virtual clock, whose epoch is t=0.
		simOpts.SLOFor = func(int) (int, time.Duration, time.Duration) {
			return slo.priority, slo.ttftSLO, slo.deadline
		}
	}
	out, err := pipeinfer.SimulateServe(simOpts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("== simulated serving: %d sessions over %d nodes (speculate=%v) ==\n",
		sessions, nodes, speculate)
	var ttftSum, ttftMean time.Duration
	served := 0
	mismatch := false
	for i, res := range out.Results {
		if res.Err != nil {
			fmt.Printf("session %d: not served (%v)\n", i, res.Err)
			continue
		}
		if !slices.Equal(res.Tokens, simbk.ServeReference(simOpts, i, simOpts.CFG.Defaults().MaxNew)) {
			mismatch = true
			fmt.Printf("session %d: MISMATCH against its target stream\n", i)
		}
		served++
		ttftSum += res.Stats.TimeToFirst()
		fmt.Printf("session %d: %d tokens, TTFT %v, speed %.1f tok/s\n",
			i, res.Stats.Generated, res.Stats.TimeToFirst().Round(time.Millisecond), res.Stats.Speed())
	}
	if served > 0 {
		ttftMean = ttftSum / time.Duration(served)
	}
	fmt.Printf("aggregate: %d tokens in %v virtual (%.1f tok/s); acceptance %.0f%%; mean TTFT %v\n",
		out.Stats.Generated, out.Stats.Done.Round(time.Millisecond),
		out.Stats.Speed(), out.Stats.AcceptanceRate()*100,
		ttftMean.Round(time.Millisecond))
	sum := slo.summary(runTO)
	if prefix && kvCells > 0 {
		sum.PromptTokens = sessions * (64 + sharedLen)
	}
	out.Stats.WriteSummary(os.Stdout, sum)
	printTelemetry(reg)
	if mismatch {
		fmt.Println("correctness: MISMATCH against greedy reference")
		os.Exit(1)
	}
	fmt.Println("correctness: every session identical to its greedy reference")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipeinfer-serve:", err)
	os.Exit(1)
}
