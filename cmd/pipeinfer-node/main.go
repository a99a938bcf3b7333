// Command pipeinfer-node runs one rank of a genuinely distributed
// PipeInfer cluster over TCP. Start one process per rank with identical
// flags (only -rank differs); every rank derives identical model weights
// from the shared seed, so no weight files need distributing. Rank 0 is
// the head: it drives generation and prints the result.
//
// Example (three shells, or backgrounded):
//
//	pipeinfer-node -rank 0 -peers 127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072 &
//	pipeinfer-node -rank 1 -peers 127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072 &
//	pipeinfer-node -rank 2 -peers 127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072
//
// With -serve N the cluster runs the multi-request serving layer instead
// of a single generation, and the fault-tolerance machinery is available
// end to end: -heartbeat keeps links monitored and self-healing (dead
// connections redial with exponential backoff and jitter), -run-timeout
// arms the head's run watchdog so a stalled or lost run recovers its
// sessions by eviction + prefix-recompute readmission:
//
//	pipeinfer-node -rank 0 -peers ... -serve 8 -run-timeout 2s -heartbeat 500ms
//
// With -serve and -kv-cells the paged KV protocol runs over the wire,
// including shared-prefix reuse: completed prompt prefixes are published
// in a block-hash trie and mapped read-only into later sessions that
// share them, so a common system prompt is computed once per cluster
// (-prefix-cache=false disables):
//
//	pipeinfer-node -rank 0 -peers ... -serve 8 -kv-cells 512 -kv-page 8
//
// Every rank can expose live observability with -metrics-addr: /metrics
// (Prometheus exposition — this rank's stage bubble fraction, link
// traffic and, on rank 0, the serving latency percentiles), /healthz,
// /readyz and /debug/pprof. -flight-dump arms automatic flight-recorder
// dumps on watchdog failure or breaker trip (rank 0, serving mode):
//
//	pipeinfer-node -rank 0 -peers ... -serve 8 -run-timeout 2s \
//	    -metrics-addr :9090 -flight-dump flight.bin
//
// Ctrl-C during mesh establishment aborts the dial loop immediately
// instead of blocking until -timeout.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/backend/realbk"
	"github.com/pipeinfer/pipeinfer/internal/comm/tcpcomm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/telemetry"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

func main() {
	var (
		rank         = flag.Int("rank", 0, "this process's rank")
		peers        = flag.String("peers", "", "comma-separated host:port per rank, in rank order")
		strategyName = flag.String("strategy", "pipeinfer", "iterative | speculative | pipeinfer")
		tokens       = flag.Int("tokens", 32, "tokens to generate")
		promptText   = flag.String("prompt", "Distributed inference over TCP", "prompt text")
		seed         = flag.Uint64("seed", 7, "shared model weight seed (must match on all ranks)")
		noise        = flag.Float64("noise", 0.01, "draft perturbation")
		layers       = flag.Int("layers", 8, "target model layers")
		timeout      = flag.Duration("timeout", 30*time.Second, "mesh establishment timeout")

		sessions   = flag.Int("serve", 0, "serve this many concurrent requests instead of one generation (must match on all ranks)")
		kvCells    = flag.Int("kv-cells", 0, "per-stage KV capacity in cells (0 = fully provisioned; needs -serve; must match on all ranks)")
		kvPage     = flag.Int("kv-page", 0, "KV page size in cells (0 = default 16; must match on all ranks)")
		prefix     = flag.Bool("prefix-cache", true, "shared-prefix reuse: publish completed prompt prefixes and map them read-only into later sessions sharing them (needs -serve and -kv-cells > 0; must match on all ranks)")
		runTimeout = flag.Duration("run-timeout", 0, "run watchdog floor: a run without a result past its deadline fails and its sessions recover by evict + prefix recompute (0 = off; needs -serve; rank 0 only)")
		priority   = flag.Int("priority", 0, "service class for every request: higher priorities rank earlier in the admission queue (needs -serve; rank 0 only)")
		ttftSLO    = flag.Duration("ttft-slo", 0, "time-to-first-token budget from serve start; queued requests whose budget is provably blown are shed before any compute (0 = off; needs -serve; rank 0 only)")
		deadline   = flag.Duration("deadline", 0, "completion budget from serve start; served requests score a deadline hit or miss (0 = off; needs -serve; rank 0 only)")
		maxQueue   = flag.Int("max-queue", 0, "admission queue bound: submissions past it are refused with an overload error; also anchors the brown-out ladder (0 = unbounded; needs -serve; rank 0 only)")
		heartbeat  = flag.Duration("heartbeat", time.Second, "link keepalive interval; silent links are torn down and redialed (0 = off)")
		backoff    = flag.Duration("reconnect-backoff", 50*time.Millisecond, "initial redial backoff, doubled with jitter up to 2s")
		reconnect  = flag.Duration("reconnect-timeout", 10*time.Second, "per-link reconnection budget after a failure (0 = broken links stay down)")

		mAddr     = flag.String("metrics-addr", "", "serve this rank's observability HTTP here (e.g. :9090): /metrics Prometheus exposition, /healthz + /readyz, /debug/pprof (empty = off)")
		flightOut = flag.String("flight-dump", "", "write an automatic flight-recorder dump to this file on watchdog failure or breaker trip (rank 0 with -serve; convert with pipeinfer-trace -flight; empty = off)")
	)
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	if len(addrs) < 2 || *peers == "" {
		fatal(fmt.Errorf("need -peers with at least two host:port entries"))
	}

	strategies := map[string]engine.Strategy{
		"iterative":   engine.StrategyIterative,
		"speculative": engine.StrategySpeculative,
		"pipeinfer":   engine.StrategyPipeInfer,
	}
	strategy, ok := strategies[*strategyName]
	if !ok {
		fatal(fmt.Errorf("unknown strategy %q", *strategyName))
	}

	cfg := model.TinyConfig()
	cfg.NLayers = *layers
	tk, err := token.NewTokenizer(cfg.VocabSize)
	if err != nil {
		fatal(err)
	}

	// Ctrl-C aborts mesh establishment (and reconnection waits) instead of
	// sleeping out the dial timeout.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ep, err := tcpcomm.Dial(tcpcomm.Config{
		Rank: *rank, Addrs: addrs, DialTimeout: *timeout,
		Heartbeat:        *heartbeat,
		ReconnectBackoff: *backoff,
		ReconnectTimeout: *reconnect,
		Context:          ctx,
	})
	if err != nil {
		fatal(err)
	}
	defer ep.Close()
	fmt.Fprintf(os.Stderr, "rank %d/%d connected\n", *rank, len(addrs))

	reg, bound, err := telemetry.Open(*mAddr, *flightOut)
	if err != nil {
		fatal(err)
	}
	if bound != "" {
		fmt.Fprintf(os.Stderr, "rank %d telemetry: http://%s/metrics\n", *rank, bound)
	}

	if *sessions > 0 {
		slo := sloOptions{priority: *priority, ttftSLO: *ttftSLO, deadline: *deadline, maxQueue: *maxQueue}
		serveCluster(ep, addrs, tk, cfg, strategy, *sessions, *tokens, *kvCells, *kvPage, *prefix, *promptText, *seed, *noise, *runTimeout, slo, reg)
		return
	}

	out, err := realbk.RunRank(ep, realbk.Options{
		Nodes:      len(addrs),
		Strategy:   strategy,
		CFG:        engine.Config{MaxNew: *tokens},
		ModelCfg:   cfg,
		Seed:       *seed,
		DraftNoise: float32(*noise),
		Prompt:     tk.Encode(*promptText),
		OnWeights:  weightsReady,
	})
	if err != nil {
		fatal(err)
	}
	if *rank == 0 {
		fmt.Printf("output: %q\n", tk.Decode(out.Tokens))
		fmt.Printf("speed: %.1f tok/s  TTFT: %v  ITL: %v  acceptance: %.0f%%  cancelled: %d/%d runs\n",
			out.Stats.Speed(), out.Stats.TTFT().Round(time.Microsecond),
			out.Stats.ITL().Round(time.Microsecond), out.Stats.AcceptanceRate()*100,
			out.Stats.RunsCancelled, out.Stats.RunsLaunched)
		if n := ep.Reconnects(); n > 0 {
			fmt.Printf("fault tolerance: %d links re-established\n", n)
		}
	} else {
		fmt.Fprintf(os.Stderr, "rank %d done\n", *rank)
	}
}

// weightsReady reports the end of this rank's cold start: the layers it
// evaluates, derived from the seed (a dedicated head evaluates none).
func weightsReady(rank, lo, hi int, took time.Duration) {
	fmt.Fprintf(os.Stderr, "rank %d weights ready in %.1f ms (layers [%d,%d))\n", rank, took.Seconds()*1e3, lo, hi)
}

// sloOptions bundles the overload-control flags: one service class plus
// TTFT/completion budgets (from serve start) applied to every request,
// and the admission queue bound.
type sloOptions struct {
	priority          int
	ttftSLO, deadline time.Duration
	maxQueue          int
}

// serveCluster runs one rank of a distributed serving run: the shared
// pipeline multiplexes every request, with the watchdog and session
// recovery armed when runTimeout > 0 and overload control armed by the
// SLO flags.
func serveCluster(ep *tcpcomm.Endpoint, addrs []string, tk *token.Tokenizer, cfg model.Config,
	strategy engine.Strategy, sessions, tokens, kvCells, kvPage int, prefix bool,
	promptText string, seed uint64, noise float64, runTimeout time.Duration, slo sloOptions, reg *telemetry.Registry) {
	if strategy == engine.StrategySpeculative {
		fatal(fmt.Errorf("-serve supports iterative and pipeinfer strategies"))
	}
	reqs := make([]serve.Request, sessions)
	for i := range reqs {
		reqs[i] = serve.Request{
			Prompt: tk.Encode(fmt.Sprintf("%s %d", promptText, i)),
			MaxNew: tokens,
			// Budgets from serve start are absolute deadlines on the TCP
			// endpoint's clock, whose epoch is mesh establishment.
			Priority:     slo.priority,
			TTFTDeadline: slo.ttftSLO,
			Deadline:     slo.deadline,
		}
	}
	rank := ep.Rank()
	start := time.Now()
	out, err := realbk.ServeRank(ep, realbk.ServeOptions{
		Nodes:       len(addrs),
		CFG:         engine.Config{MaxNew: tokens},
		ModelCfg:    cfg,
		Seed:        seed,
		Speculate:   strategy == engine.StrategyPipeInfer,
		DraftNoise:  float32(noise),
		KVCells:     kvCells,
		KVPageSize:  kvPage,
		PrefixCache: prefix,
		RunTimeout:  runTimeout,
		MaxQueue:    slo.maxQueue,
		Obs:         reg,
		Requests:    reqs,
		OnWeights:   weightsReady,
	})
	if err != nil {
		fatal(err)
	}
	if rank != 0 {
		fmt.Fprintf(os.Stderr, "rank %d done\n", rank)
		return
	}
	wall := time.Since(start)
	total := 0
	for i, res := range out.Results {
		if res.Err != nil {
			fmt.Printf("session %d: not served (%v)\n", i, res.Err)
			continue
		}
		total += res.Stats.Generated
		fmt.Printf("session %d: %q (%d tok)\n", i, tk.Decode(res.Tokens), len(res.Tokens))
	}
	fmt.Printf("aggregate: %d tokens in %v (%.1f tok/s); runs: %d launched, %d cancelled\n",
		total, wall.Round(time.Millisecond), float64(total)/wall.Seconds(),
		out.Stats.RunsLaunched, out.Stats.RunsCancelled)
	// A TCP mesh heals its links whether or not the watchdog is armed,
	// so the fault-tolerance line always prints.
	sum := engine.Summary{Watchdog: true, Overload: slo.maxQueue > 0 || slo.ttftSLO > 0 || slo.deadline > 0}
	if prefix && kvCells > 0 {
		for _, r := range reqs {
			sum.PromptTokens += len(r.Prompt)
		}
	}
	out.Stats.WriteSummary(os.Stdout, sum)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipeinfer-node:", err)
	os.Exit(1)
}
