// Multiuser: a walkthrough of the multi-request serving layer.
//
// One pipeline, many users. The serving layer statically partitions the
// KV cache's 64 sequence ids into per-session namespaces, admits queued
// requests to session slots round-robin, and interleaves every session's
// runs into a single pipelined stream — so stages that would sit idle
// between one request's runs evaluate another request's instead. The
// walkthrough runs the same workload several ways:
//
//  1. serially, one pipeline rebuilt per request (no serving layer);
//  2. served concurrently on the real backend, verifying every session
//     against its single-model greedy reference;
//  3. served with cross-session batching (-batch): up to -batch users'
//     decode steps coalesce into one multi-row pipeline run, amortising
//     per-run overhead, with outputs still bit-identical to each user's
//     solo run;
//  4. a prefill burst (-prefill-chunk): 8 sessions with long prompts
//     arrive simultaneously, once with whole-prompt prefill runs (every
//     user's first token waits behind the longest prompt at the head of
//     the FIFO) and once with chunked cross-session prefill batching
//     (prompts split into chunks scheduled shortest-remaining-first,
//     riding in the same runs as decode rows) — mean TTFT printed for
//     both, outputs bit-identical;
//  5. served with the KV cache oversubscribed (-kv-cells/-kv-page), so
//     sessions are preempted — their pages evicted pipeline-wide — and
//     readmitted by recomputing their prefix, with outputs still
//     bit-identical;
//  6. served at 70B scale on the simulated cluster, where the
//     pipeline-fill and batch-amortisation wins are measured in exact
//     virtual time;
//  7. served through injected faults: a seeded fault plan drops result
//     frames and blacks out the result link mid-run, the run watchdog
//     (-run-timeout) declares the affected runs failed, and the hit
//     sessions recover by eviction + prefix recompute — with every
//     user's output still bit-identical;
//  8. served with the live telemetry registry attached: streaming
//     log-bucketed histograms and per-stage busy/bubble meters are
//     observed from the hot path without allocating, so a snapshot taken
//     mid-burst — here from an OnToken hook while sessions are still
//     decoding — shows the p50/p99 time-to-first-token and each stage's
//     bubble fraction of the run in flight, exactly what a /metrics
//     scrape of pipeinfer-serve -metrics-addr would report;
//  9. served with shared-prefix reuse: 8 users open with the same long
//     system prompt, so the first (cold) user's completed prefill is
//     published into a block-hash trie and every later user's admission
//     maps those refcounted, read-only KV pages into their own
//     namespace, prefilling only their question — first-token wait
//     collapses, outputs still bit-identical;
//  10. served through an overload burst: 10 users rush 2 session slots,
//     half of them carrying an already-unmeetable TTFT SLO and two more
//     arriving past the bounded admission queue — the doomed are shed
//     before any prefill compute is spent, the over-bound are refused
//     with a distinguishable "overloaded" result, and the survivors
//     meet every deadline with outputs bit-identical to the
//     uncontended run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	pipeinfer "github.com/pipeinfer/pipeinfer"
	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/faultcomm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/telemetry"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

func main() {
	const (
		users  = 6
		tokens = 24
		nodes  = 3
	)
	// Memory-pressure scenarios are reproducible from the CLI: -kv-cells
	// caps the per-stage KV cache (0 picks a deliberately tight default
	// for step 3), -kv-page sets the page granularity.
	kvCells := flag.Int("kv-cells", 0, "per-stage KV capacity in cells for the oversubscribed run (0 = half the fully provisioned size)")
	kvPage := flag.Int("kv-page", 8, "KV page size in cells")
	batchSz := flag.Int("batch", 4, "cross-session batch width for the batched run (sessions coalesced per pipeline run)")
	chunk := flag.Int("prefill-chunk", 24, "prefill chunk budget (tokens per run) for the burst step")
	flag.Parse()
	cfg := pipeinfer.TinyModel()
	cfg.NLayers = 6
	tk, err := pipeinfer.NewTokenizer(cfg.VocabSize)
	if err != nil {
		log.Fatal(err)
	}

	// Each user submits their own prompt.
	reqs := make([]pipeinfer.ServeRequest, users)
	for i := range reqs {
		reqs[i] = pipeinfer.ServeRequest{
			Prompt: tk.Encode(fmt.Sprintf("user %d asks", i)),
			MaxNew: tokens,
		}
	}

	// 1. No serving layer: one-shot Generate per request, back to back.
	serialStart := time.Now()
	for _, r := range reqs {
		if _, err := pipeinfer.Generate(pipeinfer.GenerateOptions{
			Nodes: nodes, Strategy: pipeinfer.Iterative,
			CFG: engine.Config{MaxNew: tokens}, ModelCfg: cfg, Seed: 42, Prompt: r.Prompt,
		}); err != nil {
			log.Fatal(err)
		}
	}
	serial := time.Since(serialStart)

	// 2. The serving layer: one persistent pipeline, all users at once.
	// MaxSessions bounds concurrency; extra requests queue for free slots.
	serveStart := time.Now()
	out, err := pipeinfer.Serve(pipeinfer.ServeOptions{
		Nodes:       nodes,
		CFG:         engine.Config{MaxNew: tokens},
		ModelCfg:    cfg,
		Seed:        42,
		MaxSessions: 4,
		Requests:    reqs,
	})
	if err != nil {
		log.Fatal(err)
	}
	served := time.Since(serveStart)

	fmt.Printf("%d users x %d tokens over %d nodes\n", users, tokens, nodes)
	fmt.Printf("serial one-shot runs: %8v  (%.0f tok/s aggregate)\n",
		serial.Round(time.Millisecond), float64(users*tokens)/serial.Seconds())
	fmt.Printf("serving layer:        %8v  (%.0f tok/s aggregate)\n\n",
		served.Round(time.Millisecond), float64(users*tokens)/served.Seconds())

	// Every session's output is bit-identical to the output that user
	// would have gotten with the whole pipeline to themselves.
	for i, res := range out.Results {
		ref, err := pipeinfer.ReferenceGreedy(pipeinfer.GenerateOptions{
			ModelCfg: cfg, Seed: 42, Prompt: reqs[i].Prompt,
		}, tokens)
		if err != nil {
			log.Fatal(err)
		}
		for j := range ref {
			if res.Tokens[j] != ref[j] {
				log.Fatalf("user %d got a different answer under multiplexing", i)
			}
		}
	}
	fmt.Println("every user's output is bit-identical to their solo greedy run")

	// 3. Cross-session batching: every user's single-token decode steps
	// coalesce into shared multi-row pipeline runs (up to -batch users per
	// run), paying the per-run overhead — wire header, FIFO record, KV
	// transaction, stage wakeup — once per batch instead of once per user.
	// Per-row sequence sets keep attention per-user-isolated, so outputs
	// must not change by a bit.
	batchStart := time.Now()
	batched, err := pipeinfer.Serve(pipeinfer.ServeOptions{
		Nodes:       nodes,
		CFG:         engine.Config{MaxNew: tokens},
		ModelCfg:    cfg,
		Seed:        42,
		MaxSessions: users,
		MaxBatch:    *batchSz,
		Requests:    reqs,
	})
	if err != nil {
		log.Fatal(err)
	}
	batchedWall := time.Since(batchStart)
	for i := range reqs {
		if len(batched.Results[i].Tokens) != len(out.Results[i].Tokens) {
			log.Fatalf("user %d got a different answer under batching", i)
		}
		for j, tok := range out.Results[i].Tokens {
			if batched.Results[i].Tokens[j] != tok {
				log.Fatalf("user %d got a different answer under batching", i)
			}
		}
	}
	fmt.Printf("\ncross-session batching (width %d): %8v, %d multi-user runs (mean width %.1f, %d vs %d runs total) — outputs unchanged\n",
		*batchSz, batchedWall.Round(time.Millisecond), batched.Stats.BatchedRuns,
		batched.Stats.MeanBatch(), batched.Stats.RunsLaunched, out.Stats.RunsLaunched)

	// 4. A prefill burst: 8 users with long prompts (one very long) press
	// enter at the same instant. Whole-prompt prefills complete strictly
	// in FIFO order, so everyone's first token queues behind the longest
	// prompt; chunked cross-session prefill splits every prompt into
	// -prefill-chunk-token chunks scheduled shortest-remaining-first, so
	// short prompts overtake long ones and mean time-to-first-token
	// drops — with every output still bit-identical.
	const burstUsers = 8
	burstReqs := make([]pipeinfer.ServeRequest, burstUsers)
	for i := range burstReqs {
		words := 24
		if i == 0 {
			words = 160 // the long prompt every other user would queue behind
		}
		text := fmt.Sprintf("user %d elaborates:", i)
		for w := 0; w < words; w++ {
			text += fmt.Sprintf(" point %d", w)
		}
		burstReqs[i] = pipeinfer.ServeRequest{Prompt: tk.Encode(text), MaxNew: 8}
	}
	meanTTFT := func(out pipeinfer.ServeOutcome) time.Duration {
		var sum time.Duration
		for _, r := range out.Results {
			sum += r.Stats.TimeToFirst()
		}
		return (sum / burstUsers).Round(time.Millisecond)
	}
	burstRun := func(prefillChunk int) pipeinfer.ServeOutcome {
		out, err := pipeinfer.Serve(pipeinfer.ServeOptions{
			Nodes:        nodes,
			CFG:          engine.Config{MaxNew: 8},
			ModelCfg:     cfg,
			Seed:         42,
			MaxSessions:  burstUsers,
			MaxBatch:     *batchSz,
			PrefillChunk: prefillChunk,
			Requests:     burstReqs,
		})
		if err != nil {
			log.Fatal(err)
		}
		return out
	}
	whole := burstRun(0)
	chunked := burstRun(*chunk)
	for i := range burstReqs {
		if len(whole.Results[i].Tokens) != len(chunked.Results[i].Tokens) {
			log.Fatalf("user %d got a different answer under chunked prefill", i)
		}
		for j, tok := range whole.Results[i].Tokens {
			if chunked.Results[i].Tokens[j] != tok {
				log.Fatalf("user %d got a different answer under chunked prefill", i)
			}
		}
	}
	fmt.Printf("\nprefill burst (%d users at once, one long prompt):\n", burstUsers)
	fmt.Printf("  whole-prompt prefills:  mean TTFT %v\n", meanTTFT(whole))
	fmt.Printf("  chunked prefill (%d-token chunks): mean TTFT %v (%d chunk runs) — outputs unchanged\n",
		*chunk, meanTTFT(chunked), chunked.Stats.PrefillBatchedRuns)

	// 5. Oversubscribed KV: a cache too small to hold every user at once.
	// The scheduler drops speculative pages, preempts idle sessions (their
	// namespaces evicted on every stage), parks the requests, and readmits
	// them by recomputing their prefix — outputs must not change by a bit.
	cells := *kvCells
	if cells <= 0 {
		// Half of what the six 24-token sessions would need at once.
		cells = users * (8 + tokens) / 2
	}
	pressured, err := pipeinfer.Serve(pipeinfer.ServeOptions{
		Nodes:       nodes,
		CFG:         engine.Config{MaxNew: tokens},
		ModelCfg:    cfg,
		Seed:        42,
		MaxSessions: users,
		KVCells:     cells,
		KVPageSize:  *kvPage,
		Requests:    reqs,
		OnPreempt:   func(req int) { fmt.Printf("  user %d preempted (KV evicted, parked)\n", req) },
		OnReadmit:   func(req int) { fmt.Printf("  user %d readmitted (prefix recompute)\n", req) },
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := range reqs {
		if len(pressured.Results[i].Tokens) != len(out.Results[i].Tokens) {
			log.Fatalf("user %d got a different answer under memory pressure", i)
		}
		for j, tok := range out.Results[i].Tokens {
			if pressured.Results[i].Tokens[j] != tok {
				log.Fatalf("user %d got a different answer under memory pressure", i)
			}
		}
	}
	fmt.Printf("\noversubscribed KV (%d cells, page %d): %d spec drops, %d preemptions, %d readmissions — outputs unchanged\n",
		cells, *kvPage, pressured.Stats.SpecDrops, pressured.Stats.Preemptions, pressured.Stats.Readmissions)

	// 6. The same scheduling at 70B scale, in virtual time: 16 tenants on
	// a 8-node cluster with per-session speculation and cross-session
	// batching.
	sim, err := pipeinfer.SimulateServe(pipeinfer.SimulateServeOptions{
		Cluster:     pipeinfer.ClusterC().Take(8),
		Pair:        pipeinfer.CPUPairs()[0],
		CFG:         engine.Config{MaxNew: 128},
		Sessions:    16,
		PromptLen:   128,
		Seed:        42,
		Speculate:   true,
		MaxSessions: 8,
		MaxBatch:    *batchSz,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated 70B serving: 16 tenants, %d tokens in %v virtual (%.1f tok/s aggregate, %.0f%% acceptance)\n",
		sim.Stats.Generated, sim.Stats.Done.Round(time.Millisecond),
		sim.Stats.Speed(), sim.Stats.AcceptanceRate()*100)

	// 7. Fault injection: the same workload through a deliberately lossy
	// network. The seeded plan drops two result frames outright and
	// blacks out the result link for a few milliseconds mid-run; the run
	// watchdog (RunTimeout) detects both — a result arriving for a newer
	// run proves the older one's is lost, and a silent pipeline fails at
	// its deadline — cancels the failed runs pipeline-wide, evicts the
	// affected sessions' KV, and readmits them by prefix recompute.
	// Recovery is invisible in the output: greedy decoding is
	// deterministic in the accepted prefix, so every user's answer must
	// still match their solo run bit for bit.
	plan := &faultcomm.Plan{Seed: 1, Rules: []faultcomm.Rule{
		{Src: nodes - 1, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: 5},
		{Src: nodes - 1, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: 31},
		{Src: nodes - 1, Dst: 0, Tag: -1, Kind: faultcomm.Partition, From: 2 * time.Millisecond, Until: 8 * time.Millisecond},
	}}
	faulted, err := pipeinfer.Serve(pipeinfer.ServeOptions{
		Nodes:       nodes,
		CFG:         engine.Config{MaxNew: tokens},
		ModelCfg:    cfg,
		Seed:        42,
		MaxSessions: users,
		RunTimeout:  50 * time.Millisecond,
		WrapEndpoint: func(_ int, ep comm.Endpoint) comm.Endpoint {
			return faultcomm.Wrap(ep, plan)
		},
		OnRecover: func(req int) { fmt.Printf("  user %d recovered (run failed, prefix recompute)\n", req) },
		Requests:  reqs,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfault injection (%d faults: dropped results + a blackout window):\n", plan.Stats().Total())
	for i := range reqs {
		if len(faulted.Results[i].Tokens) != len(out.Results[i].Tokens) {
			log.Fatalf("user %d got a different answer under faults", i)
		}
		for j, tok := range out.Results[i].Tokens {
			if faulted.Results[i].Tokens[j] != tok {
				log.Fatalf("user %d got a different answer under faults", i)
			}
		}
	}
	fmt.Printf("  %d run timeouts, %d session recoveries — outputs unchanged\n",
		faulted.Stats.RunTimeouts, faulted.Stats.Recoveries)

	// 8. Live telemetry: rerun the prefill burst with the registry
	// attached. Observation is atomics-only, so the snapshot below is
	// taken *while* sessions are still decoding — a mid-burst OnToken
	// hook reads the streaming TTFT histogram and the per-stage meters
	// the moment the 16th token lands, the programmatic equivalent of
	// scraping /metrics mid-serve.
	reg := telemetry.New()
	var (
		once      sync.Once
		midTokens int
	)
	live, err := pipeinfer.Serve(pipeinfer.ServeOptions{
		Nodes:        nodes,
		CFG:          engine.Config{MaxNew: 8},
		ModelCfg:     cfg,
		Seed:         42,
		MaxSessions:  burstUsers,
		MaxBatch:     *batchSz,
		PrefillChunk: *chunk,
		Obs:          reg,
		Requests:     burstReqs,
		OnToken: func(req int, tok pipeinfer.Token) {
			midTokens++
			if midTokens < 16 {
				return
			}
			once.Do(func() {
				fmt.Printf("\nlive telemetry, snapshotted mid-burst (after %d tokens, sessions still decoding):\n", midTokens)
				fmt.Printf("  TTFT p50 %v p99 %v over %d first tokens so far\n",
					reg.TTFT.QuantileDuration(0.5).Round(time.Microsecond),
					reg.TTFT.QuantileDuration(0.99).Round(time.Microsecond),
					reg.TTFT.Count())
				now := reg.Now()
				reg.EachStage(func(name string, m *trace.StageMeter) {
					fmt.Printf("  stage %s: bubble %.0f%% of the window so far (%d evals)\n",
						name, m.BubbleFraction(now)*100, m.Evals())
				})
			})
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	final := reg.Snapshot()
	fmt.Printf("  final: %d tokens, batch width p50 %d rows, ITL p50 %v — mid-burst and final views from one registry\n",
		final.Generated, reg.BatchWidth.Quantile(0.5), reg.ITL.QuantileDuration(0.5).Round(time.Microsecond))
	_ = live

	// 9. Shared-prefix reuse: every user's prompt opens with the same long
	// system prompt. Cold, each user pays a full-prompt prefill. With the
	// prefix cache on, the first completed prompt publishes its
	// page-aligned prefix into a block-hash trie; every later admission
	// looks its prompt up, maps the matching pages read-only into its own
	// namespace (one physical copy, refcounted), and prefills only its
	// question. Users are served one at a time here so each user's
	// first-token wait is a clean prefill span — user i enters their slot
	// the moment user i-1 finishes.
	const sharedUsers = 8
	sysText := "System: you are a careful assistant."
	for w := 0; w < 120; w++ {
		sysText += fmt.Sprintf(" rule %d", w)
	}
	sharedReqs := make([]pipeinfer.ServeRequest, sharedUsers)
	for i := range sharedReqs {
		sharedReqs[i] = pipeinfer.ServeRequest{
			Prompt: tk.Encode(fmt.Sprintf("%s User %d asks something", sysText, i)),
			MaxNew: 8,
		}
	}
	sharedRun := func(prefixOn bool) pipeinfer.ServeOutcome {
		out, err := pipeinfer.Serve(pipeinfer.ServeOptions{
			Nodes:       nodes,
			CFG:         engine.Config{MaxNew: 8},
			ModelCfg:    cfg,
			Seed:        42,
			MaxSessions: 1, // serial admission: clean cold-vs-hit prefill spans
			KVCells:     4096,
			KVPageSize:  *kvPage,
			PrefixCache: prefixOn,
			Requests:    sharedReqs,
		})
		if err != nil {
			log.Fatal(err)
		}
		return out
	}
	coldRun := sharedRun(false)
	warmRun := sharedRun(true)
	for i := range sharedReqs {
		if len(coldRun.Results[i].Tokens) != len(warmRun.Results[i].Tokens) {
			log.Fatalf("user %d got a different answer with the prefix cache on", i)
		}
		for j, tok := range coldRun.Results[i].Tokens {
			if warmRun.Results[i].Tokens[j] != tok {
				log.Fatalf("user %d got a different answer with the prefix cache on", i)
			}
		}
	}
	// Per-user prefill span under serial admission: PrefillDone relative
	// to the previous user's completion (both absolute serve times).
	span := func(out pipeinfer.ServeOutcome, i int) time.Duration {
		if i == 0 {
			return out.Results[0].Stats.PrefillDone
		}
		return out.Results[i].Stats.PrefillDone - out.Results[i-1].Stats.Done
	}
	var coldSum, hitSum time.Duration
	for i := 1; i < sharedUsers; i++ {
		coldSum += span(coldRun, i)
		hitSum += span(warmRun, i)
	}
	coldWait := coldSum / (sharedUsers - 1)
	hitWait := hitSum / (sharedUsers - 1)
	fmt.Printf("\nshared system prompt (%d users, %d-token prompts):\n",
		sharedUsers, len(sharedReqs[0].Prompt))
	fmt.Printf("  prefix cache off: first-token wait %v per user (full prefill every time)\n",
		coldWait.Round(time.Millisecond))
	fmt.Printf("  prefix cache on:  first-token wait %v per user after the cold first (%.1fx faster; %d hits reused %d prompt tokens) — outputs unchanged\n",
		hitWait.Round(time.Millisecond), float64(coldWait)/float64(hitWait),
		warmRun.Stats.PrefixHits, warmRun.Stats.PrefixHitTokens)

	// 10. Overload control: 10 users rush a front door with 2 session
	// slots and an 8-deep admission queue. Users 0-3 are patient (mixed
	// priorities, a far-future completion deadline); users 4-7 carry a
	// TTFT SLO that is already past, so the scheduler sheds them during
	// admission — before a single token of their prompts is prefilled;
	// users 8-9 arrive with the queue at its bound and are refused
	// outright. Every request settles with an explicit outcome: served,
	// shed (ErrServeShed), or refused (ErrServeOverloaded) — never a
	// silent drop — and shedding the doomed load must not perturb the
	// survivors by a bit.
	const overloadUsers = 10
	ovReqs := make([]pipeinfer.ServeRequest, overloadUsers)
	for i := range ovReqs {
		ovReqs[i] = pipeinfer.ServeRequest{
			Prompt: tk.Encode(fmt.Sprintf("user %d asks", i)),
			MaxNew: tokens,
		}
		switch {
		case i < 4:
			ovReqs[i].Priority = i % 3
			ovReqs[i].Deadline = time.Hour
		case i < 8:
			ovReqs[i].TTFTDeadline = time.Nanosecond
		}
	}
	overloaded, err := pipeinfer.Serve(pipeinfer.ServeOptions{
		Nodes:       nodes,
		CFG:         engine.Config{MaxNew: tokens},
		ModelCfg:    cfg,
		Seed:        42,
		MaxSessions: 2,
		MaxQueue:    8,
		Requests:    ovReqs,
	})
	if err != nil {
		log.Fatal(err)
	}
	shed, refused := 0, 0
	for i, res := range overloaded.Results {
		switch {
		case errors.Is(res.Err, pipeinfer.ErrServeShed):
			shed++
		case errors.Is(res.Err, pipeinfer.ErrServeOverloaded):
			refused++
		case res.Err != nil:
			log.Fatalf("user %d settled with an unexpected error: %v", i, res.Err)
		default:
			// Survivors are users 0-3, whose prompts match the step-2 run:
			// shedding around them must leave their streams bit-identical.
			for j, tok := range out.Results[i].Tokens {
				if res.Tokens[j] != tok {
					log.Fatalf("user %d got a different answer under overload shedding", i)
				}
			}
		}
	}
	ost := overloaded.Stats
	fmt.Printf("\noverload burst (%d users over 2 slots, queue bound 8):\n", overloadUsers)
	fmt.Printf("  %d shed on an unmeetable TTFT SLO before any prefill compute, %d refused at the admission bound\n",
		shed, refused)
	fmt.Printf("  survivors: %d/%d deadlines met — outputs unchanged\n",
		ost.DeadlineHits, ost.DeadlineHits+ost.DeadlineMisses)
}
