package main

import (
	"fmt"
	"hash/fnv"

	"github.com/pipeinfer/pipeinfer/internal/backend/realbk"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Fixed across every workload: the topology of every historical
// BENCH_pr*.json (PipeInfer needs a dedicated head plus >= 2 target
// stages to pipeline at all), the model, and its weight seed. Only the
// prompts depend on the workload seed.
const (
	benchNodes  = 3
	benchLayers = 6
	modelSeed   = 13
)

func benchModel() model.Config {
	cfg := model.TinyConfig()
	cfg.NLayers = benchLayers
	return cfg
}

// workload is one traffic mix: how its requests derive from the seed,
// the serving options that stay fixed, and the mechanism it must
// actually exercise to count as correct.
type workload struct {
	name string
	why  string
	tcp  bool // three tcpcomm loopback endpoints instead of chancomm
	// sets is how many distinct request sets a run cycles through (rep i
	// serves set i mod sets). Only solo_pipeinfer needs more than one:
	// its speed depends on how often the draft agrees with the target on
	// the particular prompt, so one prompt per seed would make the run a
	// sample of size one.
	sets int
	// warm is W, the untimed reps of every set-up; sized so set-up takes
	// over a second and is a quantity that can repeat.
	warm int
	// variants and paperTwin mark the one workload the issue scopes the
	// traced run's extra passes to: the registry-only and AutoBatch rep
	// sets, and the paper-scale simbk evaluation.
	variants  bool
	paperTwin bool

	maxNew  int // tokens generated per request
	prompts func(rng *tensor.RNG) [][]token.Token
	options realbk.ServeOptions
	// mechanism fails the run when the workload silently stopped
	// exercising what it exists to exercise, so it cannot get faster that
	// way. st sums the counters of all reps served: counts that follow
	// from the request set alone are checked exactly, timing-dependent
	// ones (one solo rep in a few hundred sees no cancellation) over the
	// run.
	mechanism func(st engine.Stats, reps int) error
}

// randTokens draws n ordinary (non-special) tokens.
func randTokens(rng *tensor.RNG, n int) []token.Token {
	out := make([]token.Token, n)
	for i := range out {
		out[i] = token.Token(token.NumSpecial + rng.Intn(250))
	}
	return out
}

// burst builds n prompts of length base + i mod 3: the lengths are the
// same multiset for every seed, so the work in a rep does not depend on
// the seed — only the token values do.
func burst(n, base int) func(*tensor.RNG) [][]token.Token {
	return func(rng *tensor.RNG) [][]token.Token {
		prompts := make([][]token.Token, n)
		for i := range prompts {
			prompts[i] = randTokens(rng, base+i%3)
		}
		return prompts
	}
}

func workloads() []workload {
	return []workload{
		{
			name: "solo_pipeinfer",
			why:  "the paper's scenario, one request under continuous speculation and early cancellation: engine FIFO/cancel and the serve speculative path do the work; batching, prefix reuse and pressure do none",
			sets: 16, warm: 16, maxNew: 128,
			paperTwin: true,
			prompts:   burst(1, 32),
			options: realbk.ServeOptions{
				Speculate: true, MaxSessions: 1, DraftNoise: 0.01,
			},
			mechanism: func(st engine.Stats, _ int) error {
				if st.Proposed == 0 || st.RunsCancelled == 0 {
					return fmt.Errorf("speculation idle: proposed=%d cancelled=%d", st.Proposed, st.RunsCancelled)
				}
				return nil
			},
		},
		{
			name: "decode_tcp",
			why:  "16 short-prompt sessions decoding over three TCP loopback ranks: the steady state where per-run overhead (serve step, batch composer, codec/FIFO, transact, kvpage placement, tcpcomm) weighs most",
			tcp:  true,
			sets: 1, warm: 4, maxNew: 128,
			variants: true,
			prompts:  burst(16, 4),
			options: realbk.ServeOptions{
				MaxSessions: 16, MaxBatch: 8, PrefillChunk: 64,
			},
		},
		{
			name: "prefill_burst",
			why:  "16 distinct 256-token prompts at once, 16 new tokens: model forward, tensor kernels and kvpage visibility over long contexts dominate; the prefix trie is probed and never hits",
			sets: 1, warm: 3, maxNew: 16,
			prompts: burst(16, 256),
			options: realbk.ServeOptions{
				MaxSessions: 16, MaxBatch: 8, PrefillChunk: 64,
				PrefixCache: true, KVCells: 16*288 + 256, KVPageSize: 16,
			},
			mechanism: func(st engine.Stats, _ int) error {
				if st.PrefixHits != 0 {
					return fmt.Errorf("%d prefix hits on distinct prompts", st.PrefixHits)
				}
				return nil
			},
		},
		{
			name: "shared_prefix",
			why:  "24 requests over 8 slots sharing a 256-token system prompt, fully provisioned KV: prefixcache lookup/publish and kvpage SharePrefix/MapShared refcounting decide TTFT (8 cold prefills, 16 hits per rep)",
			sets: 1, warm: 3, maxNew: 32,
			prompts: func(rng *tensor.RNG) [][]token.Token {
				shared := randTokens(rng, 256)
				prompts := make([][]token.Token, 24)
				for i := range prompts {
					prompts[i] = append(append([]token.Token(nil), shared...), randTokens(rng, 8+i%3)...)
				}
				return prompts
			},
			options: realbk.ServeOptions{
				MaxSessions: 8, MaxBatch: 4, PrefillChunk: 64,
				PrefixCache: true, KVCells: 4096, KVPageSize: 16,
			},
			mechanism: func(st engine.Stats, reps int) error {
				if st.PrefixHits != 16*reps || st.Preemptions != 0 {
					return fmt.Errorf("prefix hits=%d (want 16 in each of %d reps) preemptions=%d (want 0)", st.PrefixHits, reps, st.Preemptions)
				}
				return nil
			},
		},
		{
			name: "kv_pressure",
			why:  "40 requests over 16 slots with about half the KV they need, prefix cache off: kvpage allocate/evict-shard/recompute and the serve pressure ladder run continuously",
			sets: 1, warm: 3, maxNew: 96,
			prompts: burst(40, 12),
			options: realbk.ServeOptions{
				MaxSessions: 16, MaxBatch: 8, PrefillChunk: 64,
				KVCells: 880, KVPageSize: 8,
			},
			mechanism: func(st engine.Stats, _ int) error {
				if st.Preemptions == 0 {
					return fmt.Errorf("no preemptions under half-provisioned KV")
				}
				return nil
			},
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// requestSets derives every request set of a run from (workload, seed)
// and nothing else.
func (w workload) requestSets(seed uint64) [][]serve.Request {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := tensor.NewRNG(tensor.Hash64(seed, h.Sum64()))
	sets := make([][]serve.Request, w.sets)
	for i := range sets {
		for _, p := range w.prompts(rng) {
			sets[i] = append(sets[i], serve.Request{Prompt: p, MaxNew: w.maxNew})
		}
	}
	return sets
}

// serveOptions completes the workload's fixed options for one rep.
func (w workload) serveOptions(reqs []serve.Request) realbk.ServeOptions {
	o := w.options
	o.Nodes = benchNodes
	o.ModelCfg = benchModel()
	o.Seed = modelSeed
	o.CFG = engine.Config{MaxNew: w.maxNew}
	o.Requests = reqs
	return o
}
