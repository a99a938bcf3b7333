package realbk

import (
	"fmt"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// serveModel returns a small target architecture serving tests share.
func serveModel(layers int) model.Config {
	cfg := model.TinyConfig()
	cfg.NLayers = layers
	return cfg
}

// serveRequests builds n requests with distinct prompts of varying length.
func serveRequests(n, maxNew int) []serve.Request {
	reqs := make([]serve.Request, n)
	for i := range reqs {
		p := make([]token.Token, 4+i%3)
		for j := range p {
			p[j] = token.Token(token.NumSpecial + (11*i+7*j)%250)
		}
		reqs[i] = serve.Request{Prompt: p, MaxNew: maxNew}
	}
	return reqs
}

// serveRequestsLen builds n requests with distinct prompts around plen
// tokens (varied a little so chunk boundaries differ per session).
func serveRequestsLen(n, maxNew, plen int) []serve.Request {
	reqs := make([]serve.Request, n)
	for i := range reqs {
		p := make([]token.Token, plen+i%5)
		for j := range p {
			p[j] = token.Token(token.NumSpecial + (11*i+7*j)%250)
		}
		reqs[i] = serve.Request{Prompt: p, MaxNew: maxNew}
	}
	return reqs
}

// TestServeGreedyParity is the serving correctness wall on the real
// backend: every concurrently served session must produce greedy output
// bit-identical to its own serial single-model reference, whatever mix of
// slot counts, namespace widths and speculation the scheduler runs with —
// including slot recycling (more requests than slots) and the full
// 64-sequence bitset.
func TestServeGreedyParity(t *testing.T) {
	const maxNew = 9
	cases := []struct {
		name        string
		nodes       int
		speculate   bool
		maxSessions int
		width       int
		requests    int
	}{
		{"16-concurrent-sessions", 2, false, 16, 1, 16},
		{"recycled-slots", 2, false, 5, 1, 12},
		{"speculative", 3, true, 4, 4, 8},
		{"speculative-full-bitset", 2, true, 16, 4, 16},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			reqs := serveRequests(tc.requests, maxNew)
			cfg := engine.Config{MaxNew: maxNew}
			if tc.speculate {
				// The tiny draft's top-1 confidence is flat (~0.03-0.07);
				// with a near-full pipeline the reactive cutoff decays
				// slowly, so start it below the confidence floor to make
				// speculation engage within a short test run.
				cfg.SpecCutoff = 0.02
			}
			opts := ServeOptions{
				Nodes:          tc.nodes,
				CFG:            cfg,
				ModelCfg:       serveModel(4),
				Seed:           21,
				Speculate:      tc.speculate,
				DraftNoise:     0.01,
				MaxSessions:    tc.maxSessions,
				SeqsPerSession: tc.width,
				Requests:       reqs,
			}
			out, err := Serve(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Results) != tc.requests {
				t.Fatalf("%d results for %d requests", len(out.Results), tc.requests)
			}
			for i, res := range out.Results {
				ref, err := ReferenceGreedy(Options{
					ModelCfg: opts.ModelCfg, Seed: opts.Seed, Prompt: reqs[i].Prompt,
				}, maxNew)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Tokens) != len(ref) {
					t.Fatalf("request %d: %d tokens, want %d", i, len(res.Tokens), len(ref))
				}
				for j := range ref {
					if res.Tokens[j] != ref[j] {
						t.Fatalf("request %d diverged from its serial reference at token %d: %d != %d",
							i, j, res.Tokens[j], ref[j])
					}
				}
				if res.Stats.Generated != maxNew {
					t.Fatalf("request %d generated %d, want %d", i, res.Stats.Generated, maxNew)
				}
			}
			if out.Stats.Generated != tc.requests*maxNew {
				t.Fatalf("aggregate generated %d, want %d", out.Stats.Generated, tc.requests*maxNew)
			}
			if tc.speculate && out.Stats.Proposed == 0 {
				t.Fatal("speculative serving proposed nothing")
			}
		})
	}
}

// TestServeStreamsTokens checks the OnToken streaming callback: every
// session's stream, concatenated in arrival order, equals its final
// output.
func TestServeStreamsTokens(t *testing.T) {
	const maxNew = 6
	reqs := serveRequests(5, maxNew)
	streams := make([][]token.Token, len(reqs))
	opts := ServeOptions{
		Nodes:    2,
		CFG:      engine.Config{MaxNew: maxNew},
		ModelCfg: serveModel(4),
		Seed:     9,
		Requests: reqs,
		OnToken:  func(req int, tok token.Token) { streams[req] = append(streams[req], tok) },
	}
	out, err := Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		if fmt.Sprint(streams[i]) != fmt.Sprint(res.Tokens) {
			t.Fatalf("request %d streamed %v but returned %v", i, streams[i], res.Tokens)
		}
	}
}

// TestServeNamespaceIsolation serves two sessions whose prompts share a
// prefix but diverge, with interleaving guaranteed by single-token
// admission, and checks outputs stay independent — the SeqSet namespace
// contract in action.
func TestServeNamespaceIsolation(t *testing.T) {
	const maxNew = 8
	pa := []token.Token{token.NumSpecial + 1, token.NumSpecial + 2, token.NumSpecial + 3}
	pb := []token.Token{token.NumSpecial + 1, token.NumSpecial + 2, token.NumSpecial + 99}
	reqs := []serve.Request{{Prompt: pa, MaxNew: maxNew}, {Prompt: pb, MaxNew: maxNew}}
	out, err := Serve(ServeOptions{
		Nodes: 2, CFG: engine.Config{MaxNew: maxNew}, ModelCfg: serveModel(4),
		Seed: 4, MaxSessions: 2, Requests: reqs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range [][]token.Token{pa, pb} {
		ref, err := ReferenceGreedy(Options{ModelCfg: serveModel(4), Seed: 4, Prompt: p}, maxNew)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref {
			if out.Results[i].Tokens[j] != ref[j] {
				t.Fatalf("session %d corrupted by its neighbour at token %d", i, j)
			}
		}
	}
}

// TestDraftStreamsInterleaved pins the multi-stream draft cache: a head
// shared by several sessions, proposing for interleaved unrelated
// contexts, must return exactly what dedicated per-context heads would —
// each lineage keeps its own incrementally maintained stream instead of
// thrashing one cache.
func TestDraftStreamsInterleaved(t *testing.T) {
	cfg := serveModel(4)
	m, err := model.New(cfg, 33)
	if err != nil {
		t.Fatal(err)
	}
	newHead := func() *Head {
		d := model.NewDraft(m, 0.02, 33^0xd4af)
		return NewHead(model.NewRunner(d, 512), cfg.VocabSize)
	}
	shared := newHead()
	solo := []*Head{newHead(), newHead(), newHead()}
	ctxs := [][]token.Token{
		{token.NumSpecial + 1, token.NumSpecial + 2},
		{token.NumSpecial + 50},
		{token.NumSpecial + 90, token.NumSpecial + 91, token.NumSpecial + 92},
	}
	for step := 0; step < 6; step++ {
		for c := range ctxs {
			gotT, gotP := shared.Propose(ctxs[c], 2)
			wantT, wantP := solo[c].Propose(ctxs[c], 2)
			for i := range wantT {
				if gotT[i] != wantT[i] || gotP[i] != wantP[i] {
					t.Fatalf("step %d ctx %d: shared head proposed (%v,%v), dedicated head (%v,%v)",
						step, c, gotT, gotP, wantT, wantP)
				}
			}
			ctxs[c] = append(ctxs[c], gotT[0])
		}
	}
}

// TestServeSpeculativeManyRequests is the draft-cache lifecycle
// regression: many long-prompt requests recycled through few speculative
// slots must not exhaust the shared draft runner's cache — completed
// sessions' draft streams are reclaimed by LRU eviction under space
// pressure.
func TestServeSpeculativeManyRequests(t *testing.T) {
	const maxNew = 6
	reqs := make([]serve.Request, 12)
	for i := range reqs {
		p := make([]token.Token, 64)
		for j := range p {
			p[j] = token.Token(token.NumSpecial + (13*i+5*j)%250)
		}
		reqs[i] = serve.Request{Prompt: p, MaxNew: maxNew}
	}
	opts := ServeOptions{
		Nodes:          3,
		CFG:            engine.Config{MaxNew: maxNew, SpecCutoff: 0.02},
		ModelCfg:       serveModel(4),
		Seed:           8,
		Speculate:      true,
		DraftNoise:     0.01,
		MaxSessions:    2,
		SeqsPerSession: 2,
		Requests:       reqs,
	}
	out, err := Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		ref, err := ReferenceGreedy(Options{
			ModelCfg: opts.ModelCfg, Seed: opts.Seed, Prompt: reqs[i].Prompt,
		}, maxNew)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref {
			if res.Tokens[j] != ref[j] {
				t.Fatalf("request %d diverged at token %d", i, j)
			}
		}
	}
}

// TestDraftStreamsNoPrefixThrash pins stream selection: contexts sharing
// only a token of prefix must get their own streams rather than
// repeatedly rolling one stream back to the shared token.
func TestDraftStreamsNoPrefixThrash(t *testing.T) {
	cfg := serveModel(4)
	m, err := model.New(cfg, 44)
	if err != nil {
		t.Fatal(err)
	}
	d := model.NewDraft(m, 0.02, 44^0xd4af)
	h := NewHead(model.NewRunner(d, 512), cfg.VocabSize)
	a := []token.Token{token.BOS, token.NumSpecial + 10, token.NumSpecial + 11, token.NumSpecial + 12}
	bb := []token.Token{token.BOS, token.NumSpecial + 80, token.NumSpecial + 81, token.NumSpecial + 82}
	for step := 0; step < 4; step++ {
		ta, _ := h.Propose(a, 1)
		tb, _ := h.Propose(bb, 1)
		a = append(a, ta[0])
		bb = append(bb, tb[0])
	}
	if len(h.streams) != 2 {
		t.Fatalf("two lineages sharing one BOS token use %d streams, want 2", len(h.streams))
	}
	// Each stream's evaluated context must extend one of the lineages.
	for i := range h.streams {
		ev := h.streams[i].evaluated
		if commonLen(ev, a) != len(ev) && commonLen(ev, bb) != len(ev) {
			t.Fatalf("stream %d holds a context matching neither lineage", i)
		}
	}
}

// TestServeOversubscribedParity is the PR-3 memory-pressure acceptance
// gate: the per-stage KV cache is sized for roughly half the concurrent
// sessions, so completing all 16 requires the full eviction protocol —
// speculative drops, preempting idle sessions (OpEvictShard down the
// pipeline), parking, and prefix-recompute readmission — and every
// session must still be bit-identical to its serial greedy reference.
func TestServeOversubscribedParity(t *testing.T) {
	const maxNew = 8
	reqs := serveRequests(16, maxNew)
	// One VIP request: a session never preempts a higher-priority one, so
	// the VIP must finish without ever being parked.
	const vip = 3
	reqs[vip].Priority = 1
	// Footprint per session: prompt (4-6) + 8 generated ≈ 12-14 cells = 2
	// pages of 8. Full provisioning would need 16 sessions x 2 pages; 16
	// pages (128 cells) fit ~8.
	opts := ServeOptions{
		Nodes:       2,
		CFG:         engine.Config{MaxNew: maxNew},
		ModelCfg:    serveModel(4),
		Seed:        21,
		MaxSessions: 16,
		KVCells:     128,
		KVPageSize:  8,
		Requests:    reqs,
	}
	preempted := make(map[int]bool)
	opts.OnPreempt = func(req int) { preempted[req] = true }
	out, err := Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		ref, err := ReferenceGreedy(Options{
			ModelCfg: opts.ModelCfg, Seed: opts.Seed, Prompt: reqs[i].Prompt,
		}, maxNew)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tokens) != len(ref) {
			t.Fatalf("request %d: %d tokens, want %d", i, len(res.Tokens), len(ref))
		}
		for j := range ref {
			if res.Tokens[j] != ref[j] {
				t.Fatalf("request %d diverged from its serial reference at token %d (preempted=%v)",
					i, j, preempted[i])
			}
		}
	}
	if out.Stats.Preemptions == 0 {
		t.Fatal("oversubscribed serving finished without a single preemption — pressure never engaged")
	}
	if out.Stats.Readmissions == 0 {
		t.Fatal("preempted sessions finished without readmission")
	}
	if out.Stats.Readmissions < out.Stats.Preemptions {
		t.Fatalf("%d preemptions but only %d readmissions — a parked session leaked",
			out.Stats.Preemptions, out.Stats.Readmissions)
	}
	if preempted[vip] {
		t.Fatal("the high-priority request was preempted by lower-priority work")
	}
	if out.Results[vip].Stats.Preemptions != 0 {
		t.Fatal("the high-priority session recorded a preemption")
	}
}

// TestServeSharedPrefixParity is the PR-9 acceptance gate on the real
// backend: 16 requests sharing a 48-token system prompt — plus requests
// that diverge halfway through it and fully cold outliers — recycled
// through 4 slots over an undersized KV cache with the prefix cache on.
// Later admissions and prefix-recompute readmissions map the published
// system prompt read-only instead of recomputing it, KV pressure and
// trie eviction compose, and every session must still be bit-identical
// to its serial greedy reference (cold and hit sessions alike).
//
// That sharing and pressure both engage is arithmetic, not interleaving:
// the first twelve requests are short (8 tokens) and the cache holds any
// four of them, the last four are long (62) and it cannot hold those.
// The cache is 32 pages of 8 cells. The first four requests — admitted
// together, the trie empty, all cold — finish in 8 + 8 + 8 + 5 pages, and
// the fifth, a 3-page cold prompt, takes the first slot they free: 32, so
// no launch has wanted for room, nothing has been evicted from the trie,
// and the sixth — the system prompt again, published when the first
// prefill of it completed, before any session could finish — maps it: a
// hit. The last four end up alone. Each still has to write its suffix and
// 61 evaluated tokens, 9 pages of its own, beside the pinned 6-page
// system prompt: 42 pages. A session has one decode step in flight at a
// time and results return in launch order, so the four advance in step,
// and the pages run out with every one of them two or more short: some
// session is parked before any finishes. (A parked prefix, 15 pages at
// most, always finds room once the others are done: the trie pins at
// most the system prompt, its 3-page half and three 1-page cold prompts.)
func TestServeSharedPrefixParity(t *testing.T) {
	const (
		short     = 8
		long      = 62
		sharedLen = 48
		requests  = 16
	)
	shared := make([]token.Token, sharedLen)
	for j := range shared {
		shared[j] = token.Token(token.NumSpecial + (5*j+3)%250)
	}
	reqs := make([]serve.Request, requests)
	for i := range reqs {
		var p []token.Token
		switch {
		case i%5 == 4:
			// Fully cold: no shared prefix at all.
			p = make([]token.Token, 10)
			for j := range p {
				p[j] = token.Token(token.NumSpecial + (17*i+13*j+1)%250)
			}
		case i%5 == 3:
			// Diverges halfway through the system prompt: a partial
			// block-aligned hit against the full published entry.
			p = append(p, shared[:sharedLen/2]...)
			for j := 0; j < 6; j++ {
				p = append(p, token.Token(token.NumSpecial+(11*i+7*j+2)%250))
			}
		default:
			// Full system prompt plus a distinct user suffix.
			p = append(p, shared...)
			for j := 0; j < 4+i%3; j++ {
				p = append(p, token.Token(token.NumSpecial+(11*i+7*j)%250))
			}
		}
		reqs[i] = serve.Request{Prompt: p, MaxNew: short}
		if i >= requests-4 {
			reqs[i].MaxNew = long
		}
	}
	for _, tc := range []struct {
		name  string
		batch int
		chunk int
	}{
		{"solo", 0, 0},
		{"chunked-batched", 4, 16},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opts := ServeOptions{
				Nodes:        2,
				CFG:          engine.Config{MaxNew: long},
				ModelCfg:     serveModel(4),
				Seed:         21,
				MaxSessions:  4,
				MaxBatch:     tc.batch,
				PrefillChunk: tc.chunk,
				KVCells:      256,
				KVPageSize:   8,
				PrefixCache:  true,
				Requests:     reqs,
			}
			out, err := Serve(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range out.Results {
				ref, err := ReferenceGreedy(Options{
					ModelCfg: opts.ModelCfg, Seed: opts.Seed, Prompt: reqs[i].Prompt,
				}, reqs[i].MaxNew)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Tokens) != len(ref) {
					t.Fatalf("request %d: %d tokens, want %d", i, len(res.Tokens), len(ref))
				}
				for j := range ref {
					if res.Tokens[j] != ref[j] {
						t.Fatalf("request %d diverged from its serial reference at token %d (prefix hits %d)",
							i, j, res.Stats.PrefixHits)
					}
				}
			}
			if out.Stats.PrefixHits == 0 {
				t.Fatal("the sixth request found the system prompt published and the trie untouched, yet nothing was mapped")
			}
			if out.Stats.PrefixHitTokens < 8*out.Stats.PrefixHits {
				t.Fatalf("%d prefix hits skipped only %d tokens — hits below page granularity",
					out.Stats.PrefixHits, out.Stats.PrefixHitTokens)
			}
			if out.Stats.Preemptions == 0 || out.Stats.Readmissions < out.Stats.Preemptions {
				t.Fatalf("the last four requests cannot finish side by side, yet: %d preemptions, %d readmissions",
					out.Stats.Preemptions, out.Stats.Readmissions)
			}
		})
	}
}

// TestServeSharedPrefixTightKV is bench/README.md known issue (f) as a
// regression test: 24 requests sharing a 256-token system prompt over 8
// slots and a cache of 32 pages, which the prompt's 16 published pages
// take half of. Once only parked sessions remain, what stands between
// them and readmission is the trie's unreferenced entries, and nothing in
// the ordinary passes evicts those for a parked session; the scheduler
// used to report a stall (a hang, before Serve learnt to return a head
// error). It must finish, every stream equal to its reference.
func TestServeSharedPrefixTightKV(t *testing.T) {
	const maxNew = 32
	shared := make([]token.Token, 256)
	for j := range shared {
		shared[j] = token.Token(token.NumSpecial + (5*j+3)%250)
	}
	reqs := make([]serve.Request, 24)
	for i := range reqs {
		p := append([]token.Token(nil), shared...)
		for j := 0; j < 8+i%3; j++ {
			p = append(p, token.Token(token.NumSpecial+(11*i+7*j)%250))
		}
		reqs[i] = serve.Request{Prompt: p, MaxNew: maxNew}
	}
	opts := ServeOptions{
		Nodes:        3,
		CFG:          engine.Config{MaxNew: maxNew},
		ModelCfg:     serveModel(3),
		Seed:         21,
		MaxSessions:  8,
		MaxBatch:     4,
		PrefillChunk: 64,
		KVCells:      512,
		KVPageSize:   16,
		PrefixCache:  true,
		Requests:     reqs,
	}
	out, err := Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		ref, err := ReferenceGreedy(Options{
			ModelCfg: opts.ModelCfg, Seed: opts.Seed, Prompt: reqs[i].Prompt,
		}, maxNew)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Tokens) != fmt.Sprint(ref) {
			t.Fatalf("request %d diverged from its serial reference (prefix hits %d, preemptions %d)",
				i, res.Stats.PrefixHits, res.Stats.Preemptions)
		}
	}
	if out.Stats.Preemptions == 0 {
		t.Fatal("eight 18-page sessions over 32 pages finished without a preemption")
	}
}

// TestServeOversubscribedSpeculative runs the pressure protocol with
// per-session speculation: speculative pages are reclaimed first
// (OpDropSpec), sessions still park and readmit, and parity still holds.
//
// That pressure engages is arithmetic, not interleaving. The cache is 8
// pages of 8 cells; a prompt (4-6 tokens) takes one page and a finished
// stream (prompt + 57 evaluated tokens = 61-63 cells) all 8. The
// round-robin cursor launches a second session's prefill before any
// session's second run, so two sessions hold a page each from then on —
// and neither can reach its eighth page while the other holds one. Some
// session has to be parked before any can finish, however the ranks
// interleave and however many tokens a speculative run accepts.
func TestServeOversubscribedSpeculative(t *testing.T) {
	const maxNew = 58
	reqs := serveRequests(8, maxNew)
	opts := ServeOptions{
		Nodes:          3,
		CFG:            engine.Config{MaxNew: maxNew, SpecCutoff: 0.02},
		ModelCfg:       serveModel(4),
		Seed:           21,
		Speculate:      true,
		DraftNoise:     0.01,
		MaxSessions:    8,
		SeqsPerSession: 2,
		KVCells:        64,
		KVPageSize:     8,
		Requests:       reqs,
	}
	out, err := Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		ref, err := ReferenceGreedy(Options{
			ModelCfg: opts.ModelCfg, Seed: opts.Seed, Prompt: reqs[i].Prompt,
		}, maxNew)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref {
			if res.Tokens[j] != ref[j] {
				t.Fatalf("request %d diverged at token %d under speculative pressure", i, j)
			}
		}
	}
	if out.Stats.Preemptions == 0 {
		t.Fatal("every session finished inside a cache that cannot hold one finished stream beside another's prompt, yet none was ever parked")
	}
}
