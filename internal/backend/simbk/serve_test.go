package simbk

import (
	"fmt"
	"slices"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// TestSimServeGreedyParity is the serving correctness wall at paper
// scale: 16 concurrent sessions multiplexed over a simulated cluster must
// each reproduce their own oracle target stream bit for bit, with and
// without per-session speculation, including slot recycling.
func TestSimServeGreedyParity(t *testing.T) {
	const maxNew = 24
	cases := []struct {
		name        string
		nodes       int
		speculate   bool
		sessions    int
		maxSessions int
		width       int
	}{
		{"16-concurrent-sessions", 4, false, 16, 16, 1},
		{"speculative-16", 4, true, 16, 16, 4},
		{"speculative-recycled-slots", 5, true, 10, 4, 4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opts := ServeOptions{
				Cluster:        cost.ClusterC().Take(tc.nodes),
				Pair:           cost.CPUPairs()[0],
				CFG:            engine.Config{MaxNew: maxNew},
				Sessions:       tc.sessions,
				PromptLen:      12,
				Seed:           5,
				Speculate:      tc.speculate,
				MaxSessions:    tc.maxSessions,
				SeqsPerSession: tc.width,
			}
			out, err := Serve(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Results) != tc.sessions {
				t.Fatalf("%d results for %d sessions", len(out.Results), tc.sessions)
			}
			for i, res := range out.Results {
				ref := ServeReference(opts, i, maxNew)
				if len(res.Tokens) != len(ref) {
					t.Fatalf("session %d: %d tokens, want %d", i, len(res.Tokens), len(ref))
				}
				for j := range ref {
					if res.Tokens[j] != ref[j] {
						t.Fatalf("session %d deviated from its oracle stream at token %d", i, j)
					}
				}
			}
			if out.Stats.Generated != tc.sessions*maxNew {
				t.Fatalf("aggregate generated %d, want %d", out.Stats.Generated, tc.sessions*maxNew)
			}
			if tc.speculate {
				if out.Stats.Proposed == 0 {
					t.Fatal("speculative serving proposed nothing")
				}
				if out.Stats.Accepted == 0 {
					t.Fatal("speculative serving accepted nothing")
				}
			}
		})
	}
}

// TestSimServeDistinctStreams guards the per-session prompt derivation:
// different sessions must generate different sequences.
func TestSimServeDistinctStreams(t *testing.T) {
	opts := ServeOptions{
		Cluster:  cost.ClusterC().Take(3),
		Pair:     cost.CPUPairs()[0],
		CFG:      engine.Config{MaxNew: 8},
		Sessions: 3, PromptLen: 8, Seed: 11,
	}
	out, err := Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(out.Results); i++ {
		for j := i + 1; j < len(out.Results); j++ {
			eq := true
			for k := range out.Results[i].Tokens {
				if out.Results[i].Tokens[k] != out.Results[j].Tokens[k] {
					eq = false
					break
				}
			}
			if eq {
				t.Fatalf("sessions %d and %d produced identical streams", i, j)
			}
		}
	}
}

// TestSimServeThroughputBeatsSerial checks the pipeline-fill win in
// virtual time, where it is exact: serving N sessions concurrently must
// finish in less virtual time than N back-to-back single-request runs of
// the same requests.
func TestSimServeThroughputBeatsSerial(t *testing.T) {
	const maxNew = 24
	const sessions = 4
	opts := ServeOptions{
		Cluster:  cost.ClusterC().Take(4),
		Pair:     cost.CPUPairs()[0],
		CFG:      engine.Config{MaxNew: maxNew},
		Sessions: sessions, PromptLen: 16, Seed: 3,
	}
	out, err := Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	served := out.Stats.Done

	single, err := Run(Options{
		Cluster: opts.Cluster, Pair: opts.Pair,
		Strategy:  engine.StrategyIterative,
		CFG:       engine.Config{MaxNew: maxNew},
		PromptLen: 16, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	serial := 4 * single.Stats.Done
	if served >= serial {
		t.Fatalf("serving %d sessions took %v, serial %d runs take %v — no pipeline-fill win",
			sessions, served, sessions, serial)
	}
}

// TestSimServeOversubscribed runs the memory-pressure protocol at paper
// scale: a KV cache sized for roughly half the 16 tenants forces
// eviction, parking and prefix-recompute readmission in the simulator,
// and every session must still reproduce its oracle stream exactly.
func TestSimServeOversubscribed(t *testing.T) {
	const maxNew = 24
	opts := ServeOptions{
		Cluster:     cost.ClusterC().Take(4),
		Pair:        cost.CPUPairs()[0],
		CFG:         engine.Config{MaxNew: maxNew},
		Sessions:    16,
		PromptLen:   12,
		Seed:        5,
		MaxSessions: 16,
		KVCells:     320,
		KVPageSize:  8,
	}
	out, err := Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		ref := ServeReference(opts, i, maxNew)
		if len(res.Tokens) != len(ref) {
			t.Fatalf("session %d: %d tokens, want %d", i, len(res.Tokens), len(ref))
		}
		for j := range ref {
			if res.Tokens[j] != ref[j] {
				t.Fatalf("session %d deviated from its oracle stream at token %d", i, j)
			}
		}
	}
	if out.Stats.Preemptions == 0 || out.Stats.Readmissions == 0 {
		t.Fatalf("oversubscribed sim serving recorded %d preemptions / %d readmissions — pressure never engaged",
			out.Stats.Preemptions, out.Stats.Readmissions)
	}
}

// TestSimServeOversubscribedSpeculative is the speculative side of the
// memory-pressure protocol at paper scale: 16 speculating tenants, each
// needing 36 cells (five pages) for its prompt and stream, over 8 slots
// in 160 cells and over 16 slots in 256. Pressure must reclaim
// speculative pages (OpDropSpec, the protocol's first rung) and park
// sessions, and every session must still reproduce its oracle stream
// exactly; the stages' visibility check fails the serve if a chain ever
// reaches them ahead of the decode row re-evaluating a reclaimed token.
// Virtual time makes the counts deterministic.
func TestSimServeOversubscribedSpeculative(t *testing.T) {
	const maxNew = 24
	for _, tc := range []struct{ slots, cells int }{{8, 160}, {16, 256}} {
		opts := ServeOptions{
			Cluster:     cost.ClusterC().Take(4),
			Pair:        cost.CPUPairs()[0],
			CFG:         engine.Config{MaxNew: maxNew},
			Sessions:    16,
			PromptLen:   12,
			Seed:        5,
			Speculate:   true,
			MaxSessions: tc.slots,
			KVCells:     tc.cells,
			KVPageSize:  8,
		}
		out, err := Serve(opts)
		if err != nil {
			t.Fatalf("%d slots, %d cells: %v", tc.slots, tc.cells, err)
		}
		for i, res := range out.Results {
			ref := ServeReference(opts, i, maxNew)
			if len(res.Tokens) != len(ref) {
				t.Fatalf("%d slots, %d cells: session %d: %d tokens, want %d", tc.slots, tc.cells, i, len(res.Tokens), len(ref))
			}
			for j := range ref {
				if res.Tokens[j] != ref[j] {
					t.Fatalf("%d slots, %d cells: session %d deviated from its oracle stream at token %d", tc.slots, tc.cells, i, j)
				}
			}
		}
		if out.Stats.SpecDrops == 0 || out.Stats.Preemptions == 0 {
			t.Fatalf("%d slots, %d cells: %d spec drops / %d preemptions — the pressure protocol's speculative rung never engaged",
				tc.slots, tc.cells, out.Stats.SpecDrops, out.Stats.Preemptions)
		}
	}
}

// TestSimServeTightPrefixSpeculative: speculation with the prefix cache
// on over a tight cache. 16 speculating sessions with 64-token prompts
// decode 48 tokens each through 4 slots on 3 nodes in 448, 512 and 640
// cells of 8-cell pages; completed prompts are published as shared pages.
// Every session must reproduce its oracle stream, and Serve's end-state
// check requires every stage cache to drain. A stage that skipped
// placement for the rows its own view of the cancel stream had masked
// laid its shards out over other pages than the head's shadow, and ran
// out of pages the shadow counted as free ("stage cache exhausted").
func TestSimServeTightPrefixSpeculative(t *testing.T) {
	const maxNew = 48
	for _, cells := range []int{448, 512, 640} {
		opts := ServeOptions{
			Cluster:     cost.ClusterC().Take(3),
			Pair:        cost.CPUPairs()[0],
			CFG:         engine.Config{MaxNew: maxNew},
			Sessions:    16,
			PromptLen:   64,
			Seed:        7,
			Speculate:   true,
			MaxSessions: 4,
			KVCells:     cells,
			KVPageSize:  8,
			PrefixCache: true,
		}
		out, err := Serve(opts)
		if err != nil {
			t.Fatalf("%d cells: %v", cells, err)
		}
		for i, res := range out.Results {
			if ref := ServeReference(opts, i, maxNew); !slices.Equal(res.Tokens, ref) {
				t.Fatalf("%d cells: session %d served %v, want its oracle stream %v", cells, i, res.Tokens, ref)
			}
		}
	}
}

// TestSimServeSharedPrefixParity is the PR-9 acceptance gate at paper
// scale: 16 tenants sharing a 64-token system prompt recycled through 4
// slots with the prefix cache on, plain over a half-provisioned KV cache
// and speculative. Later admissions map the published system prompt
// read-only instead of recomputing it, and every session must still
// reproduce its oracle stream bit for bit.
func TestSimServeSharedPrefixParity(t *testing.T) {
	const maxNew = 24
	cases := []struct {
		name      string
		speculate bool
		width     int
		kvCells   int
	}{
		// Per-session footprint: 64 shared + 8 suffix + 24 generated = 96
		// cells. 320 cells force preemption while the shared prompt's 8
		// pinned pages stay mapped; the speculative case gets headroom for
		// draft footprints instead.
		{"pressure", false, 1, 320},
		{"speculative", true, 4, 768},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opts := ServeOptions{
				Cluster:         cost.ClusterC().Take(4),
				Pair:            cost.CPUPairs()[0],
				CFG:             engine.Config{MaxNew: maxNew},
				Sessions:        16,
				PromptLen:       8,
				SharedPromptLen: 64,
				Seed:            5,
				Speculate:       tc.speculate,
				MaxSessions:     4,
				SeqsPerSession:  tc.width,
				KVCells:         tc.kvCells,
				KVPageSize:      8,
				PrefixCache:     true,
			}
			out, err := Serve(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range out.Results {
				ref := ServeReference(opts, i, maxNew)
				if len(res.Tokens) != len(ref) {
					t.Fatalf("session %d: %d tokens, want %d", i, len(res.Tokens), len(ref))
				}
				for j := range ref {
					if res.Tokens[j] != ref[j] {
						t.Fatalf("session %d deviated from its oracle stream at token %d (prefix hits %d)",
							i, j, res.Stats.PrefixHits)
					}
				}
			}
			if out.Stats.PrefixHits == 0 {
				t.Fatal("shared-prompt tenants recycled through few slots recorded no prefix hits")
			}
			if !tc.speculate && (out.Stats.Preemptions == 0 || out.Stats.Readmissions == 0) {
				t.Fatalf("half-provisioned sim serving recorded %d preemptions / %d readmissions — pressure never composed with sharing",
					out.Stats.Preemptions, out.Stats.Readmissions)
			}
			if tc.speculate && out.Stats.Proposed == 0 {
				t.Fatal("speculative shared-prefix serving proposed nothing")
			}
		})
	}
}

// TestSimServeSharedPrefixSweep walks TestSimServeSharedPrefixParity's
// shape down through every cache size from generous to the one request it
// must at least hold, at widths 1 and 4: every configuration terminates
// with every stream equal to its oracle (and, Serve's own end-state check,
// every stage drained). Sixteen of the 78 used to end in "scheduler
// stalled". Fifteen were parked sessions waiting for room that only the
// trie's unreferenced entries could give up. The sixteenth is KVCells 96 at
// width 1, where the cache holds exactly one request (72-token prompt + 24
// new = 12 pages): request 4 maps the 8 shared pages of the entry request 3
// published, which runs one page deeper — request 3's own suffix page — and
// the registry pins that page for as long as request 4 references the
// entry, so request 4 holds 11 pages, needs its twelfth, and is itself what
// keeps it taken.
func TestSimServeSharedPrefixSweep(t *testing.T) {
	const maxNew = 24
	opts := ServeOptions{
		Cluster:         cost.ClusterC().Take(4),
		Pair:            cost.CPUPairs()[0],
		CFG:             engine.Config{MaxNew: maxNew},
		Sessions:        16,
		PromptLen:       8,
		SharedPromptLen: 64,
		Seed:            5,
		MaxSessions:     4,
		KVPageSize:      8,
		PrefixCache:     true,
	}
	refs := make([][]token.Token, opts.Sessions)
	for i := range refs {
		refs[i] = ServeReference(opts, i, maxNew)
	}
	for _, opts.MaxBatch = range []int{1, 4} {
		for opts.KVCells = 96; opts.KVCells <= 400; opts.KVCells += 8 {
			out, err := Serve(opts)
			if err != nil {
				t.Errorf("width %d, %d cells: %v", opts.MaxBatch, opts.KVCells, err)
				continue
			}
			for i, res := range out.Results {
				if !slices.Equal(res.Tokens, refs[i]) {
					t.Errorf("width %d, %d cells: session %d deviated from its oracle stream (%d preemptions, %d prefix hits)",
						opts.MaxBatch, opts.KVCells, i, out.Stats.Preemptions, out.Stats.PrefixHits)
				}
			}
		}
	}
}

// TestSimServeBatchedGreedyParity is the PR-4 acceptance gate at paper
// scale: sessions multiplexed with cross-session batching enabled must
// each reproduce their oracle stream bit for bit — plain and speculative,
// and composed with the memory-pressure protocol (oversubscribed KV).
func TestSimServeBatchedGreedyParity(t *testing.T) {
	const maxNew = 24
	cases := []struct {
		name        string
		nodes       int
		speculate   bool
		sessions    int
		maxSessions int
		width       int
		maxBatch    int
		kvCells     int
		kvPage      int
		promptLen   int // 0 = the short default (12)
		chunk       int // chunked cross-session prefill budget
		autoBatch   bool
	}{
		{name: "16-sessions-batch-4", nodes: 4, sessions: 16, maxSessions: 16, width: 1, maxBatch: 4},
		{name: "speculative-batch-4", nodes: 4, speculate: true, sessions: 8, maxSessions: 8, width: 4, maxBatch: 4},
		{name: "oversubscribed-batch-4", nodes: 4, sessions: 16, maxSessions: 16, width: 1, maxBatch: 4, kvCells: 320, kvPage: 8},
		// Chunked cross-session prefill (PR 5) at paper scale: long
		// prompts split into 16-token chunks riding with decode rows,
		// plain, speculative and with the adaptive width controller.
		{name: "chunked-prefill-batch-4", nodes: 4, sessions: 8, maxSessions: 8, width: 1, maxBatch: 4, promptLen: 96, chunk: 16},
		{name: "chunked-prefill-speculative", nodes: 4, speculate: true, sessions: 6, maxSessions: 6, width: 4, maxBatch: 4, promptLen: 64, chunk: 16},
		{name: "auto-width-chunked", nodes: 4, sessions: 8, maxSessions: 8, width: 1, maxBatch: 8, promptLen: 96, chunk: 16, autoBatch: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			promptLen := 12
			if tc.promptLen > 0 {
				promptLen = tc.promptLen
			}
			opts := ServeOptions{
				Cluster:        cost.ClusterC().Take(tc.nodes),
				Pair:           cost.CPUPairs()[0],
				CFG:            engine.Config{MaxNew: maxNew},
				Sessions:       tc.sessions,
				PromptLen:      promptLen,
				Seed:           5,
				Speculate:      tc.speculate,
				MaxSessions:    tc.maxSessions,
				SeqsPerSession: tc.width,
				MaxBatch:       tc.maxBatch,
				KVCells:        tc.kvCells,
				KVPageSize:     tc.kvPage,
				PrefillChunk:   tc.chunk,
				AutoBatch:      tc.autoBatch,
			}
			out, err := Serve(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range out.Results {
				ref := ServeReference(opts, i, maxNew)
				if len(res.Tokens) != len(ref) {
					t.Fatalf("session %d: %d tokens, want %d", i, len(res.Tokens), len(ref))
				}
				for j := range ref {
					if res.Tokens[j] != ref[j] {
						t.Fatalf("session %d deviated from its oracle stream at token %d under batching", i, j)
					}
				}
			}
			if out.Stats.BatchedRuns == 0 {
				t.Fatal("batching enabled but no multi-session run was launched")
			}
			if tc.kvCells > 0 && out.Stats.Preemptions == 0 {
				t.Fatal("oversubscribed batched serving never engaged the pressure protocol")
			}
			if tc.chunk > 0 && out.Stats.PrefillBatchedRuns == 0 {
				t.Fatal("chunked prefill enabled but no chunk run was launched")
			}
		})
	}
}

// TestSimServeBatchedFasterThanUnbatched checks the amortisation win in
// exact virtual time: serving the same 16-session workload with batch 4
// must finish sooner than one-run-per-session serving, because per-run
// wire headers and stage wakeups are paid once per batch.
func TestSimServeBatchedFasterThanUnbatched(t *testing.T) {
	const maxNew = 24
	base := ServeOptions{
		Cluster:     cost.ClusterC().Take(4),
		Pair:        cost.CPUPairs()[0],
		CFG:         engine.Config{MaxNew: maxNew},
		Sessions:    16,
		PromptLen:   12,
		Seed:        7,
		MaxSessions: 16,
	}
	plain, err := Serve(base)
	if err != nil {
		t.Fatal(err)
	}
	batched := base
	batched.MaxBatch = 4
	fast, err := Serve(batched)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Stats.Done >= plain.Stats.Done {
		t.Fatalf("batched serving took %v virtual, unbatched %v — no amortisation win",
			fast.Stats.Done, plain.Stats.Done)
	}
}

// specWatch wraps the head's endpoint and keeps, per session, the number
// of its speculative runs between launch and result: every run leaves the
// head as a run frame, which starts with its message, and comes back as a
// result frame carrying its ID.
type specWatch struct {
	comm.Endpoint
	riders  map[uint32][]uint16 // speculative run ID -> sessions riding it
	live    map[uint16]int
	maxLive int
	deepest int // longest chain segment launched
}

func (w *specWatch) Send(dst int, tag comm.Tag, payload []byte, wire int) {
	if tag == comm.TagRun && engine.FrameOpOf(payload) == engine.OpRun {
		msg, err := engine.DecodeRunMsg(payload)
		if err != nil {
			panic(err)
		}
		if msg.Kind == engine.KindSpec {
			for lo, hi := range msg.Groups() {
				s := msg.RowSession(lo)
				w.riders[msg.ID] = append(w.riders[msg.ID], s)
				w.live[s]++
				w.maxLive = max(w.maxLive, w.live[s])
				w.deepest = max(w.deepest, hi-lo)
			}
		}
	}
	w.Endpoint.Send(dst, tag, payload, wire)
}

func (w *specWatch) Recv(src int, tag comm.Tag) []byte {
	p := w.Endpoint.Recv(src, tag)
	if tag == comm.TagResult {
		f, err := engine.ParseResult(p)
		if err != nil {
			panic(err)
		}
		for _, s := range w.riders[f.ID] {
			w.live[s]--
		}
		delete(w.riders, f.ID)
	}
	return p
}

// TestSimServeDisableContinuous is the paper's Fig 8 ablation on the
// serving stack: with engine.Config.DisableContinuous a session drafts one
// large batch at a time — four micro-batches deep — and nothing more until
// that run is back, so it never has two speculative runs in the pipeline;
// left continuous it does, which is what shows the watch can see one. A
// mechanism check, not a speed ordering; streams equal their oracle
// either way.
func TestSimServeDisableContinuous(t *testing.T) {
	const maxNew = 32
	for _, sessions := range []int{1, 4} {
		for _, ablate := range []bool{false, true} {
			w := &specWatch{riders: map[uint32][]uint16{}, live: map[uint16]int{}}
			opts := ServeOptions{
				Cluster:     cost.ClusterC().Take(4),
				Pair:        cost.CPUPairs()[0],
				CFG:         engine.Config{MaxNew: maxNew, DisableContinuous: ablate},
				Sessions:    sessions,
				PromptLen:   12,
				Seed:        5,
				Speculate:   true,
				MaxSessions: sessions,
				MaxBatch:    sessions,
				WrapEndpoint: func(rank int, ep comm.Endpoint) comm.Endpoint {
					if rank != 0 {
						return ep
					}
					w.Endpoint = ep
					return w
				},
			}
			out, err := Serve(opts)
			if err != nil {
				t.Fatalf("%d sessions, ablation %v: %v", sessions, ablate, err)
			}
			for i, res := range out.Results {
				if !slices.Equal(res.Tokens, ServeReference(opts, i, maxNew)) {
					t.Fatalf("%d sessions, ablation %v: session %d deviated from its oracle stream", sessions, ablate, i)
				}
			}
			micro := opts.CFG.Defaults().MicroBatch
			switch {
			case ablate && (w.maxLive != 1 || w.deepest <= micro):
				t.Errorf("%d sessions, one batch at a time: up to %d speculative runs of one session in flight, deepest batch %d (micro-batch %d)",
					sessions, w.maxLive, w.deepest, micro)
			case !ablate && (w.maxLive < 2 || w.deepest > micro):
				t.Errorf("%d sessions, continuous: up to %d speculative runs of one session in flight, deepest batch %d (micro-batch %d)",
					sessions, w.maxLive, w.deepest, micro)
			}
		}
	}
}

// TestSimServeIterativeHeadHoldsNoDraft: a serve without speculation hosts
// no draft model (§V-B), so its head, stage 0 of an even four-way split,
// is charged exactly what every other stage is — its worker's shard and
// cache.
func TestSimServeIterativeHeadHoldsNoDraft(t *testing.T) {
	out, err := Serve(ServeOptions{
		Cluster:  cost.ClusterC().Take(4),
		Pair:     cost.CPUPairs()[0], // 80 layers: 20 a stage
		CFG:      engine.Config{MaxNew: 8},
		Sessions: 2, PromptLen: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, m := range out.PerNodeMem {
		if m != out.PerNodeMem[1] {
			t.Fatalf("rank %d holds %d bytes, stage rank 1 holds %d: %v", r, m, out.PerNodeMem[1], out.PerNodeMem)
		}
	}
}

// nsCheckEP is the head's endpoint in TestSimServeOpsStayInNamespace: it
// decodes every KV frame and every run frame's KV ops the head sends and
// holds each op to the namespace contract. It panics on a violation, in
// the head's Send: an op that leaves its namespace corrupts another
// session's cells, and the stage that evaluates that session next would
// otherwise panic first, with no word of the op.
type nsCheckEP struct {
	comm.Endpoint
	width int
	kinds map[kvcache.OpKind]int
	run   engine.RunMsg
	ops   []kvcache.Op
}

func (e *nsCheckEP) Send(dst int, tag comm.Tag, p []byte, wire int) {
	if tag == comm.TagRun {
		var err error
		body := p[:len(p)-1]
		switch engine.FrameOpOf(p) {
		case engine.OpKV:
			e.ops, err = kvcache.AppendDecodeOps(e.ops[:0], body)
		case engine.OpRun:
			err = e.run.Decode(body)
			e.ops = append(e.ops[:0], e.run.KVOps...)
		default:
			e.ops = e.ops[:0]
		}
		if err != nil {
			panic(fmt.Sprintf("the head sent a frame its stages cannot decode: %v", err))
		}
		// A run carries one session (MaxBatch 1), so a frame is one
		// session's: its first op names the namespace every op of the
		// frame must stay in.
		ns := -1
		for _, o := range e.ops {
			if o.Kind == kvcache.OpUnrefPrefix {
				continue // the scheduler's own registry hold, no session's
			}
			if ns < 0 {
				ns = int(o.Src) / e.width
			}
			if !kvcache.NamespaceFor(ns, e.width).ValidOp(o) {
				panic(fmt.Sprintf("the head sent %v in a frame of namespace %d (ops %v)", o, ns, e.ops))
			}
			e.kinds[o.Kind]++
		}
	}
	e.Endpoint.Send(dst, tag, p, wire)
}

// TestSimServeOpsStayInNamespace holds a live serve to the isolation
// contract the serve package rests on (kvcache.Namespace.ValidOp): in one
// multi-session speculative serve with prefix reuse under memory
// pressure, every KV op the head sends — in KV frames and in run frames —
// names only ids of the namespace of the session it is issued for, and
// every kind the contract covers is sent.
func TestSimServeOpsStayInNamespace(t *testing.T) {
	const width = 4
	ep := &nsCheckEP{width: width, kinds: map[kvcache.OpKind]int{}}
	opts := ServeOptions{
		Cluster:         cost.ClusterC().Take(4),
		Pair:            cost.CPUPairs()[0],
		CFG:             engine.Config{MaxNew: 24},
		Sessions:        16,
		PromptLen:       8,
		SharedPromptLen: 64,
		Seed:            5,
		Speculate:       true,
		MaxSessions:     4,
		SeqsPerSession:  width,
		MaxBatch:        1,
		KVCells:         256, // 13 prefix hits, 92 speculative drops, 3 preemptions
		KVPageSize:      8,
		PrefixCache:     true,
		WrapEndpoint: func(rank int, e comm.Endpoint) comm.Endpoint {
			if rank != 0 {
				return e
			}
			ep.Endpoint = e
			return ep
		},
	}
	if _, err := Serve(opts); err != nil {
		t.Fatal(err)
	}
	for _, k := range []struct {
		kind kvcache.OpKind
		name string
	}{
		{kvcache.OpSeqCp, "OpSeqCp"}, {kvcache.OpSeqRm, "OpSeqRm"},
		{kvcache.OpDropSpec, "OpDropSpec"}, {kvcache.OpEvictShard, "OpEvictShard"},
		{kvcache.OpSharePrefix, "OpSharePrefix"}, {kvcache.OpMapShared, "OpMapShared"},
	} {
		if ep.kinds[k.kind] == 0 {
			t.Errorf("the serve sent no %s, so the check never saw one (ops checked per kind: %v)", k.name, ep.kinds)
		}
	}
}
