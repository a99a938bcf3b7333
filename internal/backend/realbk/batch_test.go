package realbk

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/backend"
	"github.com/pipeinfer/pipeinfer/internal/batch"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/comm/tcpcomm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// TestServeBatchedGreedyParity is the PR-4 acceptance gate on the real
// backend: 16 concurrent sessions with cross-session batching enabled
// must produce greedy output bit-identical to their serial single-model
// references — with and without speculation, at several batch widths, and
// composed with the PR-3 memory-pressure protocol (oversubscribed KV:
// batching + drop-spec + preemption + prefix-recompute readmission).
func TestServeBatchedGreedyParity(t *testing.T) {
	cases := []struct {
		name        string
		maxNew      int // 0 = 9 tokens per request
		nodes       int
		speculate   bool
		maxSessions int
		width       int
		requests    int
		maxBatch    int
		kvCells     int
		kvPage      int
		promptLen   int // 0 = the short default prompts
		chunk       int // chunked cross-session prefill budget
		autoBatch   bool
		tcp         bool // every rank through ServeRank on a tcpcomm loopback mesh
	}{
		{name: "16-sessions-batch-4", nodes: 2, maxSessions: 16, width: 1, requests: 16, maxBatch: 4},
		{name: "recycled-slots-batch-4", nodes: 2, maxSessions: 5, width: 1, requests: 12, maxBatch: 4},
		{name: "speculative-batch-4", nodes: 3, speculate: true, maxSessions: 8, width: 4, requests: 8, maxBatch: 4},
		// Four pages of 8 cells; a prompt takes one and a finished stream
		// (4-6 prompt tokens + 25 evaluated) all four, so once two
		// sessions have prefilled neither can finish until the other is
		// parked: pressure follows from the sizes, not the interleaving.
		{name: "oversubscribed-batch-4", nodes: 2, maxSessions: 16, width: 1, requests: 16, maxBatch: 4, kvCells: 32, kvPage: 8, maxNew: 26},
		// Chunked cross-session prefill (PR 5): concurrent long-prompt
		// prefills split into chunks that ride in the same runs as
		// decode rows — with and without speculation, and composed with
		// the memory-pressure protocol (oversubscribed KV: chunked
		// prefill + preemption + chunked prefix-recompute readmission).
		{name: "chunked-prefill-batch-4", nodes: 2, maxSessions: 8, width: 1, requests: 8, maxBatch: 4, promptLen: 40, chunk: 8},
		{name: "chunked-prefill-speculative", nodes: 3, speculate: true, maxSessions: 6, width: 4, requests: 6, maxBatch: 4, promptLen: 32, chunk: 8},
		{name: "chunked-prefill-oversubscribed", nodes: 2, maxSessions: 8, width: 1, requests: 8, maxBatch: 4, promptLen: 40, chunk: 8, kvCells: 160, kvPage: 8},
		// Adaptive batch width (-batch=auto): the controller must stay
		// bit-identical at whatever widths it picks, chunked prefill
		// included.
		{name: "auto-width-chunked", nodes: 2, maxSessions: 8, width: 1, requests: 8, maxBatch: 8, promptLen: 40, chunk: 8, autoBatch: true},
		// The serving path over the real transport: outside the perf lab
		// nothing else runs ServeRank on tcpcomm (the parity matrix in
		// tcpcomm's own tests covers one-shot Run only).
		{name: "16-sessions-batch-8-tcp", nodes: 3, maxSessions: 16, width: 1, requests: 16, maxBatch: 8, tcp: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			maxNew := 9
			if tc.maxNew > 0 {
				maxNew = tc.maxNew
			}
			var reqs []serve.Request
			if tc.promptLen > 0 {
				reqs = serveRequestsLen(tc.requests, maxNew, tc.promptLen)
			} else {
				reqs = serveRequests(tc.requests, maxNew)
			}
			cfg := engine.Config{MaxNew: maxNew}
			if tc.speculate {
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
				MaxBatch:       tc.maxBatch,
				KVCells:        tc.kvCells,
				KVPageSize:     tc.kvPage,
				PrefillChunk:   tc.chunk,
				AutoBatch:      tc.autoBatch,
				Requests:       reqs,
			}
			serveFn := Serve
			if tc.tcp {
				serveFn = func(o ServeOptions) (ServeOutcome, error) { return serveOverTCP(t, o) }
			}
			out, err := serveFn(opts)
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
						t.Fatalf("request %d diverged from its serial reference at token %d under batching: %d != %d",
							i, j, res.Tokens[j], ref[j])
					}
				}
			}
			if out.Stats.Generated != tc.requests*maxNew {
				t.Fatalf("aggregate generated %d, want %d", out.Stats.Generated, tc.requests*maxNew)
			}
			if out.Stats.BatchedRuns == 0 {
				t.Fatal("batching enabled but no multi-session run was ever launched")
			}
			if mean := out.Stats.MeanBatch(); mean < 1.5 {
				t.Fatalf("mean batch width %.2f — coalescing never engaged", mean)
			}
			if tc.kvCells > 0 && out.Stats.Preemptions == 0 {
				t.Fatal("oversubscribed case ran without pressure — undersizing failed")
			}
			if tc.chunk > 0 && out.Stats.PrefillBatchedRuns == 0 {
				t.Fatal("chunked prefill enabled but no chunk run was ever launched")
			}
		})
	}
}

// serveOverTCP serves opts with every rank on its own tcpcomm loopback
// endpoint, the way separate processes would, and returns the head's
// outcome.
func serveOverTCP(t *testing.T, opts ServeOptions) (ServeOutcome, error) {
	t.Helper()
	eps, err := tcpcomm.DialLoopback(opts.Nodes, tcpcomm.Config{DialTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]ServeOutcome, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for r, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[r], errs[r] = ServeRank(ep, opts)
		}()
	}
	wg.Wait()
	for _, ep := range eps {
		ep.Close()
	}
	return outs[0], errors.Join(errs...)
}

// TestPrefillChunkResume is the chunked-prefill preemption gate: with
// the KV cache far too small for every session's prompt, chunked
// prefills are preempted mid-prompt — their partially recomputed prefix
// evicted pipeline-wide between chunks — and readmission re-prefills the
// prompt chunk by chunk from position 0. Every session must still match
// its serial greedy reference bit for bit, at least one preemption must
// hit a session that had produced no output yet (a genuine mid-prompt
// preemption), and no stage may leak a cell (chunked prefill never
// strands pages on preemption; Serve's end-state check enforces it).
func TestPrefillChunkResume(t *testing.T) {
	const maxNew = 24
	reqs := serveRequestsLen(6, maxNew, 48)
	started := make([]bool, len(reqs))
	midPromptPreempts := 0
	opts := ServeOptions{
		Nodes:       2,
		CFG:         engine.Config{MaxNew: maxNew},
		ModelCfg:    serveModel(4),
		Seed:        21,
		MaxSessions: 6,
		// Well under two sessions' worth of cells for six 48-prompt,
		// 24-token requests: decoding sessions and later admissions
		// fight for room, so chunked prefills are preempted mid-prompt.
		KVCells:      96,
		KVPageSize:   8,
		MaxBatch:     4,
		PrefillChunk: 8,
		Requests:     reqs,
	}
	opts.OnToken = func(req int, tok token.Token) { started[req] = true }
	opts.OnPreempt = func(req int) {
		if !started[req] {
			midPromptPreempts++
		}
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
		if len(res.Tokens) != len(ref) {
			t.Fatalf("request %d: %d tokens, want %d", i, len(res.Tokens), len(ref))
		}
		for j := range ref {
			if res.Tokens[j] != ref[j] {
				t.Fatalf("request %d diverged from its serial reference at token %d after chunked resume: %d != %d",
					i, j, res.Tokens[j], ref[j])
			}
		}
	}
	if out.Stats.Preemptions == 0 || out.Stats.Readmissions == 0 {
		t.Fatalf("pressure never engaged: %d preemptions, %d readmissions",
			out.Stats.Preemptions, out.Stats.Readmissions)
	}
	if midPromptPreempts == 0 {
		t.Fatal("no session was preempted mid-prompt — the resume path never ran")
	}
	if out.Stats.PrefillBatchedRuns == 0 {
		t.Fatal("no chunked prefill runs launched")
	}
}

// TestServeChunkedMatchesWhole runs the same burst with whole-prompt and
// chunked prefill (same seed, same requests) and checks end-to-end
// outcome equality — chunking is a pure scheduling change.
func TestServeChunkedMatchesWhole(t *testing.T) {
	const maxNew = 7
	reqs := serveRequestsLen(6, maxNew, 36)
	run := func(chunk int) ServeOutcome {
		out, err := Serve(ServeOptions{
			Nodes:        2,
			CFG:          engine.Config{MaxNew: maxNew},
			ModelCfg:     serveModel(4),
			Seed:         13,
			MaxSessions:  6,
			MaxBatch:     4,
			PrefillChunk: chunk,
			Requests:     reqs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	whole := run(0)
	chunked := run(8)
	for i := range reqs {
		if len(whole.Results[i].Tokens) != len(chunked.Results[i].Tokens) {
			t.Fatalf("request %d length differs: %d vs %d", i,
				len(whole.Results[i].Tokens), len(chunked.Results[i].Tokens))
		}
		for j := range whole.Results[i].Tokens {
			if whole.Results[i].Tokens[j] != chunked.Results[i].Tokens[j] {
				t.Fatalf("request %d token %d differs between chunked and whole-prompt prefill", i, j)
			}
		}
	}
	// A whole-prompt prefill is one chunk, one such chunk per run; a
	// 36-40-token prompt under an 8-token budget needs several.
	if whole.Stats.PrefillBatchedRuns != len(reqs) {
		t.Fatalf("whole-prompt run launched %d prefill runs for %d requests, want one each",
			whole.Stats.PrefillBatchedRuns, len(reqs))
	}
	if chunked.Stats.PrefillBatchedRuns <= len(reqs) {
		t.Fatalf("chunked run launched %d prefill runs for %d requests, want more than one each",
			chunked.Stats.PrefillBatchedRuns, len(reqs))
	}
}

// TestServeBatchedMatchesUnbatched runs the same workload with batching
// off and on (same seed, same requests) and checks outcome equality
// end to end — same tokens and same total generated — so batching is a
// pure scheduling change.
func TestServeBatchedMatchesUnbatched(t *testing.T) {
	const maxNew = 7
	reqs := serveRequests(8, maxNew)
	run := func(maxBatch int) ServeOutcome {
		out, err := Serve(ServeOptions{
			Nodes:       2,
			CFG:         engine.Config{MaxNew: maxNew},
			ModelCfg:    serveModel(4),
			Seed:        13,
			MaxSessions: 8,
			MaxBatch:    maxBatch,
			Requests:    reqs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := run(0)
	batched := run(4)
	for i := range reqs {
		if len(plain.Results[i].Tokens) != len(batched.Results[i].Tokens) {
			t.Fatalf("request %d length differs: %d vs %d", i,
				len(plain.Results[i].Tokens), len(batched.Results[i].Tokens))
		}
		for j := range plain.Results[i].Tokens {
			if plain.Results[i].Tokens[j] != batched.Results[i].Tokens[j] {
				t.Fatalf("request %d token %d differs between batched and unbatched serving", i, j)
			}
		}
	}
	if batched.Stats.BatchedRuns == 0 {
		t.Fatal("batched run launched no multi-session runs")
	}
	if batched.Stats.RunsLaunched >= plain.Stats.RunsLaunched {
		t.Fatalf("batching did not reduce run count: %d batched vs %d plain",
			batched.Stats.RunsLaunched, plain.Stats.RunsLaunched)
	}
}

// TestBatchedRowCancel is the PR-4 cancellation regression gate: one of
// four sessions batched into a single in-flight run is cancelled with a
// row-masked signal, and the remaining three sessions' rows must complete
// bit-identically to their solo (unbatched) runs, while the masked row is
// dropped at the stage — absent from the result frame and not computed,
// though it occupies its cell as on the head's shadow.
func TestBatchedRowCancel(t *testing.T) {
	cfg := serveModel(4)
	m, err := model.New(cfg, 33)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	kv := kvpage.Config{Cells: 256, ShardSeqs: 1}

	// Per-session prompts and their canonical namespaces.
	prompts := make([][]token.Token, sessions)
	for s := range prompts {
		p := make([]token.Token, 5+s)
		for j := range p {
			p[j] = token.Token(token.NumSpecial + (17*s+5*j)%250)
		}
		prompts[s] = p
	}
	// Each session prefills all but its prompt's last token, which the
	// batched decode then evaluates at its own position.
	prefill := func(h *engine.Head, s int) {
		ns := kvcache.NamespaceFor(s, 1)
		set := kvcache.NewSeqSet(ns.Canonical())
		p := prompts[s][:len(prompts[s])-1]
		msg := &engine.RunMsg{Kind: engine.KindPrefill, Seq: ns.Canonical(), Session: uint16(s),
			Tokens: make([]engine.TokenPlace, len(p))}
		for i, tok := range p {
			msg.Tokens[i] = engine.TokenPlace{Tok: tok, Pos: int32(i), Seqs: set}
		}
		h.Launch(&engine.Run{Msg: msg})
		if _, _, ok, _, err := h.AwaitResult(); err != nil || !ok {
			t.Fatalf("prefill session %d: ok=%v err=%v", s, ok, err)
		}
	}
	batchedMsg := func() *engine.RunMsg {
		msg := &engine.RunMsg{Kind: engine.KindNonSpec, Session: 0,
			Tokens:      make([]engine.TokenPlace, sessions),
			RowSessions: make([]uint16, sessions)}
		for s := 0; s < sessions; s++ {
			ns := kvcache.NamespaceFor(s, 1)
			p := prompts[s]
			msg.Tokens[s] = engine.TokenPlace{
				Tok: p[len(p)-1], Pos: int32(len(p) - 1), Seqs: kvcache.NewSeqSet(ns.Canonical()),
			}
			msg.RowSessions[s] = uint16(s)
		}
		msg.Seq = kvcache.NamespaceFor(0, 1).Canonical()
		return msg
	}

	// runWorker serves the queued transactions until shutdown.
	runWorker := func(cl *chancomm.Cluster, topo engine.Topology, w *backend.Stage) (*sync.WaitGroup, *error) {
		var wg sync.WaitGroup
		var workerErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := engine.WorkerLoop(cl.Endpoint(1), topo, w, engine.WorkerObs{}); err != nil {
				workerErr = err
			}
		}()
		return &wg, &workerErr
	}

	// runPipeline prefills every session over a dedicated worker rank,
	// then enqueues the batched decode AND the row-masked cancel while no
	// worker loop is running, so the stage deterministically sees the
	// mask before evaluating the batch.
	runPipeline := func(cancelSlot int) (next []token.Token, stageUsed int, maskedPanics bool) {
		cl := chancomm.New(2)
		topo := engine.Topology{Head: 0, Stages: []int{1}}
		cache := kvpage.New(kv)
		w := backend.NewStage(cache, NewWorker(m, 0, cfg.NLayers, true, true, cache.Size()))
		bk := NewHead(nil, cfg.VocabSize)
		h, err := engine.NewHead(cl.Endpoint(0), topo, engine.Config{MaxNew: 4}, bk, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Phase 1: prefills, worker running.
		wg, workerErr := runWorker(cl, topo, w)
		for s := 0; s < sessions; s++ {
			prefill(h, s)
		}
		h.Shutdown()
		wg.Wait()
		if *workerErr != nil {
			t.Fatal(*workerErr)
		}
		// Phase 2: batched decode + cancel enqueued first, then served.
		run := &engine.Run{Msg: batchedMsg()}
		h.Launch(run)
		if cancelSlot >= 0 {
			h.CancelSession(uint16(cancelSlot), []*engine.Run{run}, true)
			if h.SessionInflight(uint16(cancelSlot)) != 1 {
				t.Fatal("row masking dropped the session's FIFO accounting")
			}
		}
		wg, workerErr = runWorker(cl, topo, w)
		got, res, ok, _, err := h.AwaitResult()
		if err != nil || !ok {
			t.Fatalf("batched run: ok=%v err=%v", ok, err)
		}
		if got != run {
			t.Fatal("FIFO returned the wrong run")
		}
		next = make([]token.Token, sessions)
		for s := 0; s < sessions; s++ {
			if cancelSlot == s {
				next[s] = -1
				// The masked row must be absent from the result frame:
				// asking for it is a protocol violation and panics.
				maskedPanics = panics(func() { res.Next(s) })
				continue
			}
			next[s] = res.Next(s)
		}
		h.Shutdown()
		wg.Wait()
		if *workerErr != nil {
			t.Fatal(*workerErr)
		}
		return next, cache.Used(), maskedPanics
	}

	clean, cleanUsed, _ := runPipeline(-1)
	masked, maskedUsed, maskedPanics := runPipeline(2)

	for s := 0; s < sessions; s++ {
		if s == 2 {
			continue
		}
		if masked[s] != clean[s] {
			t.Fatalf("session %d's greedy choice changed when session 2 was masked out: %d != %d",
				s, masked[s], clean[s])
		}
	}
	if !maskedPanics {
		t.Fatal("the masked row's result was still delivered")
	}
	// Placement follows the transaction stream alone: the masked row
	// occupies its cell as in the clean run (one cell per prefilled token
	// plus one per decode row); the head's cleanup would free it.
	if want := cleanUsed; maskedUsed != want {
		t.Fatalf("stage occupies %d cells with a masked row, want %d (clean run: %d)",
			maskedUsed, want, cleanUsed)
	}
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return
}

// TestBatchedRowCancelServing exercises row masking end to end through
// the scheduler: speculative sessions batched into shared runs reject
// draft chains continuously (noisy draft), so dropPending must mask just
// the rejecting session's rows out of in-flight batched speculative runs
// — and every session must still match its serial reference.
func TestBatchedRowCancelServing(t *testing.T) {
	const maxNew = 12
	reqs := serveRequests(6, maxNew)
	opts := ServeOptions{
		Nodes:          3,
		CFG:            engine.Config{MaxNew: maxNew, SpecCutoff: 0.02},
		ModelCfg:       serveModel(4),
		Seed:           5,
		Speculate:      true,
		DraftNoise:     0.3, // noisy draft → frequent rejections → row masks
		MaxSessions:    6,
		SeqsPerSession: 4,
		MaxBatch:       4,
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
				t.Fatalf("request %d diverged at token %d with row-masked cancellation", i, j)
			}
		}
	}
	if out.Stats.BatchedRuns == 0 {
		t.Fatal("no batched runs launched")
	}
	if out.Stats.RowCancels == 0 {
		t.Fatal("continuous rejection produced no row-masked cancellations")
	}
}

// TestWholePromptPrefillShipsOneLogitsRow pins what an unchunked prefill
// costs at the last stage: the scheduler sends a prompt as one ranged
// group of which only the final row samples, so the result frame's rows
// are row 8 of 9 and it carries one vocab-sized logits row — bit for bit
// the last of the nine an unranged run of the same tokens projects and
// ships.
func TestWholePromptPrefillShipsOneLogitsRow(t *testing.T) {
	cfg := serveModel(4)
	m, err := model.New(cfg, 33)
	if err != nil {
		t.Fatal(err)
	}
	const n = 9
	set := kvcache.NewSeqSet(0)
	var c batch.Composer
	plain := &engine.RunMsg{Kind: engine.KindPrefill, Tokens: make([]engine.TokenPlace, n)}
	for p := 0; p < n; p++ {
		tok := token.Token(token.NumSpecial + 13*p%250)
		c.Stage(batch.Row{Tok: tok, Pos: int32(p), Seqs: set, Range: engine.RowRange{Pos: 0, Len: n}})
		plain.Tokens[p] = engine.TokenPlace{Tok: tok, Pos: int32(p), Seqs: set}
	}
	ranged := &engine.RunMsg{}
	c.ComposeInto(ranged, engine.KindPrefill)

	eval := func(msg *engine.RunMsg) []byte {
		w := newStage(m, 0, cfg.NLayers, true, true, kvpage.Config{Cells: 64, ShardSeqs: 1})
		if err := w.Place(msg); err != nil {
			t.Fatal(err)
		}
		out, _, ok := w.Eval(msg, nil, func() bool { return false })
		if !ok {
			t.Fatal("evaluation cancelled")
		}
		return out
	}
	// Framed the way the last stage's worker loop frames it.
	frame, err := engine.ParseResult(engine.ResultPayload(engine.ResultFrame{
		ID: 1, OK: true, Dead: ranged.DeadSessions, Rows: eval(ranged)}))
	if err != nil {
		t.Fatal(err)
	}
	var rows []int
	for i := range ranged.Tokens {
		if ranged.ResultRow(i, frame.Dead) {
			rows = append(rows, i)
		}
	}
	if total := ranged.Len(); total != n || len(rows) != 1 || rows[0] != n-1 {
		t.Fatalf("result frame carries rows %v of %d, want [%d] of %d", rows, total, n-1, n)
	}
	logits := frame.Rows
	rowBytes := NewHead(nil, cfg.VocabSize).RowBytes()
	if rowBytes != 4*cfg.VocabSize {
		t.Fatalf("a result row is %d bytes, want a logits row of %d", rowBytes, 4*cfg.VocabSize)
	}
	if len(logits) != rowBytes {
		t.Fatalf("result frame carries %d logits bytes, want one row of %d", len(logits), rowBytes)
	}
	all := eval(plain)
	if len(all) != n*rowBytes {
		t.Fatalf("unranged prefill result is %d bytes, want %d rows of %d", len(all), n, rowBytes)
	}
	if !bytes.Equal(logits, all[(n-1)*rowBytes:]) {
		t.Fatal("the sampled row's logits differ from the unranged run's last row")
	}
}
