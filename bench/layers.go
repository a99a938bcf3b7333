package main

import (
	"fmt"
	"slices"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/backend/simbk"
	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/prefixcache"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// timeOp is the layer stopwatch: `rounds` rounds of n back-to-back calls
// of f, the median round's mean per call, in nanoseconds. before, when
// non-nil, restores the state f consumes and runs untimed ahead of
// every call.
func timeOp(rounds, n int, before, f func()) float64 {
	per := make([]float64, rounds)
	for r := range per {
		var total time.Duration
		if before == nil {
			start := time.Now()
			for i := 0; i < n; i++ {
				f()
			}
			total = time.Since(start)
		} else {
			for i := 0; i < n; i++ {
				before()
				start := time.Now()
				f()
				total += time.Since(start)
			}
		}
		per[r] = float64(total) / float64(n)
	}
	return median(per)
}

// layerTimings calls each layer's exported functions at the sizes the
// workloads use and times them from outside. The numbers do not depend
// on the workload; they ride along with every traced run so a layer
// change shows here first and in the end-to-end metric it should move
// second.
func layerTimings(m map[string]float64) error {
	rng := tensor.NewRNG(99)
	cfg := benchModel()

	// tensor: the FFN projection shape (FFNDim x Dim).
	w := tensor.NewMat(cfg.FFNDim, cfg.Dim)
	rng.FillNormal(w.Data, 1)
	x := tensor.NewMat(64, cfg.Dim)
	rng.FillNormal(x.Data, 1)
	y := tensor.NewMat(64, cfg.FFNDim)
	m["tensor.matvec_ns"] = timeOp(9, 4000, nil, func() { tensor.MatVec(y.Row(0), w, x.Row(0)) })
	m["tensor.matmul_rows_per_ms"] = 64 / (timeOp(9, 100, nil, func() { tensor.MatMulT(y, x, w) }) / 1e6)

	// model: weight derivation, one decode step at context 128, one
	// 64-token prefill chunk at context 192.
	var mdl *model.Model
	var err error
	m["model.build_ms"] = timeOp(5, 1, nil, func() { mdl, err = model.New(cfg, modelSeed) }) / 1e6
	if err != nil {
		return err
	}
	prompt := randTokens(rng, 256)
	run := model.NewRunner(mdl, 320)
	eval := func(toks []token.Token, at int32) {
		if _, e := run.EvalSeq(toks, at, kvcache.Canonical); e != nil {
			err = e
		}
	}
	eval(prompt[:128], 0)
	m["model.decode_step_us"] = timeOp(7, 200,
		func() { run.Cache.SeqRm(kvcache.Canonical, 128, 129) },
		func() { eval(prompt[128:129], 128) }) / 1e3
	run.Cache.SeqRm(kvcache.Canonical, 128, 129)
	eval(prompt[128:192], 128)
	m["model.prefill_chunk_us"] = timeOp(7, 12,
		func() { run.Cache.SeqRm(kvcache.Canonical, 192, 256) },
		func() { eval(prompt[192:256], 192) }) / 1e3
	if err != nil {
		return fmt.Errorf("model timing: %w", err)
	}

	// kvpage: a 16-row batched decode step placing one row in each of 16
	// session shards.
	place := kvpage.New(kvpage.Config{Cells: 16 * 64, PageSize: 16, ShardSeqs: 1})
	metas := make([]kvcache.TokenMeta, 16)
	var cells []int
	pos := int32(0)
	m["kvpage.place_ns_per_row"] = timeOp(9, 64,
		func() {
			if pos == 64 {
				place.Clear()
				pos = 0
			}
			for i := range metas {
				metas[i] = kvcache.TokenMeta{Pos: pos, Seqs: kvcache.NewSeqSet(kvcache.SeqID(i))}
			}
			pos++
		},
		func() {
			if cells, err = place.PlaceRowsInto(cells[:0], metas); err != nil {
				panic(err) // sized above; cannot fill
			}
		}) / 16

	// kvpage: the attention visibility list of a token at position 255.
	vis := kvpage.New(kvpage.Config{Cells: 512, PageSize: 16})
	fill := func(c *kvpage.Cache, seq kvcache.SeqID, n int) {
		ms := make([]kvcache.TokenMeta, n)
		for i := range ms {
			ms[i] = kvcache.TokenMeta{Pos: int32(i), Seqs: kvcache.NewSeqSet(seq)}
		}
		if _, e := c.PlaceRowsInto(nil, ms); e != nil {
			panic(e)
		}
	}
	fill(vis, kvcache.Canonical, 256)
	q := kvcache.TokenMeta{Pos: 255, Seqs: kvcache.NewSeqSet(kvcache.Canonical)}
	m["kvpage.visible_ns_per_cell"] = timeOp(9, 500, nil, func() { cells = vis.VisibleCells(cells[:0], q) }) / 256
	if len(cells) != 256 {
		return fmt.Errorf("kvpage timing: %d visible cells, want 256", len(cells))
	}

	// kvpage: publish a 256-cell prefix and map it into another shard,
	// what one prefix hit costs every stage.
	share := kvpage.New(kvpage.Config{Cells: 1024, PageSize: 16, ShardSeqs: 1})
	published := false
	m["kvpage.share_map_us"] = timeOp(7, 100,
		func() {
			if published {
				share.RemoveSeqs(kvcache.NewSeqSet(0)) // one shard per call
				share.RemoveSeqs(kvcache.NewSeqSet(1))
				share.UnrefPrefix(0)
			}
			fill(share, 0, 256)
			published = true
		},
		func() {
			share.SharePrefix(0, 0, 256)
			share.MapShared(1, 0, 256)
		}) / 1e3

	// kvpage: preempt a session holding 100 cells.
	evict := kvpage.New(kvpage.Config{Cells: 256, PageSize: 8, ShardSeqs: 4})
	m["kvpage.evict_shard_us"] = timeOp(7, 200,
		func() { fill(evict, 0, 100) },
		func() { evict.Apply(kvcache.Op{Kind: kvcache.OpEvictShard, Src: 0, Dst: 4}) }) / 1e3
	if evict.Used() != 0 {
		return fmt.Errorf("kvpage timing: %d cells left after evicting the only shard", evict.Used())
	}

	// prefixcache: probe the trie with a 264-token prompt whose first 256
	// tokens are published.
	table := prefixcache.New(prefixcache.Config{PageSize: 16})
	long := randTokens(rng, 264)
	table.Insert(long[:256])
	var hit int
	m["prefixcache.lookup_ns"] = timeOp(9, 2000, nil, func() { _, hit = table.Lookup(long, len(long)-1) })
	if hit != 256 {
		return fmt.Errorf("prefixcache timing: matched %d tokens, want 256", hit)
	}

	// engine: encode + decode of the 16-row ranged run header every
	// batched decode step sends down the pipeline.
	msg := &engine.RunMsg{ID: 7, Kind: engine.RunKind(0)}
	for i := 0; i < 16; i++ {
		msg.Tokens = append(msg.Tokens, engine.TokenPlace{Tok: long[i], Pos: 40, Seqs: kvcache.NewSeqSet(kvcache.SeqID(i))})
		msg.RowSessions = append(msg.RowSessions, uint16(i))
		msg.RowRanges = append(msg.RowRanges, engine.RowRange{Pos: 40, Len: 1})
	}
	var wire []byte
	m["engine.runmsg_codec_ns"] = timeOp(9, 2000, nil, func() {
		wire = msg.AppendEncode(wire[:0])
		if _, e := engine.DecodeRunMsg(wire); e != nil {
			err = e
		}
	})
	return err
}

// roundTripUS is a 1 KiB ping-pong between two ranks on the workload's
// transport: the median of n round trips, in microseconds.
func roundTripUS(tcp bool, n int) (float64, error) {
	var a, b comm.Endpoint
	if tcp {
		eps, err := dialMesh(2)
		if err != nil {
			return 0, err
		}
		defer eps[0].Close()
		defer eps[1].Close()
		a, b = eps[0], eps[1]
	} else {
		c := chancomm.New(2)
		a, b = c.Endpoint(0), c.Endpoint(1)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			p := b.Recv(0, comm.TagControl)
			b.Send(0, comm.TagControl, p, 0)
			comm.PutBuf(p)
		}
	}()
	ping := make([]byte, 1024)
	rtts := make([]float64, n)
	for i := range rtts {
		start := time.Now()
		a.Send(1, comm.TagControl, ping, 0)
		comm.PutBuf(a.Recv(1, comm.TagControl))
		rtts[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	<-done
	return median(rtts), nil
}

// simbkMetrics is solo_pipeinfer's paper-scale twin: Dolphin-70B with a
// TinyLlama draft on eight Cluster-C nodes, 128-token prompt, 512 new
// tokens, seeds 1-3, all three strategies, in exact virtual time. The
// evaluation runs twice and must repeat bit for bit. Only the twin's own
// workload evaluates it; on the others the rows read 0.
func simbkMetrics(m map[string]float64, evaluate bool) error {
	if !evaluate {
		for _, name := range []string{"tok_s_pipeinfer", "speedup_vs_spec", "speedup_vs_iter", "accept_rate", "cancel_frac"} {
			m["simbk."+name] = 0
		}
		return nil
	}
	type counts struct {
		speed                                  [3]float64 // iterative, speculative, pipeinfer (mean tok/s over seeds)
		proposed, accepted, launched, canceled int
	}
	eval := func() (counts, error) {
		var c counts
		strategies := []engine.Strategy{engine.StrategyIterative, engine.StrategySpeculative, engine.StrategyPipeInfer}
		for seed := uint64(1); seed <= 3; seed++ {
			for i, s := range strategies {
				out, err := simbk.Run(simbk.Options{
					Cluster: cost.ClusterC().Take(8), Pair: cost.PairDolphinTiny, Strategy: s,
					CFG: engine.Config{MaxNew: 512}, PromptLen: 128, Seed: seed,
				})
				if err != nil {
					return c, fmt.Errorf("simbk %v seed %d: %w", s, seed, err)
				}
				// Speculative strategies may overshoot MaxNew by part of an
				// accepted run; the first 512 tokens are what must match.
				ref := simbk.Reference(simbk.Options{Pair: cost.PairDolphinTiny, PromptLen: 128, Seed: seed}, 512)
				if len(out.Tokens) < len(ref) || !slices.Equal(out.Tokens[:len(ref)], ref) {
					return c, fmt.Errorf("simbk %v seed %d: output differs from the target stream", s, seed)
				}
				c.speed[i] += out.Stats.Speed() / 3
				if s == engine.StrategyPipeInfer {
					c.proposed += out.Stats.Proposed
					c.accepted += out.Stats.Accepted
					c.launched += out.Stats.RunsLaunched
					c.canceled += out.Stats.RunsCancelled
				}
			}
		}
		return c, nil
	}
	first, err := eval()
	if err != nil {
		return err
	}
	second, err := eval()
	if err != nil {
		return err
	}
	if first != second {
		return fmt.Errorf("simbk virtual-time counts did not repeat: %+v then %+v", first, second)
	}
	m["simbk.tok_s_pipeinfer"] = first.speed[2]
	m["simbk.speedup_vs_spec"] = first.speed[2] / first.speed[1]
	m["simbk.speedup_vs_iter"] = first.speed[2] / first.speed[0]
	m["simbk.accept_rate"] = float64(first.accepted) / float64(first.proposed)
	m["simbk.cancel_frac"] = float64(first.canceled) / float64(first.launched)
	return nil
}
