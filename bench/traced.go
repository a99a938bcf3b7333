package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/backend/realbk"
	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/telemetry"
)

// perLayer lists the traced pass's metrics: what each layer did, how
// long it was busy, how long work waited for it, and — where a layer
// can waste work — useful outcomes per attempt. README.md says which
// end-to-end metric each should move, on which workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "tensor.matvec_ns", Unit: "ns", Better: "lower"},
		{Name: "tensor.matmul_rows_per_ms", Unit: "rows/ms", Better: "higher"},
		{Name: "model.decode_step_us", Unit: "us", Better: "lower"},
		{Name: "model.prefill_chunk_us", Unit: "us", Better: "lower"},
		{Name: "model.build_ms", Unit: "ms", Better: "lower"},
		{Name: "kvpage.place_ns_per_row", Unit: "ns", Better: "lower"},
		{Name: "kvpage.visible_ns_per_cell", Unit: "ns", Better: "lower"},
		{Name: "kvpage.share_map_us", Unit: "us", Better: "lower"},
		{Name: "kvpage.evict_shard_us", Unit: "us", Better: "lower"},
		{Name: "prefixcache.lookup_ns", Unit: "ns", Better: "lower"},
		{Name: "prefixcache.hit_rate", Unit: "ratio", Better: "higher"},
		{Name: "prefixcache.hit_tok_frac", Unit: "ratio", Better: "higher"},
		{Name: "batch.mean_width", Unit: "rows", Better: "higher"},
		{Name: "batch.runs_per_tok", Unit: "ratio", Better: "lower"},
		{Name: "engine.runmsg_codec_ns", Unit: "ns", Better: "lower"},
		{Name: "engine.accept_rate", Unit: "ratio", Better: "higher"},
		{Name: "engine.cancel_frac", Unit: "ratio", Better: "higher"},
		{Name: "engine.tok_per_run", Unit: "ratio", Better: "higher"},
		{Name: "comm.send_us_per_tok", Unit: "us", Better: "lower"},
		{Name: "comm.bytes_per_tok", Unit: "B", Better: "lower"},
		{Name: "comm.msgs_per_tok", Unit: "ratio", Better: "lower"},
		{Name: "comm.rtt_us", Unit: "us", Better: "lower"},
		{Name: "stage.bubble_frac.r0", Unit: "ratio", Better: "lower"},
		{Name: "stage.bubble_frac.r1", Unit: "ratio", Better: "lower"},
		{Name: "stage.bubble_frac.r2", Unit: "ratio", Better: "lower"},
		{Name: "serve.head_busy_us_per_tok", Unit: "us", Better: "lower"},
		{Name: "serve.preempt_per_req", Unit: "ratio", Better: "lower"},
		{Name: "serve.readmit_per_req", Unit: "ratio", Better: "lower"},
		{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.autobatch_ratio", Unit: "ratio", Better: "higher"},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{Name: "cpu_share." + b, Unit: "ratio", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "rt.alloc_b_per_tok", Unit: "B", Better: "lower"},
		metricDef{Name: "rt.gc_per_ktok", Unit: "ratio", Better: "lower"},
		metricDef{Name: "telemetry.overhead_frac", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
		metricDef{Name: "simbk.tok_s_pipeinfer", Unit: "tok/s", Better: "higher"},
		metricDef{Name: "simbk.speedup_vs_spec", Unit: "ratio", Better: "higher"},
		metricDef{Name: "simbk.speedup_vs_iter", Unit: "ratio", Better: "higher"},
		metricDef{Name: "simbk.accept_rate", Unit: "ratio", Better: "higher"},
		metricDef{Name: "simbk.cancel_frac", Unit: "ratio", Better: "higher"},
	)
}()

// tracer is the traced pass's outside view of one workload: a timing
// wrapper on every rank's endpoint, the telemetry registry, and the
// pressure hooks, folded into totals rep by rep. Spans are kept for the
// most recent rep only, so the trace file stays a few megabytes.
type tracer struct {
	clock *tokenClock
	ranks [benchNodes]rankTrace

	wall     time.Duration
	blocked  [benchNodes]time.Duration
	headSelf time.Duration // rank 0: busy spans minus the sends inside them
	sending  time.Duration
	sends    int
	bytes    int
	preempts int
	readmits int
	obs      *telemetry.Registry
	queueMS  []float64 // per rep: p50 admission-queue wait
}

func (t *tracer) hooks(o *realbk.ServeOptions) {
	t.obs = telemetry.New()
	o.Obs = t.obs
	o.OnPreempt = func(int) { t.preempts++ }
	o.OnReadmit = func(int) { t.readmits++ }
	o.WrapEndpoint = func(rank int, ep comm.Endpoint) comm.Endpoint {
		// Called on the rank's own goroutine as it starts, after t0.
		t.ranks[rank].begin(t.clock.t0)
		return traceEndpoint(ep, &t.ranks[rank])
	}
}

// fold closes a rep's spans and adds its totals.
func (t *tracer) fold(r rep) {
	t.wall += r.wall
	for i := range t.ranks {
		rt := &t.ranks[i]
		rt.closeBusy(r.wall)
		t.blocked[i] += rt.blocked
		t.sending += rt.sending
		t.sends += rt.sends
		t.bytes += rt.bytes
	}
	self := selfTimes(t.ranks[0].spans)
	for i, s := range t.ranks[0].spans {
		if s.name == "busy" {
			t.headSelf += self[i]
		}
	}
	if t.obs.QueueWait.Count() > 0 {
		t.queueMS = append(t.queueMS, ms(t.obs.QueueWait.QuantileDuration(0.5)))
	} else {
		t.queueMS = append(t.queueMS, 0)
	}
}

func (t *tracer) write(path string) error {
	ranks := make([][]span, len(t.ranks))
	for i := range t.ranks {
		ranks[i] = t.ranks[i].spans
	}
	return writeChromeTrace(path, ranks, requestSpans(t.clock))
}

// traced produces the per-layer metrics. It sets up once, measures an
// untraced reference pass, then serves the same workload again with
// every outside hook armed and the CPU profiler on: 45 % of the
// --seconds budget each, the remainder covering the layer stopwatches.
// On the workload the issue scopes them to (decode_tcp) two variant
// passes price the telemetry registry alone and the adaptive batch
// width, and the split is 30/30/15/15 %; the paper-scale simbk twin is
// evaluated under solo_pipeinfer. Elsewhere those rows read 0: not
// measured on this workload.
func (b *bench) traced(outDir string) result {
	b.setUp()
	m := make(map[string]float64, len(perLayer))
	sets := len(b.sets)
	plain := func(i int) rep { return b.rep(i, nil) }

	pass := b.budget * 45 / 100
	if b.w.variants {
		pass = b.budget * 30 / 100
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base := b.timed(pass, plain)
	runtime.ReadMemStats(&ms1)
	baseTokS := tokS(base, sets)
	tokens := 0
	for _, r := range base {
		tokens += r.tokens
	}
	m["rt.alloc_b_per_tok"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(tokens)
	m["rt.gc_per_ktok"] = float64(ms1.NumGC-ms0.NumGC) / (float64(tokens) / 1000)

	tr := &tracer{clock: b.clock}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		b.fail(err)
	}
	reps := b.timed(pass, func(i int) rep {
		r := b.rep(i, tr.hooks)
		tr.fold(r)
		return r
	})
	pprof.StopCPUProfile()
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", b.w.name, b.seed))
	if err := tr.write(path); err != nil {
		b.fail(err)
	}
	m["trace.overhead_frac"] = 1 - tokS(reps, sets)/baseTokS

	var st engine.Stats
	tokens, requests, promptTokens := 0, 0, 0
	for i, r := range reps {
		tokens += r.tokens
		st.Proposed += r.stats.Proposed
		st.Accepted += r.stats.Accepted
		st.RunsLaunched += r.stats.RunsLaunched
		st.RunsCancelled += r.stats.RunsCancelled
		st.Generated += r.stats.Generated
		st.BatchedRuns += r.stats.BatchedRuns
		st.BatchedRows += r.stats.BatchedRows
		st.PrefixHits += r.stats.PrefixHits
		st.PrefixHitTokens += r.stats.PrefixHitTokens
		for _, rq := range b.sets[i%sets] {
			requests++
			promptTokens += len(rq.Prompt)
		}
	}
	ratio := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	perTok := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(tokens) }
	m["prefixcache.hit_rate"] = ratio(st.PrefixHits, requests)
	m["prefixcache.hit_tok_frac"] = ratio(st.PrefixHitTokens, promptTokens)
	m["batch.mean_width"] = st.MeanBatch()
	m["batch.runs_per_tok"] = ratio(st.RunsLaunched, st.Generated)
	m["engine.accept_rate"] = ratio(st.Accepted, st.Proposed)
	m["engine.cancel_frac"] = ratio(st.RunsCancelled, st.RunsLaunched)
	m["engine.tok_per_run"] = ratio(st.Generated, st.RunsLaunched)
	m["comm.send_us_per_tok"] = perTok(tr.sending)
	m["comm.bytes_per_tok"] = ratio(tr.bytes, tokens)
	m["comm.msgs_per_tok"] = ratio(tr.sends, tokens)
	for i, blocked := range tr.blocked {
		m[fmt.Sprintf("stage.bubble_frac.r%d", i)] = float64(blocked) / float64(tr.wall)
	}
	m["serve.head_busy_us_per_tok"] = perTok(tr.headSelf)
	m["serve.preempt_per_req"] = ratio(tr.preempts, requests)
	m["serve.readmit_per_req"] = ratio(tr.readmits, requests)
	m["serve.queue_wait_ms_p50"] = median(tr.queueMS)

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		b.fail(err)
	}
	for bucket, share := range shares {
		m["cpu_share."+bucket] = share
	}

	variants := 0
	m["telemetry.overhead_frac"], m["serve.autobatch_ratio"] = 0, 0
	if b.w.variants {
		obsOnly := b.timed(pass/2, func(i int) rep {
			return b.rep(i, func(o *realbk.ServeOptions) { o.Obs = telemetry.New() })
		})
		m["telemetry.overhead_frac"] = 1 - tokS(obsOnly, sets)/baseTokS
		auto := b.timed(pass/2, func(i int) rep {
			return b.rep(i, func(o *realbk.ServeOptions) { o.AutoBatch = true })
		})
		m["serve.autobatch_ratio"] = tokS(auto, sets) / baseTokS
		variants = len(obsOnly) + len(auto)
	}

	if err := layerTimings(m); err != nil {
		b.fail(err)
	}
	rtt, err := roundTripUS(b.w.tcp, 2000)
	if err != nil {
		b.fail(err)
	}
	m["comm.rtt_us"] = rtt
	if err := simbkMetrics(m, b.w.paperTwin); err != nil {
		b.fail(err)
	}

	fmt.Printf("workload %s seed %d traced: %d reference + %d traced + %d variant reps; spans of the last traced rep in %s\n",
		b.w.name, b.seed, len(base), len(reps), variants, path)
	return b.result(perLayer, m)
}
