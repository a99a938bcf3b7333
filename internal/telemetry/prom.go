package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/metrics"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// promEscape escapes a label value per the Prometheus text exposition
// format: backslash, double quote, and newline.
func promEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	// Byte-wise on purpose: escaping must not re-encode (and so corrupt)
	// label values that are not valid UTF-8.
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}

// promValue formats v for exposition; ok is false for NaN/Inf, which
// must not be emitted.
func promValue(v float64) (string, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "", false
	}
	return strconv.FormatFloat(v, 'g', -1, 64), true
}

// countingWriter tracks bytes for the io.WriterTo contract.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) printf(format string, args ...any) {
	if cw.err != nil {
		return
	}
	n, err := fmt.Fprintf(cw.w, format, args...)
	cw.n += int64(n)
	cw.err = err
}

// sample writes one metric line; labels alternate name, value and are
// escaped here. NaN/Inf samples are silently skipped.
func (cw *countingWriter) sample(name string, v float64, labels ...string) {
	val, ok := promValue(v)
	if !ok {
		return
	}
	if len(labels) == 0 {
		cw.printf("%s %s\n", name, val)
		return
	}
	var sb strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=\"%s\"", labels[i], promEscape(labels[i+1]))
	}
	cw.printf("%s{%s} %s\n", name, sb.String(), val)
}

func (cw *countingWriter) family(name, typ, help string) {
	cw.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// summary writes a histogram as a Prometheus summary family: p50/p90/p99
// quantiles plus _sum and _count. scale divides raw sample units into
// exposition units (1e9 for nanosecond-observed duration histograms).
func (cw *countingWriter) summary(name, help string, h *metrics.Hist, scale float64) {
	cw.family(name, "summary", help)
	for _, q := range [...]float64{0.5, 0.9, 0.99} {
		cw.sample(name, float64(h.Quantile(q))/scale, "quantile", strconv.FormatFloat(q, 'g', -1, 64))
	}
	cw.sample(name+"_sum", float64(h.Sum())/scale)
	cw.sample(name+"_count", float64(h.Count()))
}

// WriteTo renders the full Prometheus exposition to w. The scrape is lock-free with
// respect to the serving hot path: histograms and counters are atomics,
// stage fractions are evaluated against the registry clock, and the
// engine counters come from a LiveStats snapshot.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	if r == nil {
		return 0, nil
	}

	cw.family("pipeinfer_up", "gauge", "Serving process is alive.")
	cw.sample("pipeinfer_up", 1)
	cw.family("pipeinfer_ready", "gauge", "Admission is open (see /readyz).")
	cw.sample("pipeinfer_ready", float64(r.ready.Load()))
	cw.family("pipeinfer_breaker_tripped", "gauge", "Repeated-failure breaker is open: speculation off, batch width clamped.")
	cw.sample("pipeinfer_breaker_tripped", float64(r.tripped.Load()))
	cw.family("pipeinfer_overloaded", "gauge", "Admission overload: bounded queue at its bound or a deadline shed within the last window.")
	cw.sample("pipeinfer_overloaded", float64(r.overloaded.Load()))
	cw.family("pipeinfer_brownout_level", "gauge", "Brown-out degradation level (0 healthy, 1 speculation off, 2 prefill share halved too).")
	cw.sample("pipeinfer_brownout_level", float64(r.brownout.Load()))
	cw.family("pipeinfer_sessions_active", "gauge", "Sessions currently holding a slot.")
	cw.sample("pipeinfer_sessions_active", float64(r.active.Load()))
	cw.family("pipeinfer_sessions_queued", "gauge", "Requests waiting for admission.")
	cw.sample("pipeinfer_sessions_queued", float64(r.queued.Load()))
	cw.family("pipeinfer_session_slots", "gauge", "Concurrent session slots.")
	cw.sample("pipeinfer_session_slots", float64(r.slots.Load()))
	cw.family("pipeinfer_prefix_cache_entries", "gauge", "Shared-prefix trie entries registered.")
	cw.sample("pipeinfer_prefix_cache_entries", float64(r.prefixEntries.Load()))
	cw.family("pipeinfer_prefix_cache_tokens", "gauge", "Prompt tokens covered by registered shared prefixes.")
	cw.sample("pipeinfer_prefix_cache_tokens", float64(r.prefixTokens.Load()))

	const ns = float64(time.Second)
	cw.summary("pipeinfer_ttft_seconds", "Per-session time-to-first-token (arrival to prefill completion).", r.TTFT, ns)
	cw.summary("pipeinfer_itl_seconds", "Per-session inter-token latency (gap between consecutive acceptances).", r.ITL, ns)
	cw.summary("pipeinfer_run_service_seconds", "Per-run pipeline service time (busy-pipeline result gaps).", r.RunService, ns)
	cw.summary("pipeinfer_batch_width_rows", "Realised token rows per launched pipeline run.", r.BatchWidth, 1)
	cw.summary("pipeinfer_queue_depth", "Admission-waiting requests per scheduler step.", r.QueueDepth, 1)
	cw.summary("pipeinfer_queue_wait_seconds", "Admission-queue wait per admitted request (submission to slot).", r.QueueWait, ns)

	r.mu.Lock()
	stages := append([]stageEntry(nil), r.stages...)
	links := append([]linkEntry(nil), r.links...)
	builds := append([]buildEntry(nil), r.builds...)
	r.mu.Unlock()

	if len(builds) > 0 {
		cw.family("pipeinfer_model_build_seconds", "gauge", "Time a rank took to derive the weights it holds (cold start, before its first run).")
		for _, b := range builds {
			cw.sample("pipeinfer_model_build_seconds", b.took.Seconds(), "rank", b.name)
		}
	}

	if len(stages) > 0 {
		now := r.Now()
		cw.family("pipeinfer_stage_busy_fraction", "gauge", "Share of the serving window the stage spent evaluating runs.")
		for _, s := range stages {
			cw.sample("pipeinfer_stage_busy_fraction", s.meter.BusyFraction(now), "stage", s.name)
		}
		cw.family("pipeinfer_stage_bubble_fraction", "gauge", "Share of the serving window the stage sat idle (pipeline bubbles, Fig 3).")
		for _, s := range stages {
			cw.sample("pipeinfer_stage_bubble_fraction", s.meter.BubbleFraction(now), "stage", s.name)
		}
		cw.family("pipeinfer_stage_busy_seconds_total", "counter", "Accumulated evaluation time per stage.")
		for _, s := range stages {
			cw.sample("pipeinfer_stage_busy_seconds_total", s.meter.Busy().Seconds(), "stage", s.name)
		}
		cw.family("pipeinfer_stage_evals_total", "counter", "Completed run evaluations per stage.")
		for _, s := range stages {
			cw.sample("pipeinfer_stage_evals_total", float64(s.meter.Evals()), "stage", s.name)
		}
	}

	if len(links) > 0 {
		cw.family("pipeinfer_link_sent_frames_total", "counter", "Frames sent per endpoint.")
		for _, l := range links {
			cw.sample("pipeinfer_link_sent_frames_total", float64(l.c.SentFrames.Load()), "link", l.name)
		}
		cw.family("pipeinfer_link_sent_bytes_total", "counter", "Bytes sent per endpoint (interconnect-model charge).")
		for _, l := range links {
			cw.sample("pipeinfer_link_sent_bytes_total", float64(l.c.SentBytes.Load()), "link", l.name)
		}
		cw.family("pipeinfer_link_recv_frames_total", "counter", "Frames received per endpoint.")
		for _, l := range links {
			cw.sample("pipeinfer_link_recv_frames_total", float64(l.c.RecvFrames.Load()), "link", l.name)
		}
		cw.family("pipeinfer_link_recv_bytes_total", "counter", "Bytes received per endpoint.")
		for _, l := range links {
			cw.sample("pipeinfer_link_recv_bytes_total", float64(l.c.RecvBytes.Load()), "link", l.name)
		}
	}

	cw.family("pipeinfer_flight_events", "gauge", "Events currently held per flight-recorder ring.")
	r.rings.Each(func(name string, ring *trace.Ring) {
		cw.sample("pipeinfer_flight_events", float64(ring.Len()), "ring", name)
	})
	cw.family("pipeinfer_flight_dumps_total", "counter", "Flight dumps taken (watchdog failures and breaker trips).")
	cw.sample("pipeinfer_flight_dumps_total", float64(r.Dumps()))

	s := r.Snapshot()
	for i := range engine.Counters {
		c := &engine.Counters[i]
		cw.family(c.Name, "counter", c.Help)
		cw.sample(c.Name, float64(*c.Stat(&s)))
	}

	return cw.n, cw.err
}
