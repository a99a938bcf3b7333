package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// TestPromExposition pins the exposition format: the core families are
// present, quantile labels are summary-style, label values are escaped,
// and engine counters flow through the stats source.
func TestPromExposition(t *testing.T) {
	r := New()
	for i := 0; i < 100; i++ {
		r.ObserveTTFT(time.Duration(i+1) * time.Millisecond)
		r.ObserveITL(2 * time.Millisecond)
	}
	r.ObserveBatchWidth(4)
	r.ObserveQueueDepth(3)
	r.ObserveQueueWait(5 * time.Millisecond)
	r.SetReady(true)
	r.SetPressure(2, 4, 8)
	r.SetOverloaded(true)
	r.SetBrownout(2)

	m := r.RegisterStage(`node"1\x`)
	m.Open(0)
	m.Begin(10 * time.Millisecond)
	m.End(60 * time.Millisecond)
	r.SetNowFn(func() time.Duration { return 100 * time.Millisecond })

	c := r.RegisterLink("rank1")
	c.SentFrames.Store(7)
	c.SentBytes.Store(512)

	ring := r.Flight().Ring("head", 64)
	ring.Record(time.Millisecond, trace.FlightLaunch, 1, 3)

	r.SetStatsFn(func() engine.Stats {
		return engine.Stats{Generated: 42, RunsLaunched: 9, BreakerTrips: 1, Sheds: 3, Overloads: 2, DeadlineHits: 5, DeadlineMisses: 1}
	})

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`pipeinfer_ttft_seconds{quantile="0.5"}`,
		`pipeinfer_ttft_seconds{quantile="0.99"}`,
		"pipeinfer_ttft_seconds_sum",
		"pipeinfer_ttft_seconds_count 100",
		`pipeinfer_itl_seconds{quantile="0.9"}`,
		"pipeinfer_ready 1",
		"pipeinfer_sessions_active 4",
		"pipeinfer_sessions_queued 2",
		"pipeinfer_session_slots 8",
		`pipeinfer_stage_busy_fraction{stage="node\"1\\x"} 0.5`,
		`pipeinfer_stage_bubble_fraction{stage="node\"1\\x"} 0.5`,
		`pipeinfer_stage_evals_total{stage="node\"1\\x"} 1`,
		`pipeinfer_link_sent_frames_total{link="rank1"} 7`,
		`pipeinfer_link_sent_bytes_total{link="rank1"} 512`,
		`pipeinfer_flight_events{ring="head"} 1`,
		"pipeinfer_generated_tokens_total 42",
		"pipeinfer_runs_launched_total 9",
		"pipeinfer_breaker_trips_total 1",
		"pipeinfer_overloaded 1",
		"pipeinfer_brownout_level 2",
		`pipeinfer_queue_wait_seconds{quantile="0.5"}`,
		"pipeinfer_queue_wait_seconds_count 1",
		"pipeinfer_shed_deadline_total 3",
		"pipeinfer_shed_overload_total 2",
		"pipeinfer_deadline_hits_total 5",
		"pipeinfer_deadline_misses_total 1",
		"# TYPE pipeinfer_ttft_seconds summary",
		"# TYPE pipeinfer_stage_busy_fraction gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("exposition contains NaN/Inf:\n%s", out)
	}

	// Every non-comment line must be "name value" or "name{labels} value".
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, " ") < 1 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestNilRegistry pins the hot-path contract: every method on a nil
// registry is a safe no-op.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.ObserveTTFT(time.Second)
	r.ObserveITL(time.Second)
	r.ObserveRunService(time.Second)
	r.ObserveBatchWidth(2)
	r.ObserveQueueDepth(2)
	r.ObserveQueueWait(time.Second)
	r.SetReady(true)
	r.SetTripped(true)
	r.SetPressure(1, 2, 3)
	r.SetOverloaded(true)
	r.SetBrownout(1)
	if m := r.RegisterStage("x"); m != nil {
		t.Fatal("nil registry returned a meter")
	}
	if c := r.RegisterLink("x"); c != nil {
		t.Fatal("nil registry returned counters")
	}
	if ring := r.Flight().Ring("x", 0); ring != nil {
		t.Fatal("nil registry returned a ring")
	}
	if d := r.DumpFlight("test"); d != nil {
		t.Fatal("nil registry produced a dump")
	}
	if s := r.Snapshot(); s.Generated != 0 || s.RunsLaunched != 0 || s.AcceptTimes != nil {
		t.Fatal("nil registry produced stats")
	}
	if n, err := r.WriteTo(io.Discard); n != 0 || err != nil {
		t.Fatalf("nil WriteTo: n=%d err=%v", n, err)
	}
}

// TestHealthEndpoints pins /healthz and /readyz semantics across breaker
// and saturation states.
func TestHealthEndpoints(t *testing.T) {
	r := New()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	// Not ready yet: healthz passes (process alive), readyz refuses.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before ready: %d", code)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "not serving") {
		t.Fatalf("readyz before ready: %d %q", code, body)
	}

	r.SetReady(true)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz when ready: %d", code)
	}

	// Saturated: every slot busy and a queue built up.
	r.SetPressure(3, 4, 4)
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "saturated") {
		t.Fatalf("readyz when saturated: %d %q", code, body)
	}
	r.SetPressure(0, 4, 4) // full but nothing waiting: still ready
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz full-but-unqueued: %d", code)
	}

	// Overloaded admission (bounded queue at bound or recent shed, PR
	// 10): readyz answers 503 with a Retry-After back-off hint, healthz
	// stays green (the process is fine, it is just refusing work), and
	// recovery restores 200.
	r.SetOverloaded(true)
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "overloaded") {
		t.Fatalf("readyz when overloaded: %d %q", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("overloaded readyz response missing Retry-After")
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz when overloaded: %d", code)
	}
	r.SetOverloaded(false)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after overload recovery: %d", code)
	}

	// Breaker trip fails both.
	r.SetTripped(true)
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "breaker") {
		t.Fatalf("healthz when tripped: %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz when tripped: %d", code)
	}
	r.SetTripped(false)
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after reset: %d", code)
	}

	// /metrics serves the exposition with the right content type.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	if !strings.Contains(string(body), "pipeinfer_up 1") {
		t.Fatal("metrics body missing pipeinfer_up")
	}
}

// TestServeBindsAndShutsDown exercises the background server lifecycle
// on an ephemeral port.
func TestServeBindsAndShutsDown(t *testing.T) {
	r := New()
	addr, shutdown, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over Serve: %d", resp.StatusCode)
	}
	shutdown()
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still reachable after shutdown")
	}
}

// TestDumpFlight pins ring capture: events from every registered ring
// land in the dump, the dump is counted, and the armed path writes a
// file that round-trips.
func TestDumpFlight(t *testing.T) {
	r := New()
	ring := r.Flight().Ring("head", 64)
	ring.Record(time.Millisecond, trace.FlightLaunch, 7, 2)
	ring.Record(2*time.Millisecond, trace.FlightFail, 7, 0)
	path := t.TempDir() + "/flight.bin"
	r.SetDumpPath(path)

	d := r.DumpFlight("watchdog: run 7 timed out")
	if d == nil || d.Len() != 2 || len(d.Nodes) != 1 || d.Nodes[0].Name != "head" {
		t.Fatalf("dump shape: %+v", d)
	}
	if r.Dumps() != 1 {
		t.Fatalf("dumps counted: %d", r.Dumps())
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := trace.ReadFlightDump(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != d.Reason || got.Len() != 2 {
		t.Fatalf("round-trip: %+v", got)
	}
}

// TestDumpFlightReportsWriteFailure: a dump that cannot reach the disk —
// here the armed path is a directory; a full disk surfaces the same way,
// through Create, Write or Close — is reported, never silently dropped,
// and never takes the caller down: the in-memory dump is still returned.
func TestDumpFlightReportsWriteFailure(t *testing.T) {
	if err := writeDump(t.TempDir(), &trace.FlightDump{}); err == nil {
		t.Fatal("writing a dump over a directory reported no error")
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		// bufio holds the whole small dump until Flush, so the device's
		// ENOSPC arrives on the flush or the close.
		if err := writeDump("/dev/full", &trace.FlightDump{Reason: "full disk"}); err == nil {
			t.Fatal("a dump to a full device reported no error")
		}
	}
	r := New()
	r.SetDumpPath(t.TempDir())
	if d := r.DumpFlight("unwritable"); d == nil || d.Reason != "unwritable" || r.Dumps() != 1 {
		t.Fatal("a failed disk write lost the in-memory dump")
	}
}

// TestCounterFamiliesGolden pins the engine-counter part of /metrics —
// family names, help text, type and order — to what was exposed before
// the families were derived from engine.Counters. Dashboards and CI's
// metrics-smoke key on these strings.
func TestCounterFamiliesGolden(t *testing.T) {
	golden := [][2]string{
		{"pipeinfer_generated_tokens_total", "Tokens produced across sessions."},
		{"pipeinfer_proposed_tokens_total", "Draft tokens offered for verification."},
		{"pipeinfer_accepted_tokens_total", "Draft tokens accepted."},
		{"pipeinfer_runs_launched_total", "Pipeline runs launched."},
		{"pipeinfer_runs_cancelled_total", "Pipeline runs cancelled early."},
		{"pipeinfer_runs_superfluous_total", "Runs whose outputs were entirely pre-accepted."},
		{"pipeinfer_spec_drops_total", "Speculative KV footprints dropped under memory pressure."},
		{"pipeinfer_preemptions_total", "Sessions preempted (namespace evicted, request parked)."},
		{"pipeinfer_readmissions_total", "Parked sessions readmitted by prefix recompute."},
		{"pipeinfer_batched_runs_total", "Multi-session pipeline runs launched."},
		{"pipeinfer_batched_rows_total", "Per-session steps coalesced into batched runs."},
		{"pipeinfer_row_cancels_total", "Session rows masked out of in-flight batches."},
		{"pipeinfer_prefill_batched_runs_total", "Batched runs carrying prompt-prefill chunks."},
		{"pipeinfer_run_timeouts_total", "Runs the watchdog declared failed."},
		{"pipeinfer_recoveries_total", "Sessions recovered by evict + prefix recompute."},
		{"pipeinfer_reconnects_total", "Transport links re-established."},
		{"pipeinfer_breaker_trips_total", "Repeated-failure breaker trips."},
		{"pipeinfer_prefix_hits_total", "Admissions that mapped a published shared prefix."},
		{"pipeinfer_prefix_hit_tokens_total", "Prompt tokens skipped by shared-prefix hits."},
		{"pipeinfer_shed_deadline_total", "Queued requests shed on provably unmeetable TTFT deadlines."},
		{"pipeinfer_shed_overload_total", "Submissions rejected at admission (queue bound or sustainable rate)."},
		{"pipeinfer_deadline_hits_total", "Deadline-carrying served requests that met every configured deadline."},
		{"pipeinfer_deadline_misses_total", "Deadline-carrying served requests that missed a configured deadline."},
	}
	r := New()
	stats := engine.Stats{}
	for i := range engine.Counters {
		*engine.Counters[i].Stat(&stats) = 100 + i
	}
	r.SetStatsFn(func() engine.Stats { return stats })
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The engine counters close the exposition, in table order.
	at := strings.Index(out, "# HELP "+golden[0][0]+" ")
	if at < 0 {
		t.Fatalf("first counter family missing:\n%s", out)
	}
	var want strings.Builder
	for i, g := range golden {
		fmt.Fprintf(&want, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", g[0], g[1], g[0], g[0], 100+i)
	}
	if got := out[at:]; got != want.String() {
		t.Fatalf("engine counter families changed:\n got:\n%s\nwant:\n%s", got, want.String())
	}
}
