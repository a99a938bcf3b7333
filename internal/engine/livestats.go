package engine

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LiveStats is the concurrently mutable form of Stats used on serving
// hot paths: every counter is an atomic.Int64 (which also guarantees
// the 64-bit alignment 32-bit platforms need — no manual field-ordering
// rules), so the telemetry layer can take a consistent-enough Snapshot
// mid-serve without stopping the scheduler. Every counter is a field
// here, its int twin in Stats, and one row of Counters. The few
// non-counter fields (phase timestamps, the acceptance count and last
// timestamp) sit behind a mutex taken only on acceptance events and
// snapshots.
//
// Snapshot consistency rule: counters are read one atomic load at a
// time, so a snapshot is not a single linearization point across
// counters — Accepted may be one event ahead of Proposed, say. Each
// individual counter is exact, monotone, and torn-read-free, which is
// the contract monitoring needs; end-of-run snapshots (taken after the
// scheduler stops) are exact across the board.
type LiveStats struct {
	Generated atomic.Int64

	Proposed      atomic.Int64
	Accepted      atomic.Int64
	RunsLaunched  atomic.Int64
	RunsCancelled atomic.Int64
	Superfluous   atomic.Int64

	SpecDrops    atomic.Int64
	Preemptions  atomic.Int64
	Readmissions atomic.Int64

	BatchedRuns atomic.Int64
	BatchedRows atomic.Int64
	RowCancels  atomic.Int64

	PrefillBatchedRuns atomic.Int64

	RunTimeouts  atomic.Int64
	Recoveries   atomic.Int64
	Reconnects   atomic.Int64
	BreakerTrips atomic.Int64

	PrefixHits      atomic.Int64
	PrefixHitTokens atomic.Int64

	Sheds          atomic.Int64
	Overloads      atomic.Int64
	DeadlineHits   atomic.Int64
	DeadlineMisses atomic.Int64

	DraftYields atomic.Int64

	mu          sync.Mutex
	prefillDone time.Duration
	firstToken  time.Duration
	done        time.Duration
	accepts     int           // acceptance events so far
	lastAccept  time.Duration // timestamp of the latest one
	snap        Stats         // Snapshot's assembly area
}

// Sampled records n acceptances at now and pins the first-token time on
// the first call. It keeps first, last and count — all Stats.ITL reads —
// in O(1) and without allocating, and no per-token log: a live-intake
// server would otherwise keep 8 bytes per token served for as long as it
// runs. Per-request timestamps live in each serving Result's Stats.
func (ls *LiveStats) Sampled(now time.Duration, n int) {
	if n <= 0 {
		return
	}
	ls.mu.Lock()
	ls.accepts += n
	ls.lastAccept = now
	if ls.firstToken == 0 {
		ls.firstToken = now
	}
	ls.mu.Unlock()
}

// PrefillDoneOnce records at as the prefill-finish time only if none is
// set yet (the serving layer's "first session through prefill" rule)
// and reports whether it stored.
func (ls *LiveStats) PrefillDoneOnce(at time.Duration) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.prefillDone != 0 {
		return false
	}
	ls.prefillDone = at
	return true
}

// MarkDone records when generation finished.
func (ls *LiveStats) MarkDone(at time.Duration) {
	ls.mu.Lock()
	ls.done = at
	ls.mu.Unlock()
}

// Snapshot copies the live counters into a plain Stats value, without
// allocating. Safe to call concurrently with scheduler mutation; see the
// type comment for the consistency contract.
func (ls *LiveStats) Snapshot() Stats {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	// Assembled in place: the table's accessors take a *Stats, and a
	// local passed to them would move to the heap on every snapshot.
	s := &ls.snap
	*s = Stats{
		PrefillDone: ls.prefillDone,
		FirstToken:  ls.firstToken,
		Done:        ls.done,
		AcceptCount: ls.accepts,
		LastAccept:  ls.lastAccept,
	}
	for i := range Counters {
		c := &Counters[i]
		*c.Stat(s) = int(c.Live(ls).Load())
	}
	return *s
}

// Counter is one row of the counter table — everything the tree knows
// about a counter besides the two fields that hold it: its /metrics
// family, where the hot path adds to it, where a snapshot lands, and the
// serving summary line it prints on, if any. Adding a counter is a
// LiveStats field, its Stats twin and a row here; Snapshot, the
// exposition and the CLI summaries follow.
type Counter struct {
	Name, Help   string // Prometheus counter family
	Group, Label string // WriteSummary's "group: n label, ..." line ("" = none)
	Live         func(*LiveStats) *atomic.Int64
	Stat         func(*Stats) *int
}

// Counters is the counter table, in exposition order.
var Counters = [...]Counter{
	{"pipeinfer_generated_tokens_total", "Tokens produced across sessions.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.Generated }, func(s *Stats) *int { return &s.Generated }},
	{"pipeinfer_proposed_tokens_total", "Draft tokens offered for verification.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.Proposed }, func(s *Stats) *int { return &s.Proposed }},
	{"pipeinfer_accepted_tokens_total", "Draft tokens accepted.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.Accepted }, func(s *Stats) *int { return &s.Accepted }},
	{"pipeinfer_runs_launched_total", "Pipeline runs launched.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.RunsLaunched }, func(s *Stats) *int { return &s.RunsLaunched }},
	{"pipeinfer_runs_cancelled_total", "Pipeline runs cancelled early.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.RunsCancelled }, func(s *Stats) *int { return &s.RunsCancelled }},
	{"pipeinfer_runs_superfluous_total", "Runs whose outputs were entirely pre-accepted.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.Superfluous }, func(s *Stats) *int { return &s.Superfluous }},
	{"pipeinfer_spec_drops_total", "Speculative KV footprints dropped under memory pressure.", "memory pressure", "spec drops", func(l *LiveStats) *atomic.Int64 { return &l.SpecDrops }, func(s *Stats) *int { return &s.SpecDrops }},
	{"pipeinfer_preemptions_total", "Sessions preempted (namespace evicted, request parked).", "memory pressure", "preemptions", func(l *LiveStats) *atomic.Int64 { return &l.Preemptions }, func(s *Stats) *int { return &s.Preemptions }},
	{"pipeinfer_readmissions_total", "Parked sessions readmitted by prefix recompute.", "memory pressure", "readmissions", func(l *LiveStats) *atomic.Int64 { return &l.Readmissions }, func(s *Stats) *int { return &s.Readmissions }},
	{"pipeinfer_batched_runs_total", "Multi-session pipeline runs launched.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.BatchedRuns }, func(s *Stats) *int { return &s.BatchedRuns }},
	{"pipeinfer_batched_rows_total", "Per-session steps coalesced into batched runs.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.BatchedRows }, func(s *Stats) *int { return &s.BatchedRows }},
	{"pipeinfer_row_cancels_total", "Session rows masked out of in-flight batches.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.RowCancels }, func(s *Stats) *int { return &s.RowCancels }},
	{"pipeinfer_prefill_batched_runs_total", "Batched runs carrying prompt-prefill chunks.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.PrefillBatchedRuns }, func(s *Stats) *int { return &s.PrefillBatchedRuns }},
	{"pipeinfer_run_timeouts_total", "Runs the watchdog declared failed.", "fault tolerance", "run timeouts", func(l *LiveStats) *atomic.Int64 { return &l.RunTimeouts }, func(s *Stats) *int { return &s.RunTimeouts }},
	{"pipeinfer_recoveries_total", "Sessions recovered by evict + prefix recompute.", "fault tolerance", "recoveries", func(l *LiveStats) *atomic.Int64 { return &l.Recoveries }, func(s *Stats) *int { return &s.Recoveries }},
	{"pipeinfer_reconnects_total", "Transport links re-established.", "fault tolerance", "reconnects", func(l *LiveStats) *atomic.Int64 { return &l.Reconnects }, func(s *Stats) *int { return &s.Reconnects }},
	{"pipeinfer_breaker_trips_total", "Repeated-failure breaker trips.", "fault tolerance", "breaker trips", func(l *LiveStats) *atomic.Int64 { return &l.BreakerTrips }, func(s *Stats) *int { return &s.BreakerTrips }},
	{"pipeinfer_prefix_hits_total", "Admissions that mapped a published shared prefix.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.PrefixHits }, func(s *Stats) *int { return &s.PrefixHits }},
	{"pipeinfer_prefix_hit_tokens_total", "Prompt tokens skipped by shared-prefix hits.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.PrefixHitTokens }, func(s *Stats) *int { return &s.PrefixHitTokens }},
	{"pipeinfer_shed_deadline_total", "Queued requests shed on provably unmeetable TTFT deadlines.", "overload control", "shed on TTFT deadline", func(l *LiveStats) *atomic.Int64 { return &l.Sheds }, func(s *Stats) *int { return &s.Sheds }},
	{"pipeinfer_shed_overload_total", "Submissions rejected at admission (queue bound or sustainable rate).", "overload control", "refused at admission", func(l *LiveStats) *atomic.Int64 { return &l.Overloads }, func(s *Stats) *int { return &s.Overloads }},
	{"pipeinfer_deadline_hits_total", "Deadline-carrying served requests that met every configured deadline.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.DeadlineHits }, func(s *Stats) *int { return &s.DeadlineHits }},
	{"pipeinfer_deadline_misses_total", "Deadline-carrying served requests that missed a configured deadline.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.DeadlineMisses }, func(s *Stats) *int { return &s.DeadlineMisses }},
	{"pipeinfer_draft_yields_total", "Drafts the head cut short between layers to consume a waiting result.", "", "", func(l *LiveStats) *atomic.Int64 { return &l.DraftYields }, func(s *Stats) *int { return &s.DraftYields }},
}

// Summary says which of a serving run's mechanisms were configured, and
// so which summary lines print even when their counters read zero.
type Summary struct {
	// PromptTokens, when > 0, is the prompt work submitted with prefix
	// reuse on: the denominator of the prefix-cache line.
	PromptTokens int
	Watchdog     bool // run watchdog armed, or a transport that reconnects
	Overload     bool // an SLO or a queue bound was set
}

// WriteSummary prints the serving CLIs' closing counter report: one line
// per counter group of the table, and the three lines that quote a
// derived figure (prefix work skipped, mean batch width, deadline
// hit-rate).
func (s *Stats) WriteSummary(w io.Writer, o Summary) {
	group := func(name string) {
		var parts []string
		for i := range Counters {
			if c := &Counters[i]; c.Group == name {
				parts = append(parts, fmt.Sprintf("%d %s", *c.Stat(s), c.Label))
			}
		}
		fmt.Fprintf(w, "%s: %s\n", name, strings.Join(parts, ", "))
	}
	group("memory pressure")
	if o.PromptTokens > 0 {
		fmt.Fprintf(w, "prefix cache: %d hits reused %d prompt tokens (%.0f%% of prompt work skipped)\n",
			s.PrefixHits, s.PrefixHitTokens, 100*float64(s.PrefixHitTokens)/float64(o.PromptTokens))
	}
	if s.BatchedRuns > 0 || s.PrefillBatchedRuns > 0 {
		fmt.Fprintf(w, "batching: %d multi-session runs (%d runs carrying prefill chunks), mean width %.1f sessions, %d rows masked out in flight\n",
			s.BatchedRuns, s.PrefillBatchedRuns, s.MeanBatch(), s.RowCancels)
	}
	if o.Watchdog || s.RunTimeouts > 0 {
		group("fault tolerance")
	}
	if !o.Overload && s.Sheds == 0 && s.Overloads == 0 {
		return
	}
	group("overload control")
	if scored := s.DeadlineHits + s.DeadlineMisses; scored > 0 {
		fmt.Fprintf(w, "deadlines: %d/%d served requests met every deadline (%.0f%% hit-rate)\n",
			s.DeadlineHits, scored, 100*float64(s.DeadlineHits)/float64(scored))
	}
}
