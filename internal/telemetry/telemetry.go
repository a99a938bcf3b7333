// Package telemetry is the live observability layer: streaming
// histograms for serving latencies, per-stage busy/bubble gauges,
// per-link traffic counters, the pipeline's flight rings (a trace.Set)
// with their dump-on-failure, and the /metrics + health HTTP surface —
// all stdlib-only.
//
// The hot-path contract: every Observe*/Set* method is allocation-free
// and lock-free (atomics only), and every method is nil-receiver-safe,
// so engines and schedulers call them unconditionally whether or not
// telemetry is enabled. Aggregation (Prometheus exposition, flight
// dumps, snapshots) happens on the scrape/failure path and may
// allocate.
package telemetry

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/metrics"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// Registry is one serving process's telemetry root: the histograms,
// gauges, counters and flight rings the /metrics endpoint exposes.
type Registry struct {
	// Streaming latency/width histograms, observed by the scheduler.
	// Durations are recorded in nanoseconds.
	TTFT       *metrics.Hist // time-to-first-token per session
	ITL        *metrics.Hist // inter-token gap per accepted token
	RunService *metrics.Hist // per-run service time (busy-pipeline result gaps)
	BatchWidth *metrics.Hist // realised rows per launched run
	QueueDepth *metrics.Hist // waiting requests per scheduler step
	QueueWait  *metrics.Hist // admission-queue wait per admitted request

	// Health gauges (atomics: written per scheduler event, read by the
	// health endpoints and exposition writer).
	ready      atomic.Int64
	tripped    atomic.Int64
	queued     atomic.Int64
	active     atomic.Int64
	slots      atomic.Int64
	overloaded atomic.Int64
	brownout   atomic.Int64

	// Shared-prefix trie occupancy (PR 9): registered entries and the
	// prompt tokens they cover.
	prefixEntries atomic.Int64
	prefixTokens  atomic.Int64

	rings trace.Set // the pipeline's flight rings: see Flight, DumpFlight

	mu       sync.Mutex
	stages   []stageEntry
	links    []linkEntry
	builds   []buildEntry
	statsFn  func() engine.Stats
	nowFn    func() time.Duration
	dumpPath string
	dumps    int
}

type stageEntry struct {
	name  string
	meter *trace.StageMeter
}

type linkEntry struct {
	name string
	c    *comm.LinkCounters
}

type buildEntry struct {
	name string
	took time.Duration
}

// New creates a registry with all histograms allocated.
func New() *Registry {
	return &Registry{
		TTFT:       &metrics.Hist{},
		ITL:        &metrics.Hist{},
		RunService: &metrics.Hist{},
		BatchWidth: &metrics.Hist{},
		QueueDepth: &metrics.Hist{},
		QueueWait:  &metrics.Hist{},
	}
}

// --- hot-path observation (nil-safe, allocation-free) ---

// ObserveTTFT records one session's time-to-first-token.
func (r *Registry) ObserveTTFT(d time.Duration) {
	if r != nil {
		r.TTFT.ObserveDuration(d)
	}
}

// ObserveITL records the gap between two consecutive acceptances of one
// session.
func (r *Registry) ObserveITL(d time.Duration) {
	if r != nil {
		r.ITL.ObserveDuration(d)
	}
}

// ObserveRunService records one run's service time.
func (r *Registry) ObserveRunService(d time.Duration) {
	if r != nil {
		r.RunService.ObserveDuration(d)
	}
}

// ObserveBatchWidth records a launched run's realised row count.
func (r *Registry) ObserveBatchWidth(rows int) {
	if r != nil {
		r.BatchWidth.Observe(int64(rows))
	}
}

// ObserveQueueDepth records the number of admission-waiting requests.
func (r *Registry) ObserveQueueDepth(n int) {
	if r != nil {
		r.QueueDepth.Observe(int64(n))
	}
}

// ObserveQueueWait records how long an admitted request waited in the
// admission queue before taking a session slot.
func (r *Registry) ObserveQueueWait(d time.Duration) {
	if r != nil {
		r.QueueWait.ObserveDuration(d)
	}
}

// SetReady flips the readiness gauge (serving loop up and admitting).
func (r *Registry) SetReady(ready bool) {
	if r == nil {
		return
	}
	r.ready.Store(b2i(ready))
}

// SetTripped mirrors the scheduler's repeated-failure breaker state.
func (r *Registry) SetTripped(tripped bool) {
	if r == nil {
		return
	}
	r.tripped.Store(b2i(tripped))
}

// SetPressure publishes the scheduler's admission pressure: requests
// still waiting, sessions active, and total session slots.
func (r *Registry) SetPressure(queued, active, slots int) {
	if r == nil {
		return
	}
	r.queued.Store(int64(queued))
	r.active.Store(int64(active))
	r.slots.Store(int64(slots))
}

// SetOverloaded mirrors the scheduler's admission overload state (PR
// 10): the bounded queue at its bound, or a deadline shed within the
// last window. /readyz answers 503 with a Retry-After signal while set.
func (r *Registry) SetOverloaded(overloaded bool) {
	if r == nil {
		return
	}
	r.overloaded.Store(b2i(overloaded))
}

// SetBrownout publishes the scheduler's brown-out degradation level
// (0 = healthy, 1 = speculation dropped, 2 = prefill share halved too).
func (r *Registry) SetBrownout(level int) {
	if r == nil {
		return
	}
	r.brownout.Store(int64(level))
}

// SetPrefixCache publishes the shared-prefix trie's occupancy: entries
// registered and the prompt tokens they cover.
func (r *Registry) SetPrefixCache(entries, tokens int) {
	if r == nil {
		return
	}
	r.prefixEntries.Store(int64(entries))
	r.prefixTokens.Store(int64(tokens))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// --- registration / configuration (setup path) ---

// RegisterStage creates (and returns) the busy/idle meter for one
// pipeline stage.
func (r *Registry) RegisterStage(name string) *trace.StageMeter {
	if r == nil {
		return nil
	}
	m := &trace.StageMeter{}
	r.mu.Lock()
	r.stages = append(r.stages, stageEntry{name, m})
	r.mu.Unlock()
	return m
}

// RegisterLink creates (and returns) the traffic counters for one
// endpoint; wrap the endpoint with comm.Counted to feed them.
func (r *Registry) RegisterLink(name string) *comm.LinkCounters {
	if r == nil {
		return nil
	}
	c := &comm.LinkCounters{}
	r.mu.Lock()
	r.links = append(r.links, linkEntry{name, c})
	r.mu.Unlock()
	return c
}

// Flight is the set every recording goroutine of the pipeline registers
// its flight ring on (nil, and so handing out nil rings, without a
// registry).
func (r *Registry) Flight() *trace.Set {
	if r == nil {
		return nil
	}
	return &r.rings
}

// SetModelBuild records how long one rank took to derive the weights it
// holds (name "draft" for a head's draft model) — the first term of a
// cold start's time to first token. Set once per build, off the hot path.
func (r *Registry) SetModelBuild(name string, took time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.builds = append(r.builds, buildEntry{name, took})
	r.mu.Unlock()
}

// SetStatsFn installs the live engine-counter source (typically
// head.Stats.Snapshot). Called once at startup.
func (r *Registry) SetStatsFn(fn func() engine.Stats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.statsFn = fn
	r.mu.Unlock()
}

// SetNowFn installs the clock the bubble-fraction gauges are evaluated
// against (the endpoint's wall or virtual clock). Called once at
// startup.
func (r *Registry) SetNowFn(fn func() time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.nowFn = fn
	r.mu.Unlock()
}

// SetDumpPath arms automatic flight dumps: on watchdog failure or
// breaker trip the rings are captured and written there (overwriting —
// the last failure wins).
func (r *Registry) SetDumpPath(path string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.dumpPath = path
	r.mu.Unlock()
}

// --- aggregation (scrape / failure path; may allocate) ---

// Snapshot returns the live engine counters (zero value when no stats
// source is installed).
func (r *Registry) Snapshot() engine.Stats {
	if r == nil {
		return engine.Stats{}
	}
	r.mu.Lock()
	fn := r.statsFn
	r.mu.Unlock()
	if fn == nil {
		return engine.Stats{}
	}
	return fn()
}

// EachStage visits the registered stage meters in registration order.
func (r *Registry) EachStage(f func(name string, m *trace.StageMeter)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	stages := append([]stageEntry(nil), r.stages...)
	r.mu.Unlock()
	for _, s := range stages {
		f(s.name, s.meter)
	}
}

// Now evaluates the registry clock the stage gauges are read against
// (0 when unset).
func (r *Registry) Now() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	fn := r.nowFn
	r.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// DumpFlight captures every registered flight ring into a FlightDump
// and — when a dump path is armed — writes it to disk. Called
// automatically on watchdog failure and breaker trip; failures of the
// disk write are reported on stderr, never propagated (observability
// must not take the serving loop down).
func (r *Registry) DumpFlight(reason string) *trace.FlightDump {
	if r == nil {
		return nil
	}
	d := r.rings.Dump(reason)
	r.mu.Lock()
	path := r.dumpPath
	r.dumps++
	r.mu.Unlock()
	if path != "" {
		if err := writeDump(path, d); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: flight dump: %v\n", err)
		}
	}
	return d
}

// writeDump writes d to path. A dump is only on disk once Close has
// flushed it, so Close's error (a full disk) counts like a write's.
func writeDump(path string, d *trace.FlightDump) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(trace.WriteFlightDump(f, d), f.Close())
}

// Dumps reports how many flight dumps have been taken.
func (r *Registry) Dumps() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dumps
}
