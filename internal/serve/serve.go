// Package serve implements the multi-request serving layer: a session
// scheduler that multiplexes N concurrent generation requests over one
// shared pipeline. PipeInfer keeps a single request's pipeline saturated
// with asynchronous speculative runs (§IV-B); the serving layer extends
// the same idea across requests — idle pipeline slots that one session's
// continuous speculation cannot fill are filled by other sessions' runs,
// so the pipeline stays busy even when every individual request is
// latency-bound. Each session is a core.Chain, the PipeInfer machine
// (draft, verify, promote, invalidate) internal/core's single-request
// driver runs, driven here in an event-per-result style so one head thread
// can interleave all of them.
//
// # Session / sequence-namespace contract
//
// Sessions share the physical KV cache of every pipeline stage and are
// isolated purely by sequence-set metadata. The kvcache sequence-id space
// (kvcache.MaxSeqs ids) is statically partitioned into MaxSessions
// disjoint namespaces of SeqsPerSession consecutive ids each
// (kvcache.NamespaceFor): session slot s owns ids
// [s*W, (s+1)*W), its first id is the slot's canonical accepted-token
// sequence, and the remaining W-1 ids are its speculative partitions.
// The contract every session must honour:
//
//   - every KV operation a session issues names only ids inside its own
//     namespace (kvcache.Namespace.ValidOp);
//   - kvcache.OpSeqKeep is forbidden — it would clear every other
//     session's entries;
//   - token positions are session-local (each request counts from 0);
//     disjoint sequence sets are what keep equal positions of different
//     sessions from seeing each other, not the positions themselves;
//   - when a session completes, every id in its namespace is removed over
//     the full position range before the slot is reused, so a recycled
//     slot starts from an empty namespace.
//
// Stages need no per-session state: they demux runs purely through
// engine.RunMsg.Session and the sequence sets carried in token
// placements. Cancellation signals carry globally unique run IDs, so one
// session's early cancellation (§IV-D) can never kill another session's
// runs.
//
// # Scheduling
//
// The scheduler is strictly head-side and single-threaded. Each step it
// (1) admits queued requests to free session slots, then (2) consumes one
// completed run if a result is waiting, otherwise (3) launches one run,
// bounded by the global engine.Config.MaxInflight and a per-session
// speculative quota. Completed sessions drain their in-flight runs,
// release their namespace, and hand the slot to the next queued request —
// continuous session scheduling with no pipeline flush between requests.
//
// Every run is composed (internal/batch) from per-session row groups, up
// to the step's width of them: Config.MaxBatch, or with Config.AutoBatch
// a width picked under that cap from demand, pipeline occupancy and an
// EMA-fitted per-run overhead / per-row cost model (metrics.CostEMA). A
// launch is the first of three passes, visiting sessions round-robin from
// just past the last one launched, that finds work:
//
//  1. Mandatory rows. Every session with a decode step ready — a freshly
//     sampled token, or nothing in flight — contributes its one row, and
//     every prefilling session its next chunk: at most
//     Config.PrefillChunk prompt tokens per run between them (0: a chunk
//     is the whole remaining range, one such chunk per run), shortest
//     remaining prefill first, so a burst of prompts completes one by one
//     instead of every TTFT serialising behind the longest; one group slot
//     is always kept for prefill work. Chunk rows carry their remaining
//     (position, length) range (wire format v3 range extension), so only
//     the row computing the range's final position samples — the rest
//     write KV and forward activations but skip logits and the result
//     frame. Each group is charged against one conservative collective
//     room account on the shadow cache; if nothing fits, the first
//     blocked session escalates through the memory-pressure protocol
//     below and launches alone — and failing that, at width 1, the
//     decode step that gave its slot up to prefill work does.
//  2. Readmission. A parked session whose cancelled runs have all drained
//     and whose full accepted prefix fits in free cells — readmission
//     never evicts anyone — becomes a prefill over that prefix (prefix
//     recompute) and launches its first chunk.
//  3. Speculation. Chains are drafted for every eligible session (one
//     large batch at a time under engine.Config.DisableContinuous) and
//     the largest same-depth group launches as one speculative run, each
//     chain in a fresh partition of its own namespace. Optional work:
//     skipped under memory pressure, while the failure breaker is open
//     and under brown-out.
//
// A solo run is the one-group case: one session's unranged group composes
// to the plain untagged message, so the wire format changes only when a
// run actually coalesces (or carries ranges). Per-row sequence sets keep
// attention per-session-isolated and the kernels compute every row in one
// canonical order, so a session's output is bit-identical to its serial
// reference at any width (TestServeGreedyParity,
// TestServeBatchedGreedyParity).
//
// Results are consumed row group by row group, each handed to its
// session's chain (core.Chain.Stale / Valid / Verify) with the scheduler
// acting on the outcome, and all of one result's promotions plus the
// run's partition cleanup travel as one KV transaction. Cancelling one
// session's work cancels a run that is the session's alone and masks just
// its rows out of a shared one (engine.Head.CancelSession); the last
// stage's result frame carries the sessions it masked, which name the
// rows it leaves out (engine.ResultFrame).
//
// # Memory pressure (PR 3)
//
// Stage KV caches are paged (internal/kvpage) and may be oversubscribed:
// MaxSessions can exceed what the cache holds simultaneously. The
// scheduler mirrors the stages' paged metadata in a head-side shadow
// cache (Config.KV) — every stage replays the head's transaction stream
// in order, so the shadow is a conservative upper bound on any stage's
// occupancy — and gates every launch on it. When a launch would not fit:
//
//  1. drop speculative pages pipeline-wide (kvcache.OpDropSpec per
//     session: unverified chains are discarded, their runs cancelled,
//     their cells freed on every stage — speculation is optional work);
//  2. preempt the lowest-priority idle session (no runs in flight):
//     kvcache.OpEvictShard frees its entire namespace and the request is
//     parked, keeping its slot and accepted tokens but zero KV;
//  3. a parked session is readmitted once the cells for its full prefix
//     are free without evicting anyone: it re-prefills prompt+generated
//     tokens (prefix recompute), chunk by chunk like any prefill, which
//     reproduces the exact cache state it was evicted with — greedy
//     output stays bit-identical to the uninterrupted run.
//
// A session between prefill chunks (mid-prompt, idle) is a victim like
// any other: the namespace eviction frees every placed chunk cell, so
// nothing is stranded, and readmission restarts the prefill from position
// 0 (TestPrefillChunkResume).
// Speculative launches never trigger eviction; they are simply skipped
// under pressure. Victims are chosen lowest Request.Priority first
// (ties: largest footprint) and only at or below the requester's
// priority.
//
// # Fault tolerance (PR 6)
//
// With Config.RunTimeout set, the scheduler arms a run watchdog: every
// launched run carries a deadline (runTimeoutMult times the EMA cost
// model's service-time prediction, clamped to [RunTimeout,
// runTimeoutCap x RunTimeout]), result waits are bounded by the oldest
// run's budget (engine.Head.AwaitResultWithin over comm.Waiter), and
// results carry their run's ID so a lost result is detected the moment a
// newer one arrives (per-stream FIFO order makes the gap a proof, not a
// guess). A
// failed run's sessions are recovered through the same machinery
// preemption built: in-flight runs cancelled, the namespace evicted
// pipeline-wide (kvcache.OpEvictShard), the session parked, and
// prefix-recompute readmission re-derives the greedy stream
// bit-identically — the lost result's sampled token falls out of the
// recomputed prefill. Other sessions' rows of a shared run complete
// normally. Repeated consecutive failures trip a
// degradation breaker (speculation off, batch width one) so a
// persistently faulty link degrades throughput instead of feeding an
// evict/readmit storm; sustained healthy completions reset it. Counters:
// Stats.RunTimeouts, Recoveries, BreakerTrips.
//
// # Prefix reuse (PR 9)
//
// With Config.PrefixCache (and a shadow cache), completed cold prefills
// publish their prompt's page-aligned prefix into a block-hash trie
// (internal/prefixcache) keyed over prompt tokens at KV-page
// granularity, and the underlying pages become immutable, refcounted
// shared pages (kvcache.OpSharePrefix). Admission probes the trie: a hit
// maps the matched page chain read-only into the new session's shard
// (kvcache.OpMapShared) — no copying, no recompute — and prefill starts
// at the divergence point. Both ops ride the ordinary pipelined KV
// transaction stream, so the head shadow and every stage build identical
// logical state in transaction order; the trie itself is pure policy and
// lives only at the head. Eviction composes: OpEvictShard and namespace
// removal only delist shared pages from the departing shard (a decref,
// never a free — a mapped session is never stranded), unreferenced trie
// entries are evicted LRU under memory pressure (a stage of ensureRoom
// before speculation dropping; for a parked session only as Step's last
// resort before a stall), and the run-down flush releases every registry
// hold so the drained cache ends at zero used cells. Shared cells hold
// exactly the K/V rows a cold prefill of the same tokens would write, so
// greedy output is bit-identical for hit and cold sessions
// (TestServeSharedPrefixParity).
//
// # Overload control (PR 10)
//
// Requests arrive live: Scheduler.Submit enqueues while serving runs
// (New's static slice is a thin wrapper that Submits everything and
// Closes intake), and per-request validation records an error Result
// instead of failing the whole serve. Waiting requests sit in a bounded
// deadline-aware queue (internal/overload) ordered by earliest feasible
// deadline with priority aging (low-priority work is never starved),
// and are shed the moment their TTFT deadline becomes provably
// unmeetable under the cost model's optimistic wait bound. The
// shed-before-compute invariant: only queued requests are ever shed —
// an admitted session always runs to completion, so survivors' greedy
// outputs are bit-identical to an unloaded serve. Admission control
// refuses submissions beyond the bounded queue — or, once the cost fit
// has converged, beyond the sustainable-rate estimate that proves the
// queued backlog alone pushes the request past its TTFT budget — with a
// distinguishable ErrOverloaded result (surfaced as 503 + Retry-After
// through /readyz). Between healthy and shedding sits the brown-out
// ladder: as the queue fills (or queued TTFT slack falls under the
// observed queue wait), speculation is dropped first, then the
// prefill-chunk budget is halved — optional work degrades before any
// mandatory work is refused or shed.
//
// Steady-state decode is allocation-free: run messages, tracking records
// and wire buffers all cycle through pools, so a session decoding
// mid-stream performs no heap allocation per accepted token (gated by
// TestServeStepAllocs and TestServeBatchedStepAllocs in backend/realbk).
package serve

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/batch"
	"github.com/pipeinfer/pipeinfer/internal/core"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/metrics"
	"github.com/pipeinfer/pipeinfer/internal/overload"
	"github.com/pipeinfer/pipeinfer/internal/prefixcache"
	"github.com/pipeinfer/pipeinfer/internal/telemetry"
	"github.com/pipeinfer/pipeinfer/internal/token"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// Request is one queued generation request.
type Request struct {
	Prompt []token.Token
	// MaxNew is the number of tokens to generate (defaults to the engine
	// config's MaxNew).
	MaxNew int
	// Priority orders sessions under memory pressure: when the scheduler
	// must preempt, it parks the idle session with the lowest priority
	// first, and a session never evicts one of higher priority. It also
	// biases admission-queue ordering (PR 10): higher-priority requests
	// rank as if their deadline were earlier. 0 is the default class.
	Priority int
	// TTFTDeadline, when nonzero, is the absolute latest time — on the
	// endpoint clock (engine.Endpoint.Now: wall for real transports,
	// virtual under simbk) — the request's first token may appear. A
	// queued request whose TTFT deadline becomes provably unmeetable is
	// shed (ErrShedDeadline) before any prefill compute is spent on it;
	// a served request scores a deadline hit or miss at completion.
	TTFTDeadline time.Duration
	// Deadline, when nonzero, is the absolute completion deadline on the
	// same clock: it biases queue ordering and scores hit/miss at
	// completion, but is never shed on — only TTFT infeasibility is
	// provable while a request still waits.
	Deadline time.Duration
}

// Result is one request's outcome. Err is nil for a served request; a
// rejected or shed request carries a sentinel-wrapped error (ErrInvalid,
// ErrOverloaded, ErrShedDeadline) and no tokens — no request is ever
// silently dropped.
type Result struct {
	Tokens []token.Token
	Stats  engine.Stats
	Err    error
}

// Sentinel errors distinguishing the ways a request can settle without
// being served; Result.Err wraps exactly one of them (match with
// errors.Is).
var (
	// ErrInvalid marks a request that could never be served: an empty
	// prompt, a Submit after Close, or a footprint that cannot fit the
	// KV capacity even with the whole cache to itself.
	ErrInvalid = errors.New("serve: invalid request")
	// ErrOverloaded marks a request refused by admission control: the
	// bounded queue is at its bound, or the sustainable-rate estimate
	// proves the queued backlog alone already exceeds the request's TTFT
	// budget. Retry later.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrShedDeadline marks a queued request shed because its TTFT
	// deadline became provably unmeetable before a slot freed.
	ErrShedDeadline = errors.New("serve: shed")
)

// Config tunes the serving layer.
type Config struct {
	// MaxSessions is the number of concurrent session slots (defaults to
	// min(4, number of requests)).
	MaxSessions int
	// SeqsPerSession is each session's namespace width: 1 canonical
	// sequence plus SeqsPerSession-1 speculative partitions. Defaults to
	// 4 when Speculate is set, 1 otherwise. MaxSessions*SeqsPerSession
	// must not exceed kvcache.MaxSeqs.
	SeqsPerSession int
	// Speculate enables per-session continuous speculation (requires a
	// drafting head backend and SeqsPerSession >= 2).
	Speculate bool
	// NeedCtx must be set for backends whose Results interpretation needs
	// the run's context tokens (the simulated backend). The real backend
	// decodes logits directly and leaves it false, which keeps the decode
	// hot path snapshot-free.
	NeedCtx bool
	// OnToken, when non-nil, streams every accepted token as it is
	// sampled, tagged with the request index.
	OnToken func(req int, tok token.Token)
	// KV mirrors the stage caches' paged layout at the head: the shadow
	// cache admission control runs against. KV.Cells == 0 disables
	// memory-pressure handling (the scheduler then assumes stages are
	// provisioned for the worst case, as pre-PR-3 callers did).
	KV kvpage.Config
	// OnPreempt / OnReadmit, when non-nil, observe the memory-pressure
	// protocol: a request parked (KV footprint evicted pipeline-wide) and
	// a parked request readmitted via prefix recompute.
	OnPreempt func(req int)
	OnReadmit func(req int)
	// MaxBatch is the batch width: up to MaxBatch sessions' row groups —
	// decode steps and prefill chunks, or same-depth speculative chain
	// segments — are composed into one pipeline run (internal/batch),
	// amortising per-run overhead at high session counts. 0 or 1 is
	// width 1: every run carries one session's group.
	MaxBatch int
	// PrefillChunk is the per-run prefill token budget: each composed run
	// carries at most PrefillChunk prompt tokens — one long prompt's
	// chunk, or several sessions' small ones — so a burst of new sessions
	// completes prompt by prompt (shortest remaining first) instead of
	// serialising TTFT behind the longest prompt at the head of the FIFO.
	// 0 (the default) sends a prompt's whole remaining range as one
	// chunk, one such chunk per run.
	PrefillChunk int
	// AutoBatch replaces the static batch width with the adaptive
	// controller (-batch=auto on the CLIs): MaxBatch becomes a hard cap
	// (defaulting to MaxSessions) and the effective width of each step is
	// picked from demand (active sessions plus queued requests), pipeline
	// occupancy, and the EMA-fitted per-run overhead vs per-row cost
	// (metrics.CostEMA) — batches shrink to exactly what is ready while
	// the pipeline drains, and widen toward the cap under backlog while
	// the measured overhead says coalescing still pays.
	AutoBatch bool
	// RunTimeout arms the run watchdog (PR 6): every launched run gets a
	// completion deadline, and a run whose result misses it — a stalled
	// stage, a lost result frame, a dead link — is failed instead of
	// hanging the scheduler forever. Each affected session is recovered
	// through the preemption machinery (namespace evicted pipeline-wide,
	// session parked) and prefix-recompute readmission re-derives its
	// greedy stream bit-identically. The deadline is runTimeoutMult times
	// the EMA cost model's predicted service time, clamped to
	// [RunTimeout, runTimeoutCap x RunTimeout]; RunTimeout itself is the
	// floor that stands alone until the fit converges. 0 disables the
	// watchdog (the default — fault tolerance is opt-in).
	RunTimeout time.Duration
	// OnRecover, when non-nil, observes fault recovery: a session evicted
	// and parked for prefix-recompute readmission because a run it was
	// riding in timed out or had its result lost.
	OnRecover func(req int)
	// PrefixCache enables cross-session prompt-prefix reuse (PR 9):
	// completed cold prefills publish their page-aligned prompt prefix as
	// immutable refcounted shared pages, and later admissions whose
	// prompt matches map the published chain read-only into their own
	// shard instead of recomputing it — prefill starts at the divergence
	// point, so a shared system prompt is computed once and TTFT for hit
	// sessions drops to the divergent suffix. Requires the shadow cache
	// (KV.Cells > 0); ignored without it.
	PrefixCache bool
	// MaxQueue bounds the admission queue (PR 10): at most MaxQueue
	// requests wait for a session slot, and a Submit beyond the bound is
	// rejected with an ErrOverloaded result instead of queueing
	// unboundedly. The bound also anchors the brown-out ladder:
	// speculation drops at half occupancy, the prefill-chunk budget
	// halves at three quarters. 0 (the default) keeps the legacy
	// unbounded queue.
	MaxQueue int
	// Obs, when non-nil, is the live telemetry registry (PR 7): the
	// scheduler streams TTFT, inter-token latency, per-run service time,
	// realised batch width and queue depth into its histograms, mirrors
	// breaker and admission-pressure state into its health gauges, and
	// arms automatic flight-recorder dumps on watchdog failure and
	// breaker trip. Every observation is an atomic update — enabling
	// telemetry adds no allocation and no lock to the serving hot path.
	Obs *telemetry.Registry
}

// Normalize fills the derived session-layout defaults: slot count
// bounded by the request count, namespace width 1 without speculation
// and 4 with. Backends call it before sizing stage caches so the layout
// they provision is exactly the one the scheduler partitions.
func (c Config) Normalize(numRequests int) Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4
		if numRequests > 0 && numRequests < c.MaxSessions {
			c.MaxSessions = numRequests
		}
	}
	if c.SeqsPerSession <= 0 {
		c.SeqsPerSession = 1
		if c.Speculate {
			c.SeqsPerSession = 4
		}
	}
	return c
}

type sessState uint8

const (
	statePrefill sessState = iota
	stateDecode
	stateDrain
	// stateParked: the session was preempted — its whole KV namespace
	// evicted on every stage — and waits, holding its slot and accepted
	// tokens, until the cells for its full prefix are free again.
	stateParked
)

// session is one request's in-flight generation state: its speculation
// chain plus what only a scheduler needs to know about it.
type session struct {
	// Accepted tokens (prompt included), pending chain, reactive cutoff.
	core.Chain

	req  int // request index
	slot int // namespace slot == RunMsg.Session
	ns   kvcache.Namespace
	// alloc hands out the namespace's speculative ids (nil when width 1).
	alloc    *kvcache.SeqAllocator
	canonSet kvcache.SeqSet

	prompt   int
	maxNew   int
	priority int

	// arrived anchors the session's streaming TTFT observation: the
	// wall/virtual time the request was submitted (PR 10: queue wait
	// counts against the user-visible latency and the TTFT deadline).
	arrived time.Duration

	// SLO deadlines (PR 10), absolute on the endpoint clock; 0 = none.
	// Scored at finalize against stats.PrefillDone / stats.Done.
	ttftDL   time.Duration
	deadline time.Duration

	state       sessState
	wantNonSpec bool
	// readmitted marks a prefill as a post-preemption prefix recompute:
	// its sampled token is a timed mid-stream acceptance, not the
	// untimed prompt-sampled one.
	readmitted bool

	// Prefill progress (meaningful only while the session is in
	// statePrefill): the prefill covers accepted[0:fillTarget], of which
	// [0:fillSent) has been launched in chunks and [0:fillDone) has
	// completed at the stages. fillTarget is the prompt length for a
	// fresh admission and the full accepted prefix for a readmission,
	// which restarts both counters (the namespace eviction that parked
	// the session discarded every placed chunk).
	fillTarget int
	fillSent   int
	fillDone   int

	// Prefix reuse (PR 9): the shared-prefix entry this session maps
	// (-1 when none) and how many leading tokens of accepted it covers —
	// positions [0, prefixLen) live in read-only shared pages and are
	// never recomputed; prefill starts at prefixLen. Parking drops the
	// mapping (the namespace eviction delists the shared pages) and
	// readmission re-probes the trie from scratch.
	prefixEntry int
	prefixLen   int

	stats engine.Stats
}

func (s *session) generated() int { return len(s.Accepted) - s.prompt }

// specRuns reports a speculative run of the session still in the
// pipeline: each holds a speculative partition until its result is consumed.
func (s *session) specRuns() bool {
	return s.alloc != nil && s.alloc.Available() < s.ns.Width-1
}

// inflight reports the session's in-flight run count straight from the
// head FIFO's per-session accounting — the single source of truth.
func (s *Scheduler) inflight(sess *session) int {
	return s.h.SessionInflight(uint16(sess.slot))
}

// Scheduler multiplexes requests over one engine.Head.
type Scheduler struct {
	h   *engine.Head
	cfg Config

	// reqs/results are append-only registries (PR 10): Submit assigns
	// the next request index and its Result slot; done counts settled
	// requests — served, rejected, or shed.
	reqs    []Request
	results []Result
	done    int

	// queue holds submitted-but-unadmitted requests (PR 10): the
	// bounded, deadline-aware admission queue with priority aging.
	// closed marks the end of intake (Close); Done requires it.
	queue  *overload.Queue
	closed bool

	// Brown-out ladder (PR 10): level 0 healthy, 1 speculation dropped,
	// 2 prefill-chunk budget also halved. stepsSinceShed drives the
	// /readyz "shed recently" overload window; queueWaitEMA tracks the
	// recently observed admission waits the slack escalation rule
	// compares deadline headroom against.
	brownout       int
	stepsSinceShed int
	queueWaitEMA   time.Duration

	slots   []*session
	rr      int
	specCap int

	total int // accepted tokens across all sessions

	// kv is the head-side shadow of every stage's paged KV metadata (nil
	// when Config.KV is unset): launches occupy it, KV transactions apply
	// to it, and admission control reads it. Because stages replay the
	// head's transaction stream in order — and skip occupancy only for
	// runs cancelled in flight — the shadow is a conservative (never
	// under-counting) bound on any stage's occupancy at the matching
	// point of the stream, which is what makes its CanPlace verdicts safe.
	kv *kvpage.Cache

	// prefix is the shared-prefix trie (PR 9; nil unless
	// Config.PrefixCache and a shadow cache): prompt-token block hashes
	// to published shared-prefix entries. Pure head-side policy — the
	// refcounted page chains it hands out are resolved per cache by the
	// transaction stream.
	prefix *prefixcache.Table

	// composer builds every run from the step's staged row groups.
	composer batch.Composer

	// runCost is the adaptive width controller's EMA-fitted per-run cost
	// model (Config.AutoBatch, and the watchdog's deadline derivation
	// under Config.RunTimeout); lastResultAt anchors the service-time
	// observations it is fed.
	runCost      metrics.CostEMA
	lastResultAt time.Duration

	// Degradation breaker (PR 6): failStreak counts consecutive
	// watchdog-failed runs; at breakerTripAfter the breaker trips —
	// speculation is disabled and the batch width collapses to one — so
	// a persistently faulty link degrades throughput instead of feeding
	// an evict/readmit storm with speculative work that will be lost.
	// okStreak consecutive healthy completions reset it.
	failStreak int
	okStreak   int
	tripped    bool

	// obs mirrors cfg.Obs (nil when telemetry is disabled; every call on
	// it is nil-safe and allocation-free).
	obs *telemetry.Registry

	// Reusable scratch: all uses are synchronous within one step.
	msgPool  []*engine.RunMsg
	ops      []kvcache.Op
	txn      []kvcache.Op // one consumed result's KV transaction
	victims  []*engine.Run
	ctx      []token.Token
	kvCells  []int
	rowMeta  []kvcache.TokenMeta
	ready    []*session
	chunkSel []*session
	chunkLen []int
	specSel  []*session
	specBuf  []token.Token
	specLen  []int
	ctxPool  [][][]token.Token
}

// New validates the configuration and builds a scheduler over h with
// the whole workload known up front: every request is Submitted and
// intake is Closed before the first Step — the thin static wrapper over
// the live-intake path (NewLive). The head must be freshly constructed:
// the scheduler owns its FIFO and stats. A request that fails
// per-request validation settles with an error Result (ErrInvalid /
// ErrOverloaded) while the rest serve normally; only configuration
// errors fail construction.
func New(h *engine.Head, cfg Config, reqs []Request) (*Scheduler, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serve: no requests")
	}
	s, err := build(h, cfg.Normalize(len(reqs)))
	if err != nil {
		return nil, err
	}
	for _, r := range reqs {
		s.Submit(r)
	}
	s.Close()
	return s, nil
}

// NewLive builds a scheduler with live intake open: requests arrive via
// Submit while serving runs, and Close marks the end of intake. Like
// the scheduler itself, Submit and Close are head-side calls — invoke
// them from the goroutine driving Step (between steps, or from OnToken
// callbacks), never concurrently with it.
func NewLive(h *engine.Head, cfg Config) (*Scheduler, error) {
	return build(h, cfg.Normalize(0))
}

// build validates the (already normalized) configuration and assembles
// the scheduler with an empty request registry.
func build(h *engine.Head, cfg Config) (*Scheduler, error) {
	if cfg.Speculate && cfg.SeqsPerSession < 2 {
		return nil, fmt.Errorf("serve: speculation needs SeqsPerSession >= 2, got %d", cfg.SeqsPerSession)
	}
	if cfg.MaxSessions*cfg.SeqsPerSession > kvcache.MaxSeqs {
		return nil, fmt.Errorf("serve: %d sessions x %d seqs exceed the %d sequence ids",
			cfg.MaxSessions, cfg.SeqsPerSession, kvcache.MaxSeqs)
	}
	if cfg.AutoBatch && cfg.MaxBatch <= 1 {
		// Auto mode without an explicit cap: the controller may widen all
		// the way to one row group per session slot.
		cfg.MaxBatch = cfg.MaxSessions
	}
	cfg.MaxBatch = max(1, min(cfg.MaxBatch, cfg.MaxSessions))
	s := &Scheduler{
		h:       h,
		cfg:     cfg,
		queue:   overload.New(overload.Config{Bound: cfg.MaxQueue}),
		slots:   make([]*session, cfg.MaxSessions),
		specCap: max(2, h.CFG.MaxInflight/cfg.MaxSessions),
		// A fresh scheduler has not shed recently.
		stepsSinceShed: shedRecentWindow,
	}
	if cfg.KV.Cells > 0 {
		// The shadow must partition shards exactly like the stages do.
		cfg.KV.ShardSeqs = cfg.SeqsPerSession
		s.cfg.KV = cfg.KV
		s.kv = kvpage.New(cfg.KV)
		if cfg.PrefixCache {
			s.prefix = prefixcache.New(prefixcache.Config{PageSize: s.kv.PageSize()})
		}
	}
	// The flight recorder is always on: a bounded ring of binary events
	// costs two atomic stores per record and is what makes a watchdog
	// failure or breaker trip diagnosable after the fact.
	if h.Flight == nil {
		h.Flight = trace.NewRing(0)
	}
	if cfg.Obs != nil {
		s.obs = cfg.Obs
		s.obs.Flight().Attach("head", h.Flight)
		s.obs.SetStatsFn(h.Stats.Snapshot)
		s.obs.SetNowFn(h.EP.Now)
		s.obs.SetPressure(0, 0, cfg.MaxSessions)
		s.obs.SetReady(true)
	}
	return s, nil
}

// shedRecentWindow is the /readyz overload memory, in scheduler steps:
// after a shed, the registry reports overloaded until this many steps
// pass without another one, so a scraper sees the 503 even when the
// queue has already drained past its bound.
const shedRecentWindow = 256

// Submit validates and enqueues one request, returning its request
// index; the per-request outcome lands in the matching Result slot. An
// invalid request (ErrInvalid) or one refused by admission control
// (ErrOverloaded) settles immediately with an error Result — one bad or
// excess request never fails the serve. Head-side only: call from the
// goroutine driving Step, never concurrently with it.
func (s *Scheduler) Submit(r Request) int {
	i := len(s.reqs)
	if r.MaxNew <= 0 {
		r.MaxNew = s.h.CFG.MaxNew
	}
	s.reqs = append(s.reqs, r)
	s.results = append(s.results, Result{})
	switch {
	case s.closed:
		s.reject(i, fmt.Errorf("%w: request %d submitted after Close", ErrInvalid, i))
	case len(r.Prompt) == 0:
		s.reject(i, fmt.Errorf("%w: request %d has an empty prompt", ErrInvalid, i))
	case s.cfg.KV.Cells > 0 && len(r.Prompt)+r.MaxNew > s.cfg.KV.Cells:
		// Oversubscription is fine — preemption parks whole sessions —
		// but a single request that cannot fit alone can never finish.
		s.reject(i, fmt.Errorf("%w: request %d needs %d KV cells but capacity is %d",
			ErrInvalid, i, len(r.Prompt)+r.MaxNew, s.cfg.KV.Cells))
	default:
		now := s.h.EP.Now()
		if err := s.overloadCheck(i, r, now); err != nil {
			s.h.Stats.Overloads.Add(1)
			s.reject(i, err)
			break
		}
		s.queue.Push(overload.Item{
			ID:           i,
			Priority:     r.Priority,
			Arrived:      now,
			TTFTDeadline: r.TTFTDeadline,
			Deadline:     r.Deadline,
			Cost:         len(r.Prompt),
		})
	}
	s.observePressure()
	return i
}

// overloadCheck is the admission controller (PR 10): a submission is
// refused when the bounded queue is at its bound, or — once the cost
// model has converged — when the sustainable-rate estimate proves the
// queued backlog alone already pushes the request past its TTFT
// deadline, so queueing it could only shed it later.
func (s *Scheduler) overloadCheck(i int, r Request, now time.Duration) error {
	if s.queue.Full() {
		return fmt.Errorf("%w: request %d refused, admission queue at bound %d",
			ErrOverloaded, i, s.queue.Bound())
	}
	if r.TTFTDeadline > 0 {
		if pr := s.runCost.PerRow(); pr > 0 {
			wait := time.Duration(pr * float64(s.queue.CostSum()+len(r.Prompt)) * float64(time.Second))
			if now+wait > r.TTFTDeadline {
				return fmt.Errorf("%w: request %d refused, sustainable rate puts first token at %v, past the %v TTFT deadline",
					ErrOverloaded, i, now+wait, r.TTFTDeadline)
			}
		}
	}
	return nil
}

// Close marks the end of request intake: no further Submit is accepted,
// and the scheduler is Done once every submitted request has settled.
// The static New path closes intake itself.
func (s *Scheduler) Close() { s.closed = true }

// reject settles request i without serving it: the error Result is
// recorded and the request counts toward completion — rejected and shed
// requests are always reported, never silently dropped.
func (s *Scheduler) reject(i int, err error) {
	s.results[i] = Result{Err: err}
	s.done++
}

// Done reports whether intake is closed and every submitted request has
// settled (served, rejected, or shed).
func (s *Scheduler) Done() bool { return s.closed && s.done == len(s.reqs) }

// TotalAccepted returns the number of tokens accepted across all sessions
// so far (the serving alloc gate steps until this advances).
func (s *Scheduler) TotalAccepted() int { return s.total }

// Run drives the scheduler until every request has settled and returns
// the per-request results in request order. Run may be called with
// intake still open only if further Submits arrive from its own
// callbacks (OnToken) and Close is eventually called from one — a
// drained scheduler with open intake has no event that could wake it,
// so Run fails fast instead of spinning.
func (s *Scheduler) Run() ([]Result, error) {
	for !s.Done() {
		if !s.closed && s.idle() {
			return nil, fmt.Errorf("serve: intake open with no work in flight (Close intake or drive Step directly)")
		}
		if err := s.Step(); err != nil {
			return nil, err
		}
	}
	// Release every shared-prefix registry hold so the drained pipeline
	// ends with zero used cells (all sessions are done, so every entry is
	// inactive and the evictions free the shared pages everywhere).
	s.flushPrefix()
	s.h.Stats.MarkDone(s.h.EP.Now())
	s.h.Stats.Generated.Store(int64(s.total))
	s.obs.SetReady(false)
	s.h.Shutdown()
	return s.results, nil
}

// Step performs one scheduling action: admit queued requests to free
// slots, then consume one completed run if a result is waiting, otherwise
// launch one run (round-robin over sessions), otherwise block for the
// pipeline.
func (s *Scheduler) Step() error {
	if s.Done() {
		return nil
	}
	s.admit()
	// admit may settle the final pending requests by shedding them: if
	// everything is done now, this step is complete — falling through
	// would misreport a drained scheduler as stalled (and an error return
	// from Run skips the pipeline shutdown, deadlocking worker ranks).
	if s.Done() {
		return nil
	}
	if s.h.ResultWaiting() {
		return s.handleResult()
	}
	if s.tryLaunch() {
		return nil
	}
	if s.h.Inflight() > 0 {
		return s.handleResult()
	}
	if !s.closed && s.idle() {
		return nil // live intake: nothing to do until the next Submit
	}
	// No event is coming that could free a cell.
	if s.lastResort() {
		return nil
	}
	return fmt.Errorf("serve: scheduler stalled with %d/%d requests done: %s", s.done, len(s.reqs), s.stateDump())
}

// lastResort spends the prefix trie on a scheduler that would otherwise
// report a stall; true means the next step has something new to try. Only
// Step calls it: in the ordinary passes these evictions would flush the
// trie at every tight moment and cost the hits it exists for. A parked
// session, which readmits without evicting anyone, here evicts
// unreferenced entries until its prefix fits. Failing that, a running
// session may be pinning the very page it is short of: the entry it maps
// can run deeper than its mapping (a partial match against a longer
// prompt), and the registry holds every page of an entry that anyone
// references. Its own shard keeps the pages it uses, so it lets the entry
// go, for ensureRoom's stage 0 to evict.
func (s *Scheduler) lastResort() bool {
	for i := range s.slots {
		sess := s.slots[(s.rr+i)%len(s.slots)]
		if sess != nil && sess.state == stateParked && s.evictPrefixFor(sess, len(sess.Accepted)) && s.readmit(sess) {
			return true
		}
	}
	released := false
	for _, sess := range s.slots {
		if sess != nil && sess.prefixEntry >= 0 {
			s.unrefPrefix(sess)
			released = true
		}
	}
	return released
}

var stateNames = [...]string{statePrefill: "prefill", stateDecode: "decode", stateDrain: "drain", stateParked: "parked"}

// stateDump renders what a stalled scheduler holds, for the error that
// says so: queue, shadow cache, prefix trie and every occupied slot.
func (s *Scheduler) stateDump() string {
	d := fmt.Sprintf("%d queued", s.queue.Len())
	if s.kv != nil {
		d += fmt.Sprintf("; shadow %d/%d cells used, %d free pages, %d shared pages",
			s.kv.Used(), s.kv.Size(), s.kv.FreePages(), s.kv.SharedPages())
	}
	if s.prefix != nil {
		d += fmt.Sprintf("; trie %d entries over %d tokens", s.prefix.Len(), s.prefix.Tokens())
	}
	for _, sess := range s.slots {
		if sess == nil {
			continue
		}
		d += fmt.Sprintf("; slot %d: request %d %s, accepted %d of %d+%d, fill %d/%d/%d, maps entry %d over %d, %d runs in flight",
			sess.slot, sess.req, stateNames[sess.state], len(sess.Accepted), sess.prompt, sess.maxNew,
			sess.fillTarget, sess.fillSent, sess.fillDone, sess.prefixEntry, sess.prefixLen, s.inflight(sess))
		if s.kv != nil {
			d += fmt.Sprintf(", shard %d cells", s.kv.ShardUsed(sess.canonSet))
		}
	}
	return d
}

// idle reports a scheduler with nothing to do right now: an empty
// admission queue, no active sessions, nothing in flight.
func (s *Scheduler) idle() bool {
	if s.queue.Len() > 0 || s.h.Inflight() > 0 {
		return false
	}
	for _, sl := range s.slots {
		if sl != nil {
			return false
		}
	}
	return true
}

// admit sheds queued requests whose TTFT deadline is provably
// unmeetable, moves the most urgent survivors into free session slots,
// then publishes the step's admission pressure (queue depth and wait
// histograms, health gauges) and recomputes the brown-out level.
func (s *Scheduler) admit() {
	defer s.observePressure()
	if s.stepsSinceShed < shedRecentWindow {
		s.stepsSinceShed++
	}
	if s.queue.Len() == 0 {
		return
	}
	now := s.h.EP.Now()
	// Shed before popping: a doomed request must never take a slot a
	// feasible one could use — and a running session is never shed.
	s.shedUnmeetable(now)
	for s.queue.Len() > 0 {
		slot := -1
		for i, sl := range s.slots {
			if sl == nil {
				slot = i
				break
			}
		}
		if slot < 0 {
			return
		}
		it, ok := s.queue.Pop()
		if !ok {
			return
		}
		req := s.reqs[it.ID]
		ns := kvcache.NamespaceFor(slot, s.cfg.SeqsPerSession)
		sess := &session{
			req:      it.ID,
			slot:     slot,
			ns:       ns,
			alloc:    ns.SpecAllocator(),
			canonSet: kvcache.NewSeqSet(ns.Canonical()),
			Chain: core.Chain{
				Accepted: make([]token.Token, len(req.Prompt), len(req.Prompt)+req.MaxNew+2),
				Cutoff:   s.h.CFG.SpecCutoff,
				Canon:    ns.Canonical(),
			},
			prompt:      len(req.Prompt),
			maxNew:      req.MaxNew,
			priority:    req.Priority,
			ttftDL:      req.TTFTDeadline,
			deadline:    req.Deadline,
			fillTarget:  len(req.Prompt),
			prefixEntry: -1,
		}
		copy(sess.Accepted, req.Prompt)
		// TTFT anchors at submission, not admission: queue wait is part
		// of the latency this user experienced.
		sess.arrived = it.Arrived
		sess.stats.AcceptTimes = make([]time.Duration, 0, req.MaxNew)
		wait := now - it.Arrived
		s.queueWaitEMA = (4*s.queueWaitEMA + wait) / 5
		s.obs.ObserveQueueWait(wait)
		s.slots[slot] = sess
		s.probePrefix(sess)
	}
}

// shedUnmeetable drops every queued request whose TTFT deadline is
// provably unmeetable: even under an optimistic lower bound on its wait
// — its own prefill at the cost model's fitted marginal row cost, zero
// until the fit converges — the first token would land past the
// deadline. Shed-before-compute: a shed request has consumed no
// pipeline work at all, and its error Result says exactly why.
func (s *Scheduler) shedUnmeetable(now time.Duration) {
	pr := s.runCost.PerRow()
	shed := s.queue.Shed(now, func(it overload.Item) time.Duration {
		return time.Duration(pr * float64(it.Cost) * float64(time.Second))
	})
	for _, it := range shed {
		s.reject(it.ID, fmt.Errorf("%w: request %d TTFT deadline %v provably unmeetable at %v",
			ErrShedDeadline, it.ID, it.TTFTDeadline, now))
		s.h.Stats.Sheds.Add(1)
		s.stepsSinceShed = 0
	}
}

// observePressure recomputes the brown-out level and streams the
// scheduler's admission state into the telemetry registry: how many
// requests still wait for a slot, how many slots are occupied, and
// whether admission is overloaded (queue at bound or a shed within the
// last window). Atomics only; brown-out is computed even without
// telemetry because it gates speculation.
func (s *Scheduler) observePressure() {
	s.updateBrownout()
	if s.obs == nil {
		return
	}
	active := 0
	for _, sl := range s.slots {
		if sl != nil {
			active++
		}
	}
	queued := s.queue.Len()
	s.obs.ObserveQueueDepth(queued)
	s.obs.SetPressure(queued, active, len(s.slots))
	s.obs.SetOverloaded(s.queue.Full() || s.stepsSinceShed < shedRecentWindow)
}

// updateBrownout recomputes the brown-out level (PR 10): optional work
// degrades before admission refuses or sheds mandatory work. The
// bounded queue's occupancy escalates first — at half the bound
// speculation is dropped (level 1, the same lever the PR-6 breaker
// pulls), at three quarters the prefill-chunk budget is halved on top
// (level 2). Independently, when the tightest queued TTFT slack falls
// under the recently observed queue wait, the same ladder engages even
// far from the bound.
func (s *Scheduler) updateBrownout() {
	lvl := 0
	if b := s.queue.Bound(); b > 0 {
		switch q := s.queue.Len(); {
		case 4*q >= 3*b:
			lvl = 2
		case 2*q >= b:
			lvl = 1
		}
	}
	if lvl < 2 && s.queueWaitEMA > 0 && s.queue.Len() > 0 {
		if slack, ok := s.queue.MinTTFTSlack(s.h.EP.Now()); ok {
			switch {
			case slack < s.queueWaitEMA:
				lvl = 2
			case slack < 2*s.queueWaitEMA && lvl < 1:
				lvl = 1
			}
		}
	}
	if lvl != s.brownout {
		s.brownout = lvl
		s.obs.SetBrownout(lvl)
	}
}

// --- launching ---

// chunkBudget is one run's prefill token budget: Config.PrefillChunk, or
// without chunking a bound no prompt reaches (a chunk is then the whole
// remaining range, and tryLaunch allows one per run), small enough that
// position + budget cannot overflow.
func (s *Scheduler) chunkBudget() int {
	if s.cfg.PrefillChunk > 0 {
		return s.cfg.PrefillChunk
	}
	return 1 << 30
}

// tryLaunch admits at most one run — the first of the three passes of the
// package doc's Scheduling section that finds work — visiting sessions
// round-robin from just past the last one launched, so every session gets
// a fair share of the global in-flight budget. The width bound is
// MaxBatch, or the adaptive controller's pick in auto mode
// (effectiveWidth).
func (s *Scheduler) tryLaunch() bool {
	if s.h.Inflight() >= s.h.CFG.MaxInflight {
		return false
	}
	n := len(s.slots)
	width := s.effectiveWidth()

	// Pass 1: non-speculative decode steps and prefill chunks, charged
	// against one conservative collective room account: each row group
	// pays the free-list pages its shard cannot absorb (kvpage.PagesShort)
	// out of a shared budget.
	ready := s.ready[:0]
	chunks := s.chunkSel[:0]
	lens := s.chunkLen[:0]
	var blocked, displaced *session
	blockedNeed := 0
	freePages := -1
	charge := func(sess *session, cells int) bool {
		if s.kv == nil {
			return true
		}
		need := s.kv.PagesShort(sess.canonSet, cells)
		if need == 0 {
			return true
		}
		if freePages < 0 {
			freePages = s.kv.FreePages()
		}
		if freePages < need {
			return false
		}
		freePages -= need
		return true
	}
	for i := 0; i < n; i++ {
		sess := s.slots[(s.rr+i)%n]
		if sess == nil {
			continue
		}
		switch {
		case sess.state == stateDecode && (sess.wantNonSpec || s.inflight(sess) == 0):
			// A freshly sampled token always feeds straight back into the
			// pipeline; an idle session (no runs in flight, nothing owed) is
			// restarted the same way — the per-session analogue of the core
			// engine's "pipeline non-empty while tokens remain" invariant.
			if len(ready) >= width {
				continue
			}
			if !charge(sess, 1) {
				if blocked == nil {
					blocked, blockedNeed = sess, 1
				}
				continue
			}
			ready = append(ready, sess)
		case sess.state == statePrefill && sess.fillSent < sess.fillTarget:
			chunks = append(chunks, sess)
		}
	}
	if len(chunks) > 0 {
		// Shortest-remaining-prefill-first: the session closest to its
		// first token launches first, so a burst of prompts completes one
		// by one instead of serialising every session's TTFT behind the
		// longest prompt at the head of the FIFO (insertion sort: the
		// list is near-sorted across steps, and allocation-free always).
		for i := 1; i < len(chunks); i++ {
			c := chunks[i]
			rem := c.fillTarget - c.fillSent
			j := i - 1
			for j >= 0 && (chunks[j].fillTarget-chunks[j].fillSent > rem ||
				(chunks[j].fillTarget-chunks[j].fillSent == rem && chunks[j].slot > c.slot)) {
				chunks[j+1] = chunks[j]
				j--
			}
			chunks[j+1] = c
		}
		// One group slot is kept for prefill work so a decode-saturated
		// step cannot starve sessions mid-prompt; the displaced decode step
		// stays ready and is retried next step, and its page charge is
		// refunded so chunk admission sees the full remaining budget (the
		// shadow is untouched during collection, so recomputing the charge
		// is exact).
		if len(ready) == width {
			displaced = ready[width-1]
			if s.kv != nil && freePages >= 0 {
				freePages += s.kv.PagesShort(displaced.canonSet, 1)
			}
			ready = ready[:width-1]
		}
		// The per-session chunk sizes admitted (and charged) here are
		// recorded and staged verbatim, so the KV charge and the staged
		// cells can never drift apart.
		budget, groups := s.chunkBudget(), width-len(ready)
		switch {
		case s.cfg.PrefillChunk == 0:
			groups = 1
		case s.brownout >= 2 && budget > 1:
			// Brown-out level 2: halve the per-run prefill share so decode
			// rows — already-admitted sessions racing their deadlines —
			// keep the capacity. Admission slows; it does not stop.
			budget = (budget + 1) / 2
		}
		kept := 0
		for _, sess := range chunks {
			if kept >= groups || budget == 0 {
				break
			}
			k := min(sess.fillTarget-sess.fillSent, budget)
			if !charge(sess, k) {
				if blocked == nil {
					blocked, blockedNeed = sess, k
				}
				continue
			}
			budget -= k
			chunks[kept] = sess
			lens = append(lens, k)
			kept++
		}
		chunks = chunks[:kept]
	}
	if len(ready)+len(chunks) == 0 && blocked != nil && s.ensureRoom(blocked, blockedNeed) {
		// Work exists but nothing fit: the first blocked session escalated
		// through the pressure protocol and launches alone.
		if blocked.state == statePrefill {
			chunks, lens = append(chunks, blocked), append(lens, blockedNeed)
		} else {
			ready = append(ready, blocked)
		}
	}
	if len(ready)+len(chunks) == 0 && displaced != nil && displaced.state == stateDecode {
		// The slot kept for prefill work went unused — no chunk fit, and
		// escalation made no room for one (it may have parked the displaced
		// session itself): the decode step has waited for nothing.
		ready = append(ready, displaced)
	}
	s.ready, s.chunkSel, s.chunkLen = ready[:0], chunks[:0], lens[:0]
	if len(ready)+len(chunks) > 0 {
		s.launchRows(ready, chunks, lens)
		return true
	}

	// Pass 2: parked sessions readmit, first come first served.
	for i := 0; i < n; i++ {
		if sess := s.slots[(s.rr+i)%n]; sess != nil && sess.state == stateParked && s.readmit(sess) {
			return true
		}
	}

	// Pass 3: same-depth speculative batching, bounded by the same
	// effective width as pass 1. The open breaker and the brown-out
	// ladder both disable speculation: under repeated faults every
	// drafted chain is work the next failure throws away, and under
	// overload it is optional compute taken from queued mandatory work.
	if s.specOK() {
		return s.tryLaunchSpecBatch(width)
	}
	return false
}

// specOK gates speculative work: off while the PR-6 breaker is open or
// the PR-10 brown-out ladder is engaged — under pressure, speculation
// is the first work to go.
func (s *Scheduler) specOK() bool {
	return s.cfg.Speculate && !s.tripped && s.brownout == 0
}

// effectiveWidth picks this step's batch-width bound: MaxBatch in static
// mode. In auto mode (Config.AutoBatch) MaxBatch is only the hard cap:
// demand (active sessions plus queued requests) bounds the width from
// above — a draining pipeline batches exactly what is ready now, adding
// no latency waiting for width that cannot materialise — and under
// backlog the EMA-fitted cost model caps the width at the point where
// one run's fixed overhead is essentially amortised (beyond ~8x the
// overhead-to-row-cost ratio, a wider batch buys almost no throughput
// and only adds per-step latency).
func (s *Scheduler) effectiveWidth() int {
	if s.tripped {
		return 1 // breaker open: minimise work lost to the next failure
	}
	capW := s.cfg.MaxBatch
	if !s.cfg.AutoBatch || capW <= 1 {
		return capW
	}
	demand := s.queue.Len() // queued requests become work on admission
	for _, sess := range s.slots {
		if sess != nil && sess.state != stateParked {
			demand++
		}
	}
	if demand > capW {
		demand = capW
	}
	if demand < 1 {
		demand = 1
	}
	if s.h.Inflight() == 0 {
		return demand
	}
	if r := s.runCost.Ratio(); r > 0 {
		justified := int(8*r + 0.5)
		if justified < 2 {
			justified = 2
		}
		if demand > justified {
			demand = justified
		}
	}
	return demand
}

// observeRunCost feeds the adaptive width controller's cost model: while
// results arrive back to back with more work still in flight, the gap
// between consecutive completions approximates one run's service time at
// its row count, which is what lets the EMA separate fixed per-run
// overhead from marginal per-row cost.
func (s *Scheduler) observeRunCost(run *engine.Run) {
	if !s.cfg.AutoBatch && s.cfg.RunTimeout == 0 && s.obs == nil {
		return
	}
	now := s.h.EP.Now()
	if s.lastResultAt > 0 && s.h.Inflight() > 0 {
		s.runCost.Observe(run.Msg.Len(), now-s.lastResultAt)
		s.obs.ObserveRunService(now - s.lastResultAt)
	}
	s.lastResultAt = now
	if s.h.Inflight() == 0 {
		// The pipeline just drained: the gap up to the next result would
		// include idle time, not service time. Drop the anchor so the
		// first post-lull completion is not fed into the fit.
		s.lastResultAt = 0
	}
}

// readmit turns a parked session back into a prefill over its full
// accepted prefix (prompt plus everything generated before it was parked)
// and launches the first chunk, if it may: recomputing the prefix rebuilds
// exactly the canonical cache state the session was evicted with, and the
// prefill's sampled token is the next token of the uninterrupted greedy
// stream. A session parked before its first token restarts as an ordinary
// first prefill, untimed sampled token included.
func (s *Scheduler) readmit(sess *session) bool {
	// A session parked by fault recovery may still have cancelled runs
	// draining through the pipeline; readmitting before their (empty)
	// results are consumed would interleave the recomputed prefix with
	// stale cleanups.
	if s.inflight(sess) > 0 {
		return false
	}
	// Readmission never evicts anyone: wait until the full accepted
	// prefix fits in genuinely free cells. (The room check is
	// conservative: a prefix hit would shrink the recompute, but probing
	// before room is assured would strand a mapped entry on a failed
	// admit.)
	if !s.roomFor(sess, len(sess.Accepted)) {
		return false
	}
	sess.state = statePrefill
	sess.readmitted = sess.generated() > 0
	sess.fillTarget = len(sess.Accepted)
	sess.fillSent, sess.fillDone = 0, 0
	sess.Cutoff = s.h.CFG.SpecCutoff
	sess.stats.Readmissions++
	s.h.Stats.Readmissions.Add(1)
	if s.cfg.OnReadmit != nil {
		s.cfg.OnReadmit(sess.req)
	}
	s.probePrefix(sess)
	s.launchRows(nil, append(s.chunkSel[:0], sess), append(s.chunkLen[:0], s.chunkBudget()))
	return true
}

// roomFor reports whether n cells fit the session's shard without any
// reclamation (always true without a shadow cache).
func (s *Scheduler) roomFor(sess *session, n int) bool {
	return s.kv == nil || s.kv.CanPlace(sess.canonSet, n)
}

// ensureRoom makes room for an n-cell canonical launch, escalating
// through the memory-pressure protocol: free space, then dropping
// speculative pages pipeline-wide, then preempting idle sessions in
// priority order. It reports whether the launch may proceed.
func (s *Scheduler) ensureRoom(sess *session, n int) bool {
	// Stage 0: unreferenced shared prefixes are pure cache and go before
	// any session's live work is touched.
	if s.evictPrefixFor(sess, n) {
		return true
	}
	// Stage 1: speculation is optional work — reclaim every session's
	// unverified chains (including the requester's own).
	for _, other := range s.slots {
		if other == nil || other.state != stateDecode {
			continue
		}
		if s.dropSpecPages(other) && s.roomFor(sess, n) {
			return true
		}
	}
	// Stage 2: preempt idle sessions, lowest priority first, never one
	// strictly more important than the requester.
	for {
		victim := s.pickVictim(sess)
		if victim == nil {
			return false
		}
		s.preempt(victim)
		if s.roomFor(sess, n) {
			return true
		}
	}
}

// evictPrefixFor evicts unreferenced trie entries, coldest first, until n
// cells fit sess's shard, and reports whether they do.
func (s *Scheduler) evictPrefixFor(sess *session, n int) bool {
	for !s.roomFor(sess, n) {
		if !s.evictColdest() {
			return false
		}
	}
	return true
}

// dropSpecPages discards a session's speculative state end to end: the
// pending chain is dropped, its in-flight speculative runs are cancelled,
// and one OpDropSpec transaction frees the namespace's non-canonical
// cells on the shadow and every stage. It reports whether anything was
// reclaimed.
func (s *Scheduler) dropSpecPages(sess *session) bool {
	if len(sess.Pending) == 0 && !sess.specRuns() {
		return false
	}
	// A speculative run still in flight may be the one evaluating the
	// session's last accepted token: the run before it verified that
	// token, and its cache entries were promoted to the canonical
	// sequence out of this run's partition while the run was travelling.
	// Cancelling the run leaves the token's canonical cell written on the
	// stages that had reached it (fully, or up to the layer where the
	// cancellation probe fired) and absent on the rest — and the restart
	// below re-evaluates exactly that token. Remove the cell everywhere in
	// the same transaction, so every stage recomputes it once.
	redoLast := false
	// Every live speculative run of the session goes: the ones carrying
	// the pending chain and the fully verified ones alike.
	sess.Drop()
	s.cancelGroups(sess, true, func(r *engine.Run, toks []engine.TokenPlace) bool {
		if r.Msg.Kind != engine.KindSpec {
			return false
		}
		redoLast = redoLast || carriesAccepted(sess, toks)
		return true
	})
	ops := append(s.ops[:0], kvcache.Op{Kind: kvcache.OpDropSpec,
		Src: sess.ns.Base, Dst: kvcache.SeqID(sess.ns.Width)})
	if redoLast {
		last := int32(len(sess.Accepted) - 1)
		ops = append(ops, kvcache.Op{Kind: kvcache.OpSeqRm, Src: sess.ns.Canonical(), P0: last, P1: last + 1})
		sess.wantNonSpec = true
	}
	s.ops = ops[:0]
	s.sendKV(ops)
	sess.stats.SpecDrops++
	s.h.Stats.SpecDrops.Add(1)
	return true
}

// pickVictim selects the session to preempt for requester: idle (no runs
// in flight), decoding — or mid-prefill between chunks — holding KV
// pages, at most the requester's priority — the lowest-priority such
// session, largest footprint on ties.
func (s *Scheduler) pickVictim(requester *session) *session {
	var victim *session
	vUsed := 0
	for _, cand := range s.slots {
		if cand == nil || cand == requester ||
			(cand.state != stateDecode && cand.state != statePrefill) {
			continue
		}
		if cand.priority > requester.priority || s.inflight(cand) != 0 {
			continue
		}
		used := s.kv.ShardUsed(cand.canonSet)
		if used == 0 {
			continue
		}
		if victim == nil || cand.priority < victim.priority ||
			(cand.priority == victim.priority && used > vUsed) {
			victim, vUsed = cand, used
		}
	}
	return victim
}

// park takes a session out of the pipeline: its speculation chain is
// dropped, any in-flight runs are cancelled (shared runs lose just its
// rows), one OpEvictShard transaction frees its whole namespace on the
// shadow and every stage, and the session waits in stateParked for
// prefix-recompute readmission. Accepted tokens, the slot and the
// namespace assignment are all retained — only KV is given up.
// Preemption parks idle victims (the cancel sweep finds nothing); fault
// recovery and launch rejection park sessions with live runs.
func (s *Scheduler) park(sess *session) {
	sess.Drop()
	sess.wantNonSpec = false
	s.cancelGroups(sess, true, nil)
	sess.state = stateParked
	// Drop the session's shared-prefix mapping: the shard eviction below
	// delists the shared pages (a decref — other mapped sessions and the
	// registry hold keep them alive), and readmission re-probes the trie.
	s.unrefPrefix(sess)
	sess.prefixLen = 0
	ops := append(s.ops[:0], kvcache.Op{Kind: kvcache.OpEvictShard,
		Src: sess.ns.Base, Dst: kvcache.SeqID(sess.ns.Width)})
	s.ops = ops[:0]
	s.sendKV(ops)
}

// preempt parks an idle session under memory pressure, crediting the
// preemption.
func (s *Scheduler) preempt(victim *session) {
	s.park(victim)
	victim.stats.Preemptions++
	s.h.Stats.Preemptions.Add(1)
	if s.cfg.OnPreempt != nil {
		s.cfg.OnPreempt(victim.req)
	}
}

// getMsg returns a pooled run message for the composer to fill (putMsg
// emptied it).
func (s *Scheduler) getMsg() *engine.RunMsg {
	if k := len(s.msgPool); k > 0 {
		m := s.msgPool[k-1]
		s.msgPool = s.msgPool[:k-1]
		return m
	}
	return &engine.RunMsg{}
}

func (s *Scheduler) putMsg(m *engine.RunMsg) {
	m.Tokens = m.Tokens[:0]
	m.RowSessions = m.RowSessions[:0]
	m.RowRanges = m.RowRanges[:0]
	m.DeadSessions = 0
	m.KVOps = nil
	s.msgPool = append(s.msgPool, m)
}

// launch mirrors the run into the shadow cache — its KV ops, then one
// occupied cell per token, rows placed per owning shard — and hands it to
// the head. ensureRoom/roomFor (or the batch collection's collective
// account) have already guaranteed the cells exist; launch re-verifies
// with an allocation-free dry run before mutating anything, and if the
// shadow disagrees it degrades gracefully instead of panicking:
// speculative work is dropped, mandatory work parks its sessions for
// prefix-recompute readmission, and the caller sees nil and unwinds its
// staging.
func (s *Scheduler) launch(msg *engine.RunMsg, ctxs [][]token.Token, seqs []kvcache.SeqID) *engine.Run {
	if s.kv != nil {
		if cap(s.rowMeta) < len(msg.Tokens) {
			s.rowMeta = make([]kvcache.TokenMeta, len(msg.Tokens))
		}
		meta := s.rowMeta[:len(msg.Tokens)]
		for i, tp := range msg.Tokens {
			meta[i] = kvcache.TokenMeta{Pos: tp.Pos, Seqs: tp.Seqs}
		}
		if !s.kv.CanPlaceRows(meta) && !s.reclaimFor(msg, meta) {
			s.rejectLaunch(msg)
			return nil
		}
		s.kv.ApplyAll(msg.KVOps)
		cells, err := s.kv.PlaceRowsInto(s.kvCells[:0], meta)
		if err != nil {
			// CanPlaceRows dry-ran this exact grouping; failing here means
			// the shadow's own bookkeeping is inconsistent.
			panic(fmt.Sprintf("serve: shadow cache placement diverged from dry run: %v", err))
		}
		s.kvCells = cells[:0]
	}
	run := s.h.Launch(msg, ctxs, seqs)
	if s.obs != nil {
		s.obs.ObserveBatchWidth(engine.DistinctSessions(msg))
	}
	if s.cfg.RunTimeout > 0 {
		run.Deadline = s.h.EP.Now() + s.runBudget(msg.Len(), s.h.Inflight())
	}
	return run
}

// reclaimFor is the in-launch pressure escalation: when the dry run
// fails, reclaim speculative pages from sessions not riding in msg and
// retry. Speculative launches never reclaim — optional work is dropped,
// not paid for out of other sessions' chains.
func (s *Scheduler) reclaimFor(msg *engine.RunMsg, meta []kvcache.TokenMeta) bool {
	if msg.Kind == engine.KindSpec {
		return false
	}
	for _, other := range s.slots {
		if other == nil || other.state != stateDecode || msg.InvolvesSession(uint16(other.slot)) {
			continue
		}
		if s.dropSpecPages(other) && s.kv.CanPlaceRows(meta) {
			return true
		}
	}
	return s.kv.CanPlaceRows(meta)
}

// rejectLaunch degrades a launch the shadow cannot place even after
// reclamation: speculative runs are simply dropped (the caller frees
// their partitions); for mandatory runs every involved live session is
// parked — eviction plus prefix-recompute readmission re-derives their
// output bit-identically once room frees up — so an accounting mismatch
// costs throughput, never a crash.
func (s *Scheduler) rejectLaunch(msg *engine.RunMsg) {
	if msg.Kind == engine.KindSpec {
		return
	}
	for lo := range msg.Groups() {
		if sess := s.liveAt(msg.RowSession(lo)); sess != nil {
			s.preempt(sess)
		}
	}
}

// liveAt returns the session in slot if it has pipeline state to lose:
// nil for an idle slot, and for parked and draining sessions — their
// state recomputes at readmission or dies with finalize.
func (s *Scheduler) liveAt(slot uint16) *session {
	sess := s.sessionAt(slot)
	if sess == nil || sess.state == stateParked || sess.state == stateDrain {
		return nil
	}
	return sess
}

// The watchdog's headroom over the cost model's prediction (a p99-style
// multiple) and the ceiling on any one budget, in units of RunTimeout.
const (
	runTimeoutMult = 8
	runTimeoutCap  = 64
)

// runBudget derives a watchdog budget: runTimeoutMult times the cost
// model's predicted service time for a run of rows rows behind depth runs
// in flight (itself included), clamped to [RunTimeout, runTimeoutCap x
// RunTimeout]. Until the fit converges the floor stands alone, so the
// watchdog starts conservative and tightens as evidence accumulates.
func (s *Scheduler) runBudget(rows, depth int) time.Duration {
	d := s.cfg.RunTimeout
	oh, pr := s.runCost.Overhead(), s.runCost.PerRow()
	if oh > 0 || pr > 0 {
		pred := runTimeoutMult * (oh + pr*float64(rows)) * float64(depth)
		d = max(d, time.Duration(pred*float64(time.Second)))
	}
	return min(d, runTimeoutCap*s.cfg.RunTimeout)
}

// rearmOldest refreshes the head-of-line run's deadline after the
// pipeline made progress (a result consumed, or a failed run processed).
// The watchdog is a no-progress timeout, not a sojourn bound: a run deep
// in a cold pipeline legitimately waits many service times for everything
// ahead of it, so its launch-time deadline only has to cover the queue it
// joined, and each completion grants the new oldest a fresh single-run
// budget. Without this, a prefill wave deeper than RunTimeout/service
// fails its own tail and re-admits it to the back of the queue, forever.
// The deadline only ever moves forward, and only on progress — a stalled
// pipeline extends nothing, so a genuine stall still fails the oldest
// run one budget after the last completion.
func (s *Scheduler) rearmOldest() {
	if s.cfg.RunTimeout == 0 || s.h.Inflight() == 0 {
		return
	}
	oldest := s.h.InflightAt(0)
	oldest.Deadline = max(oldest.Deadline, s.h.EP.Now()+s.runBudget(oldest.Msg.Len(), 1))
}

// sendKV applies a KV transaction to the shadow cache and ships it down
// the pipeline.
func (s *Scheduler) sendKV(ops []kvcache.Op) {
	if s.kv != nil {
		s.kv.ApplyAll(ops)
	}
	s.h.SendKV(ops)
}

// --- prefix reuse (PR 9) ---

// probePrefix looks the session's accepted prefix up in the shared-prefix
// trie and, on a hit, maps the matched page chain read-only into the
// session's shard on the shadow and every stage (one OpMapShared
// transaction): positions [0, n) need no compute and no private cells,
// and prefill starts at the divergence point. The lookup is limited to
// len(accepted)-1 so at least one token is always left to compute — the
// run that samples the session's next token. Called at admission and at
// readmission (after the fill progress is reset, which it overwrites).
func (s *Scheduler) probePrefix(sess *session) {
	if s.prefix == nil {
		return
	}
	e, n := s.prefix.Lookup(sess.Accepted, len(sess.Accepted)-1)
	if e < 0 || n == 0 {
		return
	}
	s.prefix.Ref(e)
	sess.prefixEntry, sess.prefixLen = e, n
	ops := append(s.ops[:0], kvcache.Op{Kind: kvcache.OpMapShared,
		Src: sess.ns.Canonical(), Dst: kvcache.SeqID(e), P1: int32(n)})
	s.ops = ops[:0]
	s.sendKV(ops)
	sess.fillSent, sess.fillDone = n, n
	sess.stats.PrefixHits++
	sess.stats.PrefixHitTokens += n
	s.h.Stats.PrefixHits.Add(1)
	s.h.Stats.PrefixHitTokens.Add(int64(n))
}

// unrefPrefix drops the session's reference on the trie entry it maps, if
// any. Its shard keeps the mapped pages; only the entry becomes evictable.
func (s *Scheduler) unrefPrefix(sess *session) {
	if sess.prefixEntry >= 0 {
		s.prefix.Unref(sess.prefixEntry)
		sess.prefixEntry = -1
	}
}

// publishPrefix runs at prefill completion: if the session's prompt has a
// page-aligned prefix deeper than anything the trie already covers, it is
// registered and the session's canonical cells over it become immutable
// refcounted shared pages on the shadow and every stage (one
// OpSharePrefix transaction). The donor keeps using the same cells; only
// ownership changes. Publication is skipped when the chain is not
// collectible whole-page (CanShare) — possible only in degenerate
// layouts — or when every entry id is taken and even the LRU eviction
// cannot free one.
func (s *Scheduler) publishPrefix(sess *session) {
	if s.prefix == nil {
		return
	}
	ps := s.prefix.PageSize()
	l := sess.prompt / ps * ps
	if l == 0 || l <= sess.prefixLen {
		return
	}
	if _, n := s.prefix.Lookup(sess.Accepted[:sess.prompt], l); n >= l {
		return // an entry at least this deep is already published
	}
	if !s.kv.CanShare(sess.ns.Canonical(), int32(l)) {
		return
	}
	e, ok := s.prefix.Insert(sess.Accepted[:l])
	if !ok {
		if s.evictColdest() {
			e, ok = s.prefix.Insert(sess.Accepted[:l])
		}
		if !ok {
			return
		}
	}
	ops := append(s.ops[:0], kvcache.Op{Kind: kvcache.OpSharePrefix,
		Src: sess.ns.Canonical(), Dst: kvcache.SeqID(e), P1: int32(l)})
	s.ops = ops[:0]
	s.sendKV(ops)
	s.observePrefixOcc()
}

// evictColdest evicts the least recently used unreferenced trie entry
// (active mappings are exempt) and drops the registry hold on its pages
// pipeline-wide: those still listed by a mapped shard free when their
// last shard departs, the rest at once. False when nothing is evictable.
func (s *Scheduler) evictColdest() bool {
	if s.prefix == nil {
		return false
	}
	e, ok := s.prefix.EvictLRU()
	if ok {
		ops := append(s.ops[:0], kvcache.Op{Kind: kvcache.OpUnrefPrefix, Dst: kvcache.SeqID(e)})
		s.ops = ops[:0]
		s.sendKV(ops)
		s.observePrefixOcc()
	}
	return ok
}

// flushPrefix evicts every remaining trie entry at run-down. All sessions
// are done, so no entry is active and every shared page frees — the
// drained caches end at zero used cells, same as without prefix reuse.
func (s *Scheduler) flushPrefix() {
	for s.evictColdest() {
	}
}

// observePrefixOcc mirrors trie occupancy into the telemetry gauges.
func (s *Scheduler) observePrefixOcc() {
	if s.prefix == nil {
		return
	}
	s.obs.SetPrefixCache(s.prefix.Len(), s.prefix.Tokens())
}

// stageDecodeRow stages one session's single-token decode step into the
// composer.
func (s *Scheduler) stageDecodeRow(sess *session) {
	a := len(sess.Accepted)
	var ctx []token.Token
	if s.cfg.NeedCtx {
		// Accepted tokens are append-only, so the context prefix can
		// alias the session buffer instead of snapshotting.
		ctx = sess.Accepted[: a-1 : a-1]
	}
	s.composer.Stage(batch.Row{
		Session: uint16(sess.slot),
		Tok:     sess.Accepted[a-1],
		Pos:     int32(a - 1),
		Seqs:    sess.canonSet,
		Ctx:     ctx,
	})
	sess.wantNonSpec = false
	sess.stats.RunsLaunched++
}

// stageChunk stages the next chunk of a session's prefill: up to budget
// tokens of the unfilled range [fillSent, fillTarget), every row tagged
// with the remaining (position, length) range so stages know that only
// the row computing position fillTarget-1 samples (the v3 range
// extension).
func (s *Scheduler) stageChunk(sess *session, budget int) {
	lo := sess.fillSent
	hi := min(lo+budget, sess.fillTarget)
	rng := engine.RowRange{Pos: int32(lo), Len: int32(sess.fillTarget - lo)}
	var ctx []token.Token
	if s.cfg.NeedCtx {
		// The chunk's context is the already-recomputed (or mapped)
		// prefix; accepted is append-only and frozen during prefill, so
		// aliasing is safe.
		ctx = sess.Accepted[:lo:lo]
	}
	for p := lo; p < hi; p++ {
		s.composer.Stage(batch.Row{
			Session: uint16(sess.slot),
			Tok:     sess.Accepted[p],
			Pos:     int32(p),
			Seqs:    sess.canonSet,
			Ctx:     ctx,
			Range:   rng,
		})
	}
	sess.fillSent = hi
	sess.stats.RunsLaunched++
}

// launchRows composes ready decode rows and prefill chunks into one run
// and launches it: prompt chunks ride in the same runs as decode rows, so
// admissions make prefill progress without stalling the decode cadence,
// and several sessions' small chunks (the tails of a burst) coalesce
// under one shared token budget. lens[i] is the size admission charged
// for chunks[i]; staging exactly those keeps the staged cells and the KV
// charge in lockstep. The round-robin cursor moves just past the last
// session staged.
func (s *Scheduler) launchRows(ready, chunks []*session, lens []int) {
	for _, sess := range ready {
		s.stageDecodeRow(sess)
		s.rr = (sess.slot + 1) % len(s.slots)
	}
	for i, sess := range chunks {
		s.stageChunk(sess, lens[i])
		s.rr = (sess.slot + 1) % len(s.slots)
	}
	kind := engine.KindPrefill
	if len(ready) > 0 {
		kind = engine.KindNonSpec
	}
	if s.launchComposed(kind, nil, nil) != nil && len(chunks) > 0 {
		s.h.Stats.PrefillBatchedRuns.Add(1)
	}
}

// launchComposed turns the composer's staged rows into a run message and
// launches it; seqs are the speculative partitions the run holds and ops
// the prefix-sharing KV operations it carries (both nil for
// non-speculative runs).
func (s *Scheduler) launchComposed(kind engine.RunKind, seqs []kvcache.SeqID, ops []kvcache.Op) *engine.Run {
	msg := s.getMsg()
	ctxs := s.composer.ComposeInto(msg, kind, s.getCtxs(), s.cfg.NeedCtx)
	if len(seqs) > 0 {
		msg.Seq = seqs[0]
	} else {
		// Primary seq: the first row's canonical sequence.
		msg.Seq = msg.Tokens[0].Seqs.Min()
	}
	msg.KVOps = ops
	run := s.launch(msg, ctxs, seqs)
	msg.KVOps = nil // ops is scratch; launch consumed (or rejected) them
	if run == nil {
		s.putCtxs(ctxs)
		s.putMsg(msg)
	}
	return run
}

// getCtxs returns a pooled per-row context array (nil until one has been
// returned, which only context-carrying runs do).
func (s *Scheduler) getCtxs() [][]token.Token {
	if k := len(s.ctxPool); k > 0 {
		c := s.ctxPool[k-1]
		s.ctxPool = s.ctxPool[:k-1]
		return c[:0]
	}
	return nil
}

func (s *Scheduler) putCtxs(c [][]token.Token) {
	if c != nil {
		s.ctxPool = append(s.ctxPool, c[:0])
	}
}

// tryLaunchSpecBatch drafts chains for every speculation-eligible session
// and launches the largest same-depth group as one speculative run — each
// session's chain in its own freshly allocated partition of its own
// namespace, prefix-sharing ops concatenated per session — then records
// each chain as pending against the run. width is this step's batch-width
// bound (the adaptive controller's pick in auto mode, MaxBatch otherwise).
func (s *Scheduler) tryLaunchSpecBatch(width int) bool {
	n := len(s.slots)
	sel := s.specSel[:0]
	lens := s.specLen[:0]
	s.specBuf = s.specBuf[:0]
	freePages := -1
	for i := 0; i < n && len(sel) < width; i++ {
		sess := s.slots[(s.rr+i)%n]
		if sess == nil || sess.state != stateDecode || sess.alloc == nil {
			continue
		}
		if s.inflight(sess) >= s.specCap || sess.alloc.Available() == 0 {
			continue
		}
		// A draft changes nothing but the cutoff (decay on a stall), so a
		// candidate left out of the launched group drafts again later.
		before := len(s.specBuf)
		s.specBuf = sess.Draft(s.h.BK, &s.h.CFG, sess.specRuns(), sess.prompt+sess.maxNew, &s.ctx, s.specBuf)
		drafted := len(s.specBuf) - before
		if drafted == 0 {
			continue
		}
		// Speculation is optional work: skip the candidate under memory
		// pressure (conservative multi-shard account, never escalating).
		if s.kv != nil {
			if need := s.kv.PagesShort(sess.canonSet, drafted); need > 0 {
				if freePages < 0 {
					freePages = s.kv.FreePages()
				}
				if freePages < need {
					s.specBuf = s.specBuf[:before]
					continue
				}
				freePages -= need
			}
		}
		sel = append(sel, sess)
		lens = append(lens, drafted)
	}
	s.specSel, s.specLen = sel[:0], lens[:0]
	if len(sel) == 0 {
		return false
	}
	depth, most := 0, 0
	for d, deepest := 1, slices.Max(lens); d <= deepest; d++ {
		count := 0
		for _, l := range lens {
			if l == d {
				count++
			}
		}
		if count >= most { // prefer deeper chains on ties
			depth, most = d, count
		}
	}

	ops := s.ops[:0]
	seqs := make([]kvcache.SeqID, 0, most)
	off := 0
	for k, sess := range sel {
		toks := s.specBuf[off : off+lens[k]]
		off += lens[k]
		if lens[k] != depth {
			continue
		}
		seq, ok := sess.alloc.Alloc()
		if !ok {
			panic("serve: drafted for a session with no free speculative partition")
		}
		seqs = append(seqs, seq)
		// Prefix sharing stays inside the session's namespace.
		ops = sess.ShareOps(ops, seq)
		base := len(sess.Accepted) + len(sess.Pending)
		var runCtx []token.Token
		if s.cfg.NeedCtx {
			// The prefix includes pending tokens, which are rewritten on
			// rejection — this snapshot must be real.
			runCtx = sess.Frontier(make([]token.Token, 0, base))
		}
		for i, t := range toks {
			s.composer.Stage(batch.Row{
				Session: uint16(sess.slot),
				Tok:     t,
				Pos:     int32(base + i),
				Seqs:    kvcache.NewSeqSet(seq),
				Ctx:     runCtx,
			})
		}
	}
	s.ops = ops[:0]
	run := s.launchComposed(engine.KindSpec, seqs, ops)
	off = 0
	for k, sess := range sel {
		toks := s.specBuf[off : off+lens[k]]
		off += lens[k]
		switch {
		case lens[k] != depth:
			continue
		case run == nil:
			// Rejected by the shadow dry run: nothing is pending, so the
			// session simply drafts again later.
			sess.alloc.Free(seqs[0])
		default:
			sess.Launched(&s.h.CFG, toks, seqs[0], run.Msg.ID)
			sess.stats.RunsLaunched++
			sess.stats.Proposed += depth
			s.h.Stats.Proposed.Add(int64(depth))
		}
		seqs = seqs[1:]
	}
	return run != nil
}

// --- result handling ---

// handleResult consumes the oldest run's result (or its failure) and
// demultiplexes it back to every involved session's state machine: each
// per-session row group is consumed exactly as the single-request engine
// consumes a run — verification, sampling, promotion, invalidation scans —
// with the rows of cancelled runs and masked sessions skipped. All groups'
// promotions and the run's partition cleanup (each partition returned to
// the namespace that owns it) then travel as one KV transaction — issued
// before anything launches, which is what makes later runs see the
// promoted cells — and drained sessions whose last in-flight run this was
// are finalized.
func (s *Scheduler) handleResult() error {
	var (
		run *engine.Run
		res engine.Results
		ok  bool
		err error
	)
	if s.cfg.RunTimeout > 0 {
		var failed bool
		run, res, ok, failed, err = s.h.AwaitResultWithin(s.watchdogWait())
		if err != nil {
			return err
		}
		if failed {
			s.recoverFailed(run)
			s.rearmOldest()
			return nil
		}
	} else {
		run, res, ok, err = s.h.AwaitResult()
		if err != nil {
			return err
		}
	}
	s.noteSuccess()
	s.observeRunCost(run)
	s.rearmOldest()
	msg := run.Msg
	txn := s.txn[:0]
	for lo, hi := range msg.Groups() {
		sess := s.sessionAt(msg.RowSession(lo))
		var gerr error
		rowOk := ok && !run.Cancelled && !msg.RowDead(lo)
		switch {
		case sess == nil:
			gerr = fmt.Errorf("serve: result row for idle session slot %d", msg.RowSession(lo))
		case sess.state == stateDecode:
			txn, gerr = s.onDecodeRows(sess, run, res, rowOk, lo, hi, txn)
		case sess.state == statePrefill:
			gerr = s.onPrefillRows(sess, run, res, rowOk, lo, hi)
		default:
			// Draining or parked: masked or obsolete rows. The
			// namespace-wide cleanup that accompanies drain and park covers
			// their cache entries, and a parked session's real state
			// recomputes at readmission.
		}
		if err == nil {
			err = gerr
		}
	}
	txn = s.appendCleanup(run, txn)
	s.txn = txn[:0]
	s.sendKV(txn)
	s.retire(run)
	return err
}

// sessionAt returns the session in slot, nil when the slot is idle or out
// of range.
func (s *Scheduler) sessionAt(slot uint16) *session {
	if int(slot) >= len(s.slots) {
		return nil
	}
	return s.slots[slot]
}

// retire ends a consumed (or failed) run's life at the head: drained
// sessions for which it was the last run in flight are finalized — its
// result was the only thing holding their slot — and the run record, its
// message and its contexts return to their pools (pending tokens
// reference runs by ID, so nothing else points at them).
func (s *Scheduler) retire(run *engine.Run) {
	msg := run.Msg
	for lo := range msg.Groups() {
		if sess := s.sessionAt(msg.RowSession(lo)); sess != nil && sess.state == stateDrain && s.inflight(sess) == 0 {
			s.finalize(sess)
		}
	}
	s.putCtxs(run.Ctxs)
	s.h.Recycle(run)
	s.putMsg(msg)
}

// watchdogWait returns how long AwaitResultWithin may block before the
// oldest in-flight run is past its launch-time deadline.
func (s *Scheduler) watchdogWait() time.Duration {
	oldest := s.h.InflightAt(0)
	if oldest.Deadline == 0 {
		return runTimeoutCap * s.cfg.RunTimeout
	}
	d := oldest.Deadline - s.h.EP.Now()
	if d < 0 {
		d = 0
	}
	return d
}

// Breaker thresholds: consecutive watchdog failures that trip it, and
// consecutive healthy completions that reset it.
const (
	breakerTripAfter  = 3
	breakerResetAfter = 16
)

// noteFailure records one watchdog-failed run against the degradation
// breaker.
func (s *Scheduler) noteFailure() {
	s.okStreak = 0
	s.failStreak++
	if s.failStreak >= breakerTripAfter && !s.tripped {
		s.tripped = true
		s.h.Stats.BreakerTrips.Add(1)
		s.h.Flight.Record(s.h.EP.Now(), trace.FlightTrip, 0, int32(s.failStreak))
		if s.obs != nil {
			s.obs.SetTripped(true)
			s.obs.DumpFlight("breaker tripped: consecutive watchdog failures")
		}
	}
}

// noteSuccess records one healthy completion; a sustained streak closes
// the breaker again.
func (s *Scheduler) noteSuccess() {
	s.failStreak = 0
	if !s.tripped {
		return
	}
	s.okStreak++
	if s.okStreak >= breakerResetAfter {
		s.tripped, s.okStreak = false, 0
		s.obs.SetTripped(false)
	}
}

// recoverFailed consumes a watchdog-failed run: its result is lost (a
// dropped frame, a stalled stage, a dead link), so every session whose
// forward progress depended on it is recovered — parked through the
// preemption machinery, its namespace evicted pipeline-wide — and
// prefix-recompute readmission re-derives its greedy stream
// bit-identically, lost sampled token included. Runs the scheduler had
// already cancelled produce expected-missing results and need only
// their partition cleanup; so do rows the scheduler had masked dead.
func (s *Scheduler) recoverFailed(run *engine.Run) {
	s.h.Flight.Record(s.h.EP.Now(), trace.FlightRecover, run.Msg.ID, int32(run.Msg.Len()))
	s.noteFailure()
	if s.obs != nil {
		s.obs.DumpFlight("watchdog: run result lost or overdue")
	}
	// The next completion gap spans the failure, not one run's service
	// time: drop the cost model's anchor.
	s.lastResultAt = 0
	msg := run.Msg
	if run.FailedLive {
		for lo := range msg.Groups() {
			if sess := s.liveAt(msg.RowSession(lo)); sess != nil && !msg.RowDead(lo) {
				s.recoverSession(sess)
			}
		}
	}
	// The failed run's partitions are freed exactly as a consumed run's
	// would be.
	txn := s.appendCleanup(run, s.txn[:0])
	s.txn = txn[:0]
	s.sendKV(txn)
	s.retire(run)
}

// recoverSession parks a live session for fault recovery, crediting the
// recovery.
func (s *Scheduler) recoverSession(sess *session) {
	s.park(sess)
	sess.stats.Recoveries++
	s.h.Stats.Recoveries.Add(1)
	if s.cfg.OnRecover != nil {
		s.cfg.OnRecover(sess.req)
	}
}

// completePrefill finishes a session's prefill — whole-prompt or the
// final chunk of a chunked one — with next, the token sampled off the
// prefix's last position: timestamps, the transition to decoding, and
// the acceptance. For a first prefill the sampled token counts as
// generated but not as a timed acceptance (TTFT anchors at prefill
// completion, mirroring the single-request engines); for a
// prefix-recompute readmission it is an ordinary mid-stream acceptance
// and the original prefill timestamp (the TTFT anchor) stands.
func (s *Scheduler) completePrefill(sess *session, next token.Token) {
	s.publishPrefix(sess)
	readmit := sess.readmitted
	sess.readmitted = false
	if !readmit {
		now := s.h.EP.Now()
		sess.stats.PrefillDone = now
		s.h.Stats.PrefillDoneOnce(now)
		// Streaming TTFT: submission to prefill completion, queue wait
		// included — the latency this user waited before any output.
		s.obs.ObserveTTFT(now - sess.arrived)
	}
	sess.state = stateDecode
	sess.Accepted = append(sess.Accepted, next)
	s.noteAccept(sess, next, !readmit)
	if sess.generated() >= sess.maxNew {
		s.enterDrain(sess)
	} else {
		sess.wantNonSpec = true
	}
}

// onPrefillRows consumes one chunk group [lo, hi) of a session's prefill.
// An intermediate chunk only advances the fill progress — its rows wrote
// their KV cells at every stage but carry no logits (they are absent from
// the result frame). The final chunk — the one whose last row computes
// position fillTarget-1; a whole-prompt prefill's only one — completes
// the prefill with the token sampled off the prefix end.
func (s *Scheduler) onPrefillRows(sess *session, run *engine.Run, res engine.Results, ok bool, lo, hi int) error {
	if !ok {
		return fmt.Errorf("serve: prefill chunk cancelled for request %d", sess.req)
	}
	if int(run.Msg.Tokens[lo].Pos) != sess.fillDone {
		return fmt.Errorf("serve: prefill chunk gap for request %d: chunk base %d, filled %d",
			sess.req, run.Msg.Tokens[lo].Pos, sess.fillDone)
	}
	sess.fillDone += hi - lo
	if sess.fillDone < sess.fillTarget {
		return nil
	}
	s.completePrefill(sess, res.Next(hi-1))
	return nil
}

// onDecodeRows consumes session sess's row group [lo, hi) of a decode
// result: the session's chain discards a superfluous or invalidated group
// and verifies a live one, and the scheduler does its part about the
// outcome — per-token accounting, cancelling what a rejection invalidated,
// draining a finished session. ok is false for cancelled runs and
// masked-out rows, which need no per-session action. Promotions are
// appended to txn, the consumed result's one KV transaction.
func (s *Scheduler) onDecodeRows(sess *session, run *engine.Run, res engine.Results, ok bool, lo, hi int, txn []kvcache.Op) ([]kvcache.Op, error) {
	if !ok {
		return txn, nil
	}
	toks := run.Msg.Tokens[lo:hi]
	if sess.Stale(toks) {
		sess.stats.Superfluous++
		s.h.Stats.Superfluous.Add(1)
		return txn, nil
	}
	if !sess.Valid(toks) {
		return txn, nil
	}
	a, t0 := len(sess.Accepted), len(txn)
	txn, out, err := sess.Verify(&s.h.CFG, toks, res, lo, sess.prompt+sess.maxNew, txn)
	if err != nil {
		return txn, fmt.Errorf("serve: request %d: %w", sess.req, err)
	}
	for _, tok := range sess.Accepted[a:] {
		s.noteAccept(sess, tok, false)
	}
	sess.stats.Accepted += len(txn) - t0
	s.h.Stats.Accepted.Add(int64(len(txn) - t0))
	if out == core.Rejected {
		// Cancel the session's share of the runs that carried the chain
		// (each partition is cleaned up when its run's result arrives).
		s.cancelGroups(sess, true, func(r *engine.Run, _ []engine.TokenPlace) bool {
			return sess.Carried(r.Msg.ID)
		})
		sess.Drop()
	}
	// §IV-D.1 per session: in-flight row groups whose outputs are all
	// decided by now (superfluous) or whose inputs conflict (invalidated).
	s.cancelGroups(sess, false, func(_ *engine.Run, toks []engine.TokenPlace) bool {
		return sess.Stale(toks) || !sess.Valid(toks)
	})
	if sess.generated() >= sess.maxNew {
		s.enterDrain(sess)
	} else if out != core.Exhausted {
		sess.wantNonSpec = true
	}
	return txn, nil
}

// noteAccept records one token the session has just accepted in both the
// per-session and the aggregate stats and streams it. The prefill-sampled
// token (fromPrefill) is generated but not timestamped, so TTFT and ITL
// measure post-prefill decoding only.
func (s *Scheduler) noteAccept(sess *session, tok token.Token, fromPrefill bool) {
	s.total++
	if !fromPrefill {
		now := s.h.EP.Now()
		if s.obs != nil {
			// Inter-token latency: the gap to this session's previous
			// timed acceptance.
			if n := len(sess.stats.AcceptTimes); n > 0 {
				s.obs.ObserveITL(now - sess.stats.AcceptTimes[n-1])
			}
		}
		sess.stats.AcceptTimes = append(sess.stats.AcceptTimes, now)
		if sess.stats.FirstToken == 0 {
			sess.stats.FirstToken = now
		}
		s.h.SampledAggregate(1)
	}
	if s.cfg.OnToken != nil {
		s.cfg.OnToken(sess.req, tok)
	}
}

// cancelGroups is the one FIFO sweep behind every per-session
// cancellation: sess's live row group in each in-flight run that pick
// selects (nil: all of them) is cancelled — a run that is the session's
// alone whole, all such runs in one broadcast; a shared run by masking
// just the session's rows — and the cancellations are credited to the
// session's stats as well as the aggregate. cleanup promises that the
// session's sequences are cleaned up namespace-wide afterwards (chain
// drop, drain, eviction), which is what lets stages skip masked
// non-speculative rows; without it those are only marked dead head-side,
// because stages must still write their canonical cache entries (§IV-D.3
// applied per row).
func (s *Scheduler) cancelGroups(sess *session, cleanup bool, pick func(r *engine.Run, toks []engine.TokenPlace) bool) {
	slot := uint16(sess.slot)
	victims := s.victims[:0]
	for i := 0; i < s.h.Inflight(); i++ {
		r := s.h.InflightAt(i)
		if r.Cancelled {
			continue
		}
		lo, hi := r.Msg.GroupOf(slot)
		if lo == hi || r.Msg.RowDead(lo) {
			continue // not riding, or masked out (and dealt with) already
		}
		if pick == nil || pick(r, r.Msg.Tokens[lo:hi]) {
			victims = append(victims, r)
		}
	}
	s.victims = victims[:0]
	if len(victims) == 0 {
		return
	}
	runs, rows := s.h.Stats.RunsCancelled.Load(), s.h.Stats.RowCancels.Load()
	s.h.CancelSession(slot, victims, cleanup)
	sess.stats.RunsCancelled += int(s.h.Stats.RunsCancelled.Load() - runs)
	sess.stats.RowCancels += int(s.h.Stats.RowCancels.Load() - rows)
}

// carriesAccepted reports whether toks, sess's row group in some
// in-flight run, evaluates a token of sess that is already accepted (it
// can only be the last one: a token is accepted ahead of its own run's
// result only by the run before it). A rejected draft token sits at an
// accepted position too, but differs from the token accepted there.
func carriesAccepted(sess *session, toks []engine.TokenPlace) bool {
	for _, tp := range toks {
		if p := int(tp.Pos); p < len(sess.Accepted) && sess.Accepted[p] == tp.Tok {
			return true
		}
	}
	return false
}

// appendCleanup returns the run's sequence partitions to their owning
// sessions' allocators and appends the SeqRm ops that clear them on every
// stage. A speculative run holds one partition per session riding it;
// each id's owner follows from the static namespace partition.
func (s *Scheduler) appendCleanup(run *engine.Run, ops []kvcache.Op) []kvcache.Op {
	for _, id := range run.Seqs {
		ops = append(ops, kvcache.Op{Kind: kvcache.OpSeqRm, Src: id, P0: 0, P1: 1 << 30})
		slot := int(id) / s.cfg.SeqsPerSession
		if sess := s.slots[slot]; sess != nil && sess.alloc != nil {
			sess.alloc.Free(id)
		}
	}
	run.Seqs = nil
	return ops
}

// enterDrain stops a finished session from launching, discards its
// speculation chain, and cancels whatever it still has in flight (the
// stage signal is safe because finalize removes the whole namespace). The
// slot is released once the last in-flight run's result arrives.
func (s *Scheduler) enterDrain(sess *session) {
	sess.state = stateDrain
	sess.wantNonSpec = false
	sess.Drop()
	s.cancelGroups(sess, true, nil)
}

// finalize releases a drained session's namespace — removing every one of
// its sequence ids over the full position range on every stage, so the
// recycled slot starts from an empty namespace — and records the result.
func (s *Scheduler) finalize(sess *session) {
	s.unrefPrefix(sess)
	ops := s.ops[:0]
	for i := 0; i < sess.ns.Width; i++ {
		ops = append(ops, kvcache.Op{Kind: kvcache.OpSeqRm,
			Src: sess.ns.Base + kvcache.SeqID(i), P0: 0, P1: 1 << 30})
	}
	s.ops = ops[:0]
	s.sendKV(ops)
	sess.stats.Done = s.h.EP.Now()
	sess.stats.Generated = sess.generated()
	// SLO scoring (PR 10): a deadline-carrying request hits only if
	// every configured deadline was met — first output (prefill
	// completion) against the TTFT deadline, completion against the full
	// one. Both timestamps and deadlines are endpoint-clock absolutes.
	if sess.ttftDL > 0 || sess.deadline > 0 {
		hit := true
		if sess.ttftDL > 0 && sess.stats.PrefillDone > sess.ttftDL {
			hit = false
		}
		if sess.deadline > 0 && sess.stats.Done > sess.deadline {
			hit = false
		}
		if hit {
			sess.stats.DeadlineHits = 1
			s.h.Stats.DeadlineHits.Add(1)
		} else {
			sess.stats.DeadlineMisses = 1
			s.h.Stats.DeadlineMisses.Add(1)
		}
	}
	s.results[sess.req] = Result{Tokens: sess.Accepted[sess.prompt:], Stats: sess.stats}
	s.slots[sess.slot] = nil
	s.done++
}
