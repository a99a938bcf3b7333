// Package serve implements the multi-request serving layer: a session
// scheduler that multiplexes N concurrent generation requests over one
// shared pipeline. PipeInfer keeps a single request's pipeline saturated
// with asynchronous speculative runs (§IV-B); the serving layer extends
// the same idea across requests — idle pipeline slots that one session's
// continuous speculation cannot fill are filled by other sessions' runs,
// so the pipeline stays busy even when every individual request is
// latency-bound. Each session is a core.Chain, the PipeInfer machine
// (draft, verify, promote, invalidate), driven here in an event-per-result
// style so one head thread can interleave all of them; a single-request
// run is a one-session serve (Drive).
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
//     namespace (kvcache.Namespace.ValidOp, which simbk's
//     TestSimServeOpsStayInNamespace holds every op a serve sends to);
//     only kvcache.OpUnrefPrefix, the scheduler's own prefix hold, is not;
//   - token positions are session-local (each request counts from 0);
//     disjoint sequence sets are what keep equal positions of different
//     sessions from seeing each other, not the positions themselves;
//   - when a session completes, every id in its namespace is removed over
//     the full position range before the slot is reused, so a recycled
//     slot starts from an empty namespace.
//
// Stages need no per-session state: they demux runs purely through
// engine.RunMsg.Session and the sequence sets carried in token
// placements, and read each row's context from the cells its set sees;
// no run carries one. Cancellation signals carry globally unique run
// IDs, so one session's early cancellation (§IV-D) never kills another's.
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
//     (position, length) range (engine.RunMsg.RowRanges), so only
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
//     skipped when it does not fit the shadow cache, and whenever the
//     optimism level (below) is off its bottom rung.
//
// The speculative baseline (Drive with engine.StrategySpeculative:
// SpecInfer with one draft model, §V-A) adds one rule ahead of the
// passes, draft-then-await: a decoding session that has just sampled and
// has nothing in flight grows a tree (core.Chain.DraftRound) and launches
// it behind its anchor as one speculative run, then waits for it; an
// empty tree falls through to pass 1's decode row (launchRound). It
// drafts only at the optimism level's bottom rung, as pass 3 does.
//
// The optimism level is one ordered ladder of optional work given up:
// full, then no speculation, then also half the prefill-chunk budget,
// then also batch width 1. It is a pure function of three signals (the
// failure breaker's streaks, queue occupancy, queued TTFT slack against
// the observed queue wait), recomputed at every admission pass; the
// launch passes, the width rule and the chunk budget read nothing else
// for how much to speculate and batch.
//
// A solo run is the one-group case: one session's rows compose to an
// untagged message (ranged, for a prefill chunk), so per-row session tags
// travel only when a run actually coalesces. Per-row sequence sets keep
// attention per-session-isolated and the kernels compute every row in one
// canonical order, so a session's output is bit-identical to its serial
// reference at any width (TestServeGreedyParity,
// TestServeBatchedGreedyParity).
//
// Results are consumed row group by row group, each handed to its
// session's chain (core.Chain.Stale / Valid / Verify) with the scheduler
// acting on the outcome, and all of one result's promotions plus the
// run's partition cleanup travel as one KV transaction. Cancelling one
// session's work masks it out of each run it rides, whatever the run's
// width — the head alone decides what the stages are told
// (engine.Head.CancelSession); the last stage's result frame carries the
// sessions it masked, which name the rows it leaves out (engine.ResultFrame).
//
// # Memory pressure (PR 3)
//
// Stage KV caches are paged (internal/kvpage) and may be oversubscribed:
// MaxSessions can exceed what the cache holds simultaneously. The
// scheduler mirrors the stages' paged metadata in a head-side shadow
// cache (Config.KV), every stage's exact replica (each replays the head's
// transaction stream, placing every run, cancelled or not), and gates
// every launch on it. When a launch would not fit:
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
// runTimeoutCap x RunTimeout]). The head's one result await
// (engine.Head.AwaitResult) takes the oldest run's deadline as its
// budget and waits in WaitRecv; without a deadline it blocks in Recv.
// Results carry their run's ID, so under a budget a lost result is
// detected the moment a newer one arrives (per-stream FIFO order makes
// the gap a proof, not a guess). A failed run's sessions are recovered
// through the machinery preemption built: in-flight runs cancelled, the
// namespace evicted pipeline-wide (kvcache.OpEvictShard), the session
// parked, and prefix-recompute readmission re-derives the greedy stream
// bit-identically, the lost result's sampled token included. Other
// sessions' rows of a shared run complete normally. Three consecutive
// failures trip a breaker, the optimism level's top rung, so a
// persistently faulty link degrades throughput instead of feeding an
// evict/readmit storm; sixteen healthy completions in a row close it.
// Counters: Stats.RunTimeouts, Recoveries, BreakerTrips.
//
// # Prefix reuse (PR 9)
//
// With Config.PrefixCache, completed cold prefills publish their prompt's
// page-aligned prefix into a block-hash trie
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
// through /readyz). Between healthy and shedding sits brown-out, the
// optimism level's middle rungs: as the queue fills (or queued TTFT slack
// falls under the observed queue wait), speculation is dropped first,
// then the prefill-chunk budget is halved — optional work degrades before
// any mandatory work is refused or shed.
//
// Steady-state decode is allocation-free: a run record cycles through
// the head's free list with its message and context storage
// (engine.Head.NewRun and Recycle), and wire buffers through comm's
// pool, so a session decoding mid-stream performs no heap allocation per
// accepted token (gated by TestServeStepAllocs and
// TestServeBatchedStepAllocs in backend/realbk).
package serve

import (
	"cmp"
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
	// OnToken, when non-nil, streams every accepted token as it is
	// sampled, tagged with the request index.
	OnToken func(req int, tok token.Token)
	// KV mirrors the stage caches' paged layout at the head: the shadow
	// cache admission control runs against. KV.Cells must be positive.
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
	// sessions drops to the divergent suffix.
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

	// level is the optimism level (optimism.go), recomputed from
	// failStreak/okStreak (the breaker), the queue and queueWaitEMA (the
	// recently observed admission waits queued TTFT slack is compared
	// against). stepsSinceShed drives the /readyz "shed recently" window.
	level          optimism
	failStreak     int
	okStreak       int
	stepsSinceShed int
	queueWaitEMA   time.Duration

	slots   []*session
	rr      int
	specCap int
	// rounds is the speculative baseline's draft-then-await rule, set by
	// Drive for engine.StrategySpeculative (launchRound).
	rounds bool

	total int // accepted tokens across all sessions

	// kv is the head-side shadow of every stage's paged KV metadata:
	// launches occupy it, KV transactions apply to it, admission control
	// reads it. Stages replay the same stream and place every launched
	// row, so at the matching point each stage's cache equals it cell for
	// cell and page for page: its CanPlace verdicts hold on every stage.
	kv *kvpage.Cache

	// prefix is the shared-prefix trie (PR 9; nil unless
	// Config.PrefixCache): prompt-token block hashes to published
	// shared-prefix entries. Pure head-side policy — the refcounted page
	// chains it hands out are resolved per cache by the transaction
	// stream.
	prefix *prefixcache.Table

	// composer builds every run from the step's staged row groups.
	composer batch.Composer

	// runCost is the EMA-fitted per-run cost model, fed by every result:
	// the adaptive width controller (Config.AutoBatch), the watchdog's
	// deadlines (Config.RunTimeout), TTFT shedding and the
	// sustainable-rate refusal read it; lastResultAt anchors the
	// service-time observations it is fed.
	runCost      metrics.CostEMA
	lastResultAt time.Duration

	// obs mirrors cfg.Obs (nil when telemetry is disabled; every call on
	// it is nil-safe and allocation-free).
	obs *telemetry.Registry

	// Reusable scratch: all uses are synchronous within one step.
	ops      []kvcache.Op
	txn      []kvcache.Op // one consumed result's KV transaction
	victims  []*engine.Run
	draft    core.Scratch
	kvCells  []int
	rowMeta  []kvcache.TokenMeta
	ready    []*session
	chunkSel []*session
	chunkLen []int
	specSel  []*session
	specBuf  []token.Token
	specLen  []int
	specSeqs []kvcache.SeqID
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
	if cfg.KV.Cells <= 0 {
		return nil, fmt.Errorf("serve: the shadow cache needs KV.Cells > 0, got %d", cfg.KV.Cells)
	}
	if cfg.AutoBatch && cfg.MaxBatch <= 1 {
		// Auto mode without an explicit cap: the controller may widen all
		// the way to one row group per session slot.
		cfg.MaxBatch = cfg.MaxSessions
	}
	cfg.MaxBatch = max(1, min(cfg.MaxBatch, cfg.MaxSessions))
	// The shadow must partition shards exactly like the stages do.
	cfg.KV.ShardSeqs = cfg.SeqsPerSession
	s := &Scheduler{
		h:       h,
		cfg:     cfg,
		queue:   overload.New(cfg.MaxQueue),
		slots:   make([]*session, cfg.MaxSessions),
		specCap: max(2, h.CFG.MaxInflight/cfg.MaxSessions),
		// A fresh scheduler has not shed recently.
		stepsSinceShed: shedRecentWindow,
		kv:             kvpage.New(cfg.KV),
	}
	if cfg.PrefixCache {
		s.prefix = prefixcache.New(prefixcache.Config{PageSize: s.kv.PageSize()})
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
	case len(r.Prompt)+r.MaxNew > s.cfg.KV.Cells:
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
	d := fmt.Sprintf("%d queued; shadow %d/%d cells used, %d free pages, %d shared pages",
		s.queue.Len(), s.kv.Used(), s.kv.Size(), s.kv.FreePages(), s.kv.SharedPages())
	if s.prefix != nil {
		d += fmt.Sprintf("; trie %d entries over %d tokens", s.prefix.Len(), s.prefix.Tokens())
	}
	for _, sess := range s.slots {
		if sess == nil {
			continue
		}
		d += fmt.Sprintf("; slot %d: request %d %s, accepted %d of %d+%d, fill %d/%d/%d, maps entry %d over %d, %d runs in flight, shard %d cells",
			sess.slot, sess.req, stateNames[sess.state], len(sess.Accepted), sess.prompt, sess.maxNew,
			sess.fillTarget, sess.fillSent, sess.fillDone, sess.prefixEntry, sess.prefixLen, s.inflight(sess),
			s.kv.ShardUsed(sess.canonSet))
	}
	return d
}

// idle reports a scheduler with nothing to do right now: an empty
// admission queue, no active sessions, nothing in flight.
func (s *Scheduler) idle() bool {
	return s.queue.Len() == 0 && s.h.Inflight() == 0 && s.freeSlots() == len(s.slots)
}

// admit sheds queued requests whose TTFT deadline is provably
// unmeetable, moves the most urgent survivors into free session slots,
// then publishes the step's admission pressure (queue depth and wait
// histograms, health gauges) and recomputes the optimism level.
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
		slot := slices.Index(s.slots, nil)
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

// observePressure is where the optimism level is recomputed (ladder): on
// every Submit, and at every admission pass, after the last result's
// breaker update and before any launch. It then streams the admission
// state into telemetry: the brown-out rung, queued requests, occupied
// slots, and whether admission is overloaded (queue at bound or a shed
// within the last window). Atomics only.
func (s *Scheduler) observePressure() {
	sig := signals{failStreak: s.failStreak, queued: s.queue.Len(), bound: s.queue.Bound(), wait: s.queueWaitEMA}
	if sig.wait > 0 && sig.queued > 0 {
		sig.slack, sig.hasSlack = s.queue.MinTTFTSlack(s.h.EP.Now())
	}
	var brownout optimism
	s.level, brownout = ladder(sig)
	if s.obs == nil {
		return
	}
	s.obs.SetBrownout(int(brownout))
	s.obs.ObserveQueueDepth(sig.queued)
	s.obs.SetPressure(sig.queued, len(s.slots)-s.freeSlots(), len(s.slots))
	s.obs.SetOverloaded(s.queue.Full() || s.stepsSinceShed < shedRecentWindow)
}

// freeSlots counts the unoccupied session slots.
func (s *Scheduler) freeSlots() (n int) {
	for _, sl := range s.slots {
		if sl == nil {
			n++
		}
	}
	return n
}

// --- launching ---

// tryLaunch admits at most one run — the first of the three passes of the
// package doc's Scheduling section that finds work — visiting sessions
// round-robin from just past the last one launched, so every session gets
// a fair share of the global in-flight budget. The width bound is
// MaxBatch, or the adaptive controller's pick in auto mode
// (effectiveWidth). Speculation, in pass 3 and in the baseline's rounds,
// happens only at the optimism level's bottom rung.
func (s *Scheduler) tryLaunch() bool {
	if s.h.Inflight() >= s.h.CFG.MaxInflight {
		return false
	}
	if s.rounds && s.level == optFull && s.launchRound() {
		return true
	}
	n := len(s.slots)
	width := s.effectiveWidth()

	// Pass 1: non-speculative decode steps and prefill chunks, charged
	// against one conservative collective page account.
	ready := s.ready[:0]
	chunks := s.chunkSel[:0]
	lens := s.chunkLen[:0]
	var blocked, displaced *session
	blockedNeed := 0
	freePages := -1
	for i := 0; i < n; i++ {
		sess := s.slots[(s.rr+i)%n]
		if sess == nil {
			continue
		}
		switch {
		case sess.state == stateDecode && (sess.wantNonSpec || s.inflight(sess) == 0):
			// A freshly sampled token always feeds straight back into the
			// pipeline; an idle session (no runs in flight, nothing owed) is
			// restarted the same way — the "pipeline non-empty while tokens
			// remain" invariant, per session.
			if len(ready) >= width {
				continue
			}
			if !s.charge(&freePages, sess.canonSet, 1) {
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
		// longest prompt at the head of the FIFO (slot order breaks ties).
		slices.SortFunc(chunks, func(a, b *session) int {
			return cmp.Or((a.fillTarget-a.fillSent)-(b.fillTarget-b.fillSent), a.slot-b.slot)
		})
		// One group slot is kept for prefill work so a decode-saturated
		// step cannot starve sessions mid-prompt; the displaced decode step
		// stays ready and is retried next step, and its page charge is
		// refunded so chunk admission sees the full remaining budget (the
		// shadow is untouched during collection, so recomputing the charge
		// is exact).
		if len(ready) == width {
			displaced = ready[width-1]
			freePages += s.kv.PagesShort(displaced.canonSet, 1)
			ready = ready[:width-1]
		}
		// The per-session chunk sizes admitted (and charged) here are
		// recorded and staged verbatim, so the KV charge and the staged
		// cells can never drift apart.
		budget, groups := s.chunkBudget(s.level), width-len(ready)
		if s.cfg.PrefillChunk == 0 {
			groups = 1
		}
		kept := 0
		for _, sess := range chunks {
			if kept >= groups || budget == 0 {
				break
			}
			k := min(sess.fillTarget-sess.fillSent, budget)
			if !s.charge(&freePages, sess.canonSet, k) {
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
	// effective width as pass 1.
	return s.cfg.Speculate && s.level == optFull && s.tryLaunchSpecBatch(width)
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
	capW := s.cfg.MaxBatch
	switch {
	case s.level >= optWidth1:
		return 1 // minimise work lost to the next failure
	case !s.cfg.AutoBatch || capW <= 1:
		return capW
	}
	demand := s.queue.Len() // queued requests become work on admission
	for _, sess := range s.slots {
		if sess != nil && sess.state != stateParked {
			demand++
		}
	}
	demand = max(1, min(demand, capW))
	if r := s.runCost.Ratio(); r > 0 && s.h.Inflight() > 0 {
		demand = min(demand, max(2, int(8*r+0.5)))
	}
	return demand
}

// observeRunCost feeds the run-cost model on every result, registry or
// not, so observing a serve never steers it. While results arrive back
// to back with more work still in flight, the gap between consecutive
// completions approximates one run's service time at its row count,
// which is what lets the EMA separate fixed per-run overhead from
// marginal per-row cost.
func (s *Scheduler) observeRunCost(run *engine.Run) {
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
	// Readmission launches alone, with no decode row to keep capacity for:
	// its chunk is never degraded.
	s.launchRows(nil, append(s.chunkSel[:0], sess), append(s.chunkLen[:0], s.chunkBudget(optFull)))
	return true
}

// roomFor reports whether n cells fit the session's shard without any
// reclamation.
func (s *Scheduler) roomFor(sess *session, n int) bool {
	return s.kv.CanPlace(sess.canonSet, n)
}

// charge is the conservative collective page account one launch's row
// groups share (pass 1 and pass 3): cells rows pay the free-list pages
// their shard cannot absorb (kvpage.PagesShort) out of *free, the
// shadow's free pages as the account's first charge reads them (-1
// before).
func (s *Scheduler) charge(free *int, set kvcache.SeqSet, cells int) bool {
	if *free < 0 {
		*free = s.kv.FreePages()
	}
	if need := s.kv.PagesShort(set, cells); need <= *free {
		*free -= need
		return true
	}
	return false
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
	fits := func() bool { return s.roomFor(sess, n) }
	if s.reclaimSpec(nil, fits) {
		return true
	}
	// Stage 2: preempt idle sessions, lowest priority first, never one
	// strictly more important than the requester.
	for victim := s.pickVictim(sess); victim != nil; victim = s.pickVictim(sess) {
		s.preempt(victim)
		if fits() {
			return true
		}
	}
	return false
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

// reclaimSpec drops decoding sessions' speculative pages, one session at
// a time, until fits reports room, and reports whether it does in the
// end. Sessions riding msg (nil: none) keep theirs.
func (s *Scheduler) reclaimSpec(msg *engine.RunMsg, fits func() bool) bool {
	for _, other := range s.slots {
		if other == nil || other.state != stateDecode || (msg != nil && msg.InvolvesSession(uint16(other.slot))) {
			continue
		}
		if s.dropSpecPages(other) && fits() {
			return true
		}
	}
	return fits()
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
	s.ops = append(s.ops[:0], kvcache.Op{Kind: kvcache.OpDropSpec, Src: sess.ns.Base, Dst: kvcache.SeqID(sess.ns.Width)})
	if redoLast {
		last := int32(len(sess.Accepted) - 1)
		s.ops = append(s.ops, kvcache.Op{Kind: kvcache.OpSeqRm, Src: sess.ns.Canonical(), P0: last, P1: last + 1})
		sess.wantNonSpec = true
	}
	s.sendKV(s.ops)
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
	s.sendOp(kvcache.Op{Kind: kvcache.OpEvictShard, Src: sess.ns.Base, Dst: kvcache.SeqID(sess.ns.Width)})
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

// launch mirrors the run into the shadow cache — its KV ops, then one
// occupied cell per token, rows placed per owning shard, as every stage
// places it — and hands it to the head. ensureRoom/roomFor (or the batch
// collection's collective account) have already guaranteed the cells
// exist; launch re-verifies with an allocation-free dry run before
// mutating anything, and if the shadow disagrees it degrades gracefully:
// speculative work is dropped, mandatory work parks its sessions for
// prefix-recompute readmission, and the caller sees false.
func (s *Scheduler) launch(run *engine.Run) bool {
	msg := run.Msg
	if cap(s.rowMeta) < len(msg.Tokens) {
		s.rowMeta = make([]kvcache.TokenMeta, len(msg.Tokens))
	}
	meta := s.rowMeta[:len(msg.Tokens)]
	for i, tp := range msg.Tokens {
		meta[i] = kvcache.TokenMeta{Pos: tp.Pos, Seqs: tp.Seqs}
	}
	// Short of room, a mandatory run reclaims other sessions' speculative
	// pages; a speculative one is optional work, dropped rather than paid
	// for out of other sessions' chains.
	if !s.kv.CanPlaceRows(meta) && (msg.Kind == engine.KindSpec ||
		!s.reclaimSpec(msg, func() bool { return s.kv.CanPlaceRows(meta) })) {
		s.rejectLaunch(msg)
		return false
	}
	err := s.kv.ApplyAll(msg.KVOps)
	if err == nil {
		s.kvCells, err = s.kv.PlaceRowsInto(s.kvCells[:0], meta)
	}
	if err != nil {
		// The ops are the head's own and CanPlaceRows dry-ran this exact
		// grouping: the shadow's own bookkeeping is inconsistent.
		panic(fmt.Sprintf("serve: shadow cache diverged from its dry run: %v", err))
	}
	s.h.Launch(run)
	if s.obs != nil {
		s.obs.ObserveBatchWidth(engine.DistinctSessions(msg))
	}
	if s.cfg.RunTimeout > 0 {
		run.Deadline = s.h.EP.Now() + s.runBudget(msg.Len(), s.h.Inflight())
	}
	return true
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
	if err := s.kv.ApplyAll(ops); err != nil {
		panic(fmt.Sprintf("serve: shadow cache refused the head's KV ops: %v", err))
	}
	s.h.SendKV(ops)
}

// sendOp sends one KV operation as a transaction of its own.
func (s *Scheduler) sendOp(op kvcache.Op) {
	s.ops = append(s.ops[:0], op)
	s.sendKV(s.ops)
}

// stageDecodeRow stages one session's single-token decode step into the
// composer.
func (s *Scheduler) stageDecodeRow(sess *session) {
	a := len(sess.Accepted)
	s.composer.Stage(batch.Row{
		Session: uint16(sess.slot),
		Tok:     sess.Accepted[a-1],
		Pos:     int32(a - 1),
		Seqs:    sess.canonSet,
	})
	sess.wantNonSpec = false
	sess.stats.RunsLaunched++
}

// stageChunk stages the next chunk of a session's prefill: up to budget
// tokens of the unfilled range [fillSent, fillTarget), every row tagged
// with the remaining (position, length) range so stages know that only
// the row computing position fillTarget-1 samples
// (engine.RunMsg.RowRanges).
func (s *Scheduler) stageChunk(sess *session, budget int) {
	lo := sess.fillSent
	hi := min(lo+budget, sess.fillTarget)
	rng := engine.RowRange{Pos: int32(lo), Len: int32(sess.fillTarget - lo)}
	for p := lo; p < hi; p++ {
		s.composer.Stage(batch.Row{
			Session: uint16(sess.slot),
			Tok:     sess.Accepted[p],
			Pos:     int32(p),
			Seqs:    sess.canonSet,
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

// launchComposed composes the staged rows into a run record the head
// hands out and launches it, or hands the record back when the launch is
// rejected; seqs are the speculative partitions the run holds and ops the
// prefix-sharing KV operations it carries (both nil for non-speculative
// runs).
func (s *Scheduler) launchComposed(kind engine.RunKind, seqs []kvcache.SeqID, ops []kvcache.Op) *engine.Run {
	run := s.h.NewRun()
	msg := run.Msg
	s.composer.ComposeInto(msg, kind)
	run.Seqs = append(run.Seqs, seqs...) // a record comes with its storage
	if len(seqs) > 0 {
		msg.Seq = seqs[0]
	} else {
		// Primary seq: the first row's canonical sequence.
		msg.Seq = msg.Tokens[0].Seqs.Min()
	}
	msg.KVOps = ops
	launched := s.launch(run)
	msg.KVOps = nil // ops is scratch; launch consumed (or rejected) them
	if !launched {
		s.h.Recycle(run)
		return nil
	}
	return run
}

// tryLaunchSpecBatch drafts chains for every speculation-eligible session
// and launches the largest same-depth group as one speculative run — each
// session's chain in its own freshly allocated partition of its own
// namespace, prefix-sharing ops concatenated per session — then records
// each chain as pending against the run. width is this step's batch-width
// bound (the adaptive controller's pick in auto mode, MaxBatch otherwise).
func (s *Scheduler) tryLaunchSpecBatch(width int) bool {
	n, sel, lens := len(s.slots), s.specSel[:0], s.specLen[:0]
	s.specBuf = s.specBuf[:0]
	freePages := -1
	for i := 0; i < n && len(sel) < width; i++ {
		sess := s.slots[(s.rr+i)%n]
		// A session owing a decode row (wantNonSpec) has a last token the
		// stages do not hold yet: freshly sampled, or removed by
		// dropSpecPages to be evaluated again. That row goes first.
		if sess == nil || sess.state != stateDecode || sess.alloc == nil || sess.wantNonSpec {
			continue
		}
		if s.inflight(sess) >= s.specCap || sess.alloc.Available() == 0 {
			continue
		}
		// A draft changes nothing but the cutoff (decay on a stall), so a
		// candidate left out of the launched group drafts again later.
		before := len(s.specBuf)
		s.draftChain(sess)
		drafted := len(s.specBuf) - before
		if drafted == 0 {
			continue
		}
		// Speculation is optional work: skip the candidate under memory
		// pressure (the same page account as pass 1, never escalating).
		if !s.charge(&freePages, sess.canonSet, drafted) {
			s.specBuf = s.specBuf[:before]
			continue
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
	seqs := s.specSeqs[:0]
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
		for i, t := range toks {
			s.composer.Stage(batch.Row{
				Session: uint16(sess.slot),
				Tok:     t,
				Pos:     int32(base + i),
				Seqs:    kvcache.NewSeqSet(seq),
			})
		}
	}
	s.ops, s.specSeqs = ops[:0], seqs[:0]
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
// per-session row group is consumed as a chain consumes a run (core.Chain)
// — verification, sampling, promotion, invalidation scans —
// with the rows of cancelled runs and masked sessions skipped. All groups'
// promotions and the run's partition cleanup (each partition returned to
// the namespace that owns it) then travel as one KV transaction — issued
// before anything launches, which is what makes later runs see the
// promoted cells — and drained sessions whose last in-flight run this was
// are finalized.
func (s *Scheduler) handleResult() error {
	run, res, ok, failed, err := s.h.AwaitResult()
	if err != nil {
		return err
	}
	if failed {
		s.recoverFailed(run)
		s.rearmOldest()
		return nil
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
	s.retire(run, txn)
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

// retire ends a consumed (or failed) run's life at the head. txn, the KV
// transaction its result produced, gains the run's partition cleanup and
// ships: a speculative run holds one partition per session riding it, and
// each returns to the allocator of the session whose namespace holds it.
// Drained sessions for which it was the last run in flight are finalized
// — its result was the only thing holding their slot — and the run
// record, with its message and contexts, returns to the head's free list
// (pending tokens reference runs by ID, so nothing else points at them).
func (s *Scheduler) retire(run *engine.Run, txn []kvcache.Op) {
	for _, id := range run.Seqs {
		txn = append(txn, kvcache.Op{Kind: kvcache.OpSeqRm, Src: id, P0: 0, P1: 1 << 30})
		if sess := s.slots[int(id)/s.cfg.SeqsPerSession]; sess != nil && sess.alloc != nil {
			sess.alloc.Free(id)
		}
	}
	s.txn = txn[:0]
	s.sendKV(txn)
	msg := run.Msg
	for lo := range msg.Groups() {
		if sess := s.sessionAt(msg.RowSession(lo)); sess != nil && sess.state == stateDrain && s.inflight(sess) == 0 {
			s.finalize(sess)
		}
	}
	s.h.Recycle(run)
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
	s.obs.DumpFlight("watchdog: run result lost or overdue")
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
	s.retire(run, s.txn[:0])
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
// completion, per §V-A's metrics); for a
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
	if sess.Round != nil {
		return s.onRoundRows(sess, res, lo, txn), nil
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
// selects (nil: all of them) is cancelled in one engine.Head.CancelSession
// call, and the cancellations are credited to the session's stats as well
// as the aggregate. cleanup promises that the session's sequences are
// cleaned up namespace-wide afterwards (chain drop, drain, eviction),
// which is what lets stages skip computing the session's non-speculative
// rows; without it stages still compute their canonical cache entries
// (§IV-D.3 applied per row).
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
	s.ops = s.ops[:0]
	for i := range sess.ns.Width {
		s.ops = append(s.ops, kvcache.Op{Kind: kvcache.OpSeqRm, Src: sess.ns.Base + kvcache.SeqID(i), P1: 1 << 30})
	}
	s.sendKV(s.ops)
	sess.stats.Done = s.h.EP.Now()
	sess.stats.Generated = sess.generated()
	// SLO scoring (PR 10): a deadline-carrying request hits only if
	// every configured deadline was met — first output (prefill
	// completion) against the TTFT deadline, completion against the full
	// one. Both timestamps and deadlines are endpoint-clock absolutes.
	if sess.ttftDL > 0 || sess.deadline > 0 {
		if (sess.ttftDL == 0 || sess.stats.PrefillDone <= sess.ttftDL) &&
			(sess.deadline == 0 || sess.stats.Done <= sess.deadline) {
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
