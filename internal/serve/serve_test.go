package serve

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/comm/faultcomm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// testHead builds a head over a single-rank cluster with a trivial
// backend, enough to exercise New's validation paths.
func testHead(t *testing.T) *engine.Head {
	t.Helper()
	cl := chancomm.New(1)
	topo := engine.Topology{Head: 0, Stages: []int{0}}
	h, err := engine.NewHead(cl.Endpoint(0), topo, engine.Config{}, nopBackend{}, nopWorker{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

type nopBackend struct{}

func (nopBackend) Propose([]token.Token, int) ([]token.Token, []float32, bool) { return nil, nil, true }
func (nopBackend) Results(*engine.Run, uint64, []byte) engine.Results          { return nil }
func (nopBackend) Ready() bool                                                 { return true }
func (nopBackend) RowBytes() int                                               { return 0 }
func (nopBackend) MemoryBytes() int64                                          { return 0 }

type nopWorker struct{}

func (nopWorker) Eval(*engine.RunMsg, []byte, func() bool) ([]byte, int, bool) { return nil, 0, true }
func (nopWorker) Place(*engine.RunMsg) error                                   { return nil }
func (nopWorker) ApplyKV([]kvcache.Op) error                                   { return nil }
func (nopWorker) MemoryBytes() int64                                           { return 0 }

// testKV is a shadow cache every test request fits, several sessions at
// once.
var testKV = kvpage.Config{Cells: 1024}

func req(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{Prompt: []token.Token{token.BOS}, MaxNew: 4}
	}
	return out
}

// TestNewValidation pins the configuration contract: empty request sets,
// namespace overflow of the 64-id space, speculation without spec
// partitions and a missing shadow cache are all rejected up front. (Per-request problems like an
// empty prompt are no longer configuration errors — they settle as error
// Results; see TestSubmitPerRequestValidation.)
func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		reqs []Request
		want string
	}{
		{"no-requests", Config{KV: testKV}, nil, "no requests"},
		{"namespace-overflow", Config{KV: testKV, MaxSessions: 17, SeqsPerSession: 4}, req(17), "exceed"},
		{"speculate-width-1", Config{KV: testKV, Speculate: true, SeqsPerSession: 1}, req(2), "SeqsPerSession"},
		{"no-shadow-cache", Config{}, req(2), "KV.Cells"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(testHead(t), tc.cfg, tc.reqs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestNewDefaults checks the derived defaults: slot count bounded by the
// request count, width 1 without speculation, 4 with.
func TestNewDefaults(t *testing.T) {
	s, err := New(testHead(t), Config{KV: testKV}, req(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.slots) != 2 || s.cfg.SeqsPerSession != 1 {
		t.Fatalf("defaults: %d slots width %d", len(s.slots), s.cfg.SeqsPerSession)
	}
	s, err = New(testHead(t), Config{KV: testKV, Speculate: true}, req(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.slots) != 4 || s.cfg.SeqsPerSession != 4 {
		t.Fatalf("speculative defaults: %d slots width %d", len(s.slots), s.cfg.SeqsPerSession)
	}
	// MaxNew defaulting comes from the engine config.
	s, err = New(testHead(t), Config{KV: testKV}, []Request{{Prompt: []token.Token{token.BOS}}})
	if err != nil {
		t.Fatal(err)
	}
	if s.reqs[0].MaxNew != s.h.CFG.MaxNew {
		t.Fatalf("MaxNew default %d, want engine default %d", s.reqs[0].MaxNew, s.h.CFG.MaxNew)
	}
}

// TestAdmissionRoundRobin checks slot assignment and recycling: requests
// beyond MaxSessions stay queued until a slot frees, and freed slots are
// reused lowest-first with a fresh namespace. With uniform priorities and
// no deadlines the bounded queue degenerates to arrival order.
func TestAdmissionRoundRobin(t *testing.T) {
	s, err := New(testHead(t), Config{KV: testKV, MaxSessions: 2}, req(5))
	if err != nil {
		t.Fatal(err)
	}
	s.admit()
	if s.slots[0] == nil || s.slots[1] == nil || s.queue.Len() != 3 {
		t.Fatalf("admission left %d requests queued, want 3", s.queue.Len())
	}
	if s.slots[0].req != 0 || s.slots[1].req != 1 {
		t.Fatalf("admission order: slots hold requests %d, %d, want 0, 1", s.slots[0].req, s.slots[1].req)
	}
	if s.slots[0].ns.Canonical() == s.slots[1].ns.Canonical() {
		t.Fatal("two sessions share a canonical sequence")
	}
	// Finish slot 0's session by hand and re-admit.
	s.finalize(s.slots[0])
	s.admit()
	if s.slots[0] == nil || s.slots[0].req != 2 {
		t.Fatal("freed slot was not recycled to the next queued request")
	}
}

// TestSubmitPerRequestValidation pins the satellite fix: one invalid
// request among good ones settles as its own error Result instead of
// failing the whole serve.
func TestSubmitPerRequestValidation(t *testing.T) {
	reqs := req(3)
	reqs[1].Prompt = nil // invalid: empty prompt
	s, err := New(testHead(t), Config{MaxSessions: 1, KV: kvpage.Config{Cells: 64, PageSize: 16}}, reqs)
	if err != nil {
		t.Fatalf("New failed outright on a per-request problem: %v", err)
	}
	if !errors.Is(s.results[1].Err, ErrInvalid) {
		t.Fatalf("bad request's Result.Err = %v, want ErrInvalid", s.results[1].Err)
	}
	if s.results[0].Err != nil || s.results[2].Err != nil {
		t.Fatal("valid requests were rejected alongside the bad one")
	}
	if s.done != 1 || s.queue.Len() != 2 {
		t.Fatalf("settled %d, queued %d; want 1 settled, 2 queued", s.done, s.queue.Len())
	}
	// A request whose footprint cannot fit the KV capacity alone is
	// equally a per-request error.
	s2, err := NewLive(testHead(t), Config{MaxSessions: 1, KV: kvpage.Config{Cells: 8, PageSize: 4}})
	if err != nil {
		t.Fatal(err)
	}
	i := s2.Submit(Request{Prompt: make([]token.Token, 6), MaxNew: 8})
	if !errors.Is(s2.results[i].Err, ErrInvalid) {
		t.Fatalf("doesn't-fit-KV request: Err = %v, want ErrInvalid", s2.results[i].Err)
	}
}

// TestLiveIntake pins the live-intake contract: Submit after Close is
// rejected, an open idle scheduler's Step is a no-op, and Run fails fast
// rather than spinning when intake is open with nothing in flight.
func TestLiveIntake(t *testing.T) {
	s, err := NewLive(testHead(t), Config{KV: testKV, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Done() {
		t.Fatal("open intake with no requests must not be Done")
	}
	if err := s.Step(); err != nil {
		t.Fatalf("idle-open Step: %v", err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("Run with open idle intake should fail fast")
	}
	s.Close()
	i := s.Submit(req(1)[0])
	if !errors.Is(s.results[i].Err, ErrInvalid) {
		t.Fatalf("Submit after Close: Err = %v, want ErrInvalid", s.results[i].Err)
	}
	if !s.Done() {
		t.Fatal("closed scheduler with every request settled must be Done")
	}
}

// TestOverloadReject checks the bounded-queue admission control: with
// MaxQueue set, submissions past the bound settle immediately with
// ErrOverloaded and count in Stats.Overloads, and the overload gauge
// trips for /readyz.
func TestOverloadReject(t *testing.T) {
	s, err := NewLive(testHead(t), Config{KV: testKV, MaxSessions: 1, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := req(3)
	for _, rq := range r {
		s.Submit(rq)
	}
	if s.queue.Len() != 2 {
		t.Fatalf("queue holds %d, want the bound 2", s.queue.Len())
	}
	if !errors.Is(s.results[2].Err, ErrOverloaded) {
		t.Fatalf("over-bound submission: Err = %v, want ErrOverloaded", s.results[2].Err)
	}
	if got := s.h.Stats.Overloads.Load(); got != 1 {
		t.Fatalf("Stats.Overloads = %d, want 1", got)
	}
	if s.results[0].Err != nil || s.results[1].Err != nil {
		t.Fatal("in-bound submissions must not be rejected")
	}
}

// TestShedUnmeetable checks shed-before-compute: a queued request whose
// TTFT deadline is already unmeetable is shed during admit — before it
// can take a slot — with ErrShedDeadline, a Sheds count, and the
// overload window armed; deadline-less requests are untouched.
func TestShedUnmeetable(t *testing.T) {
	s, err := NewLive(testHead(t), Config{KV: testKV, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	doomed := Request{Prompt: []token.Token{token.BOS}, MaxNew: 4, TTFTDeadline: time.Nanosecond}
	patient := req(1)[0]
	di := s.Submit(doomed) // absolute deadline 1ns: already past on the wall clock
	pi := s.Submit(patient)
	s.admit()
	if !errors.Is(s.results[di].Err, ErrShedDeadline) {
		t.Fatalf("doomed request: Err = %v, want ErrShedDeadline", s.results[di].Err)
	}
	if got := s.h.Stats.Sheds.Load(); got != 1 {
		t.Fatalf("Stats.Sheds = %d, want 1", got)
	}
	if s.stepsSinceShed != 0 {
		t.Fatalf("stepsSinceShed = %d, want 0 (overload window armed)", s.stepsSinceShed)
	}
	if s.slots[0] == nil || s.slots[0].req != pi {
		t.Fatal("the deadline-less request should hold the slot")
	}
}

// scriptBackend is a deterministic model pair for white-box scheduler
// tests: the target's token at position p is scriptTok(p) whatever came
// before, and the draft proposes it — except at every fifth position,
// where it is wrong, so chains are rejected and runs cancelled. While
// deriving, the draft is not ready and must not be asked.
type scriptBackend struct {
	// reads records every (run, row) the scheduler sampled.
	reads    []scriptRead
	deriving bool
}

type scriptRead struct {
	ranged bool
	rows   int
	row    int
}

func scriptTok(pos int) token.Token { return token.Token(int(token.NumSpecial) + pos%200) }

func (b *scriptBackend) Propose(ctx []token.Token, _ int) ([]token.Token, []float32, bool) {
	if b.deriving {
		panic("serve: Propose before the draft is ready")
	}
	t := scriptTok(len(ctx))
	if len(ctx)%5 == 0 {
		t++
	}
	return []token.Token{t}, []float32{1}, true
}

func (b *scriptBackend) Results(run *engine.Run, _ uint64, _ []byte) engine.Results {
	return scriptResults{b, run.Msg}
}

func (b *scriptBackend) Ready() bool      { return !b.deriving }
func (*scriptBackend) RowBytes() int      { return 0 }
func (*scriptBackend) MemoryBytes() int64 { return 0 }

type scriptResults struct {
	b   *scriptBackend
	run *engine.RunMsg
}

func (r scriptResults) Next(i int) token.Token {
	r.b.reads = append(r.b.reads, scriptRead{ranged: len(r.run.RowRanges) > 0, rows: r.run.Len(), row: i})
	return scriptTok(int(r.run.Tokens[i].Pos) + 1)
}

// countingWorker is an inline stage that evaluates nothing and counts the
// KV transactions the head ships (a launch's own ops arrive with its
// placement, not here).
type countingWorker struct {
	nopWorker
	txns int
}

func (w *countingWorker) ApplyKV([]kvcache.Op) error {
	w.txns++
	return nil
}

// scriptServe builds a one-node scheduler over the scripted pair.
func scriptServe(t *testing.T, cfg Config, reqs []Request) (*Scheduler, *scriptBackend, *countingWorker) {
	t.Helper()
	bk := &scriptBackend{}
	w := &countingWorker{}
	h, err := engine.NewHead(chancomm.New(1).Endpoint(0), engine.Topology{Head: 0, Stages: []int{0}},
		engine.Config{MaxNew: 4}, bk, w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(h, cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return s, bk, w
}

// TestOneTransactionPerResult drives speculating serves by filling the
// pipeline and then draining it, so chains run deep and rejections cancel
// whole tails: each consumed result — the promotions of every group's accepted
// draft tokens plus the run's partition cleanup — must reach the stages
// as at most one KV transaction (a result that ends a session adds that
// session's namespace release), at width 1 and with three sessions'
// chains sharing tagged runs alike, and every stream must be the
// target's.
func TestOneTransactionPerResult(t *testing.T) {
	const prompt, maxNew = 5, 60
	p := make([]token.Token, prompt)
	for i := range p {
		p[i] = scriptTok(i)
	}
	for _, sessions := range []int{1, 3} {
		reqs := make([]Request, sessions)
		for i := range reqs {
			reqs[i] = Request{Prompt: p, MaxNew: maxNew}
		}
		s, _, w := scriptServe(t, Config{KV: testKV, Speculate: true, MaxSessions: sessions, MaxBatch: sessions}, reqs)
		results, promoted := 0, 0
		for !s.Done() {
			// Fill the pipeline, then drain it: the sessions' steps line
			// up, so at width 3 they share runs.
			s.admit()
			for s.tryLaunch() {
			}
			for s.h.Inflight() > 0 {
				before, done, accepted := w.txns, s.done, s.h.Stats.Accepted.Load()
				if err := s.handleResult(); err != nil {
					t.Fatal(err)
				}
				results++
				if s.h.Stats.Accepted.Load() > accepted {
					promoted++
				}
				if got, limit := w.txns-before, 1+(s.done-done); got > limit {
					t.Fatalf("%d sessions: result %d issued %d KV transactions, want at most %d",
						sessions, results, got, limit)
				}
			}
		}
		st := s.h.Stats.Snapshot()
		if promoted == 0 || st.RunsCancelled+st.RowCancels == 0 {
			t.Fatalf("%d sessions: speculation idle: %d promoting results, %d cancelled runs, %d cancelled rows",
				sessions, promoted, st.RunsCancelled, st.RowCancels)
		}
		if (st.BatchedRuns > 0) != (sessions > 1) {
			// Only coalesced runs count: a session's lone prefill is one
			// untagged (ranged) group.
			t.Fatalf("%d sessions: %d multi-session runs", sessions, st.BatchedRuns)
		}
		for r, res := range s.results {
			if len(res.Tokens) != maxNew {
				t.Fatalf("request %d: %d tokens generated, want %d", r, len(res.Tokens), maxNew)
			}
			for i, tok := range res.Tokens {
				if tok != scriptTok(prompt+i) {
					t.Fatalf("request %d token %d is %d, the target says %d", r, i, tok, scriptTok(prompt+i))
				}
			}
		}
	}
}

// TestWholePromptPrefillIsOneRangedRun pins the unchunked prefill's shape:
// a 9-token prompt travels as one untagged, ranged run of 9 rows, of which
// only the last samples — the scheduler reads row 8 and nothing else.
func TestWholePromptPrefillIsOneRangedRun(t *testing.T) {
	p := make([]token.Token, 9)
	for i := range p {
		p[i] = scriptTok(i)
	}
	s, bk, _ := scriptServe(t, Config{KV: testKV, MaxSessions: 1}, []Request{{Prompt: p, MaxNew: 2}})
	if err := s.Step(); err != nil { // admit + launch
		t.Fatal(err)
	}
	run := s.h.InflightAt(0)
	if len(run.Msg.RowRanges) != 9 || len(run.Msg.RowSessions) != 0 || run.Msg.Len() != 9 || run.Msg.Kind != engine.KindPrefill {
		t.Fatalf("prefill launched as %+v", run.Msg)
	}
	for i := 0; i < 9; i++ {
		if run.Msg.SamplingRow(i) != (i == 8) {
			t.Fatalf("row %d sampling=%v", i, run.Msg.SamplingRow(i))
		}
	}
	if err := s.Step(); err != nil { // consume
		t.Fatal(err)
	}
	if len(bk.reads) != 1 || bk.reads[0] != (scriptRead{ranged: true, rows: 9, row: 8}) {
		t.Fatalf("prefill result read as %+v, want row 8 of a 9-row ranged run", bk.reads)
	}
	if got := s.h.Stats.PrefillBatchedRuns.Load(); got != 1 {
		t.Fatalf("%d prefill runs counted, want 1", got)
	}
}

// TestDisplacedDecodeStepStillLaunches pins the width-1 reading of "one
// group slot is kept for prefill work": a high-priority session decoding
// beside a queued low-priority prompt that does not fit — and may not
// preempt it — gives its slot up to that prompt every step, finds it
// unused, and must launch anyway. The serve finishes, the prompt after
// the session it waited for, nobody parked.
func TestDisplacedDecodeStepStillLaunches(t *testing.T) {
	prompt := func(n int) []token.Token {
		p := make([]token.Token, n)
		for i := range p {
			p[i] = scriptTok(i)
		}
		return p
	}
	// Four pages of 8 cells: the first request's 9-token prompt takes two
	// and its stream a third, so the second's 17 tokens wait for all of it.
	s, _, _ := scriptServe(t, Config{MaxSessions: 2, KV: kvpage.Config{Cells: 32, PageSize: 8}}, []Request{
		{Prompt: prompt(9), MaxNew: 12, Priority: 1},
		{Prompt: prompt(17), MaxNew: 4},
	})
	results, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for r, res := range results {
		if res.Err != nil || len(res.Tokens) != s.reqs[r].MaxNew {
			t.Fatalf("request %d: %d tokens, err %v", r, len(res.Tokens), res.Err)
		}
		for i, tok := range res.Tokens {
			if want := scriptTok(len(s.reqs[r].Prompt) + i); tok != want {
				t.Fatalf("request %d token %d is %d, the target says %d", r, i, tok, want)
			}
		}
	}
	if st := s.h.Stats.Snapshot(); st.Preemptions != 0 {
		t.Fatalf("%d preemptions: the low-priority prompt parked the session it may not preempt", st.Preemptions)
	}
	if results[1].Stats.PrefillDone < results[0].Stats.Done {
		t.Fatal("the prompt that did not fit prefilled before the session holding its pages finished")
	}
}

// TestDecodeWhileDraftDerives: a head that cannot draft yet
// (HeadBackend.Ready) costs speculation, never progress. Under both
// drafting schedules — PipeInfer's continuous chain and the speculative
// baseline's rounds — the session samples the target's tokens while the
// draft is being derived, proposes nothing and keeps its base cutoff,
// then speculates once the draft is ready.
func TestDecodeWhileDraftDerives(t *testing.T) {
	const prompt, maxNew, held = 5, 24, 8
	p := make([]token.Token, prompt)
	for i := range p {
		p[i] = scriptTok(i)
	}
	for _, rounds := range []bool{false, true} {
		s, bk, _ := scriptServe(t, Config{KV: testKV, Speculate: !rounds, MaxSessions: 1, SeqsPerSession: 9},
			[]Request{{Prompt: p, MaxNew: maxNew}})
		s.rounds, bk.deriving = rounds, true
		// Fill the pipeline, then drain it: on one inline stage a result
		// waits the moment its run launches.
		until := func(stop func() bool) {
			for !stop() {
				s.admit()
				for s.tryLaunch() {
				}
				for s.h.Inflight() > 0 {
					if err := s.handleResult(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		until(func() bool { return s.TotalAccepted() >= held })
		if sess := s.slots[0]; s.h.Stats.Proposed.Load() != 0 || sess.Cutoff != s.h.CFG.SpecCutoff {
			t.Fatalf("rounds=%v: %d tokens proposed, cutoff %v before the draft was ready; want 0, %v",
				rounds, s.h.Stats.Proposed.Load(), sess.Cutoff, s.h.CFG.SpecCutoff)
		}
		bk.deriving = false
		until(s.Done)
		results := s.results
		for i, tok := range results[0].Tokens {
			if tok != scriptTok(prompt+i) {
				t.Fatalf("rounds=%v: token %d is %d, the target says %d", rounds, i, tok, scriptTok(prompt+i))
			}
		}
		if len(results[0].Tokens) != maxNew || results[0].Stats.Proposed == 0 {
			t.Fatalf("rounds=%v: %d tokens, %d proposed once the draft was ready", rounds, len(results[0].Tokens), results[0].Stats.Proposed)
		}
	}
}

// TestBaselineDoesNotDraftWhileTripped drives the speculative baseline
// (Drive, engine.StrategySpeculative) over a head and one remote stage
// whose first three result frames are lost: each loss fails its run at
// the watchdog and parks the session, the third trips the breaker, and
// the serve ends before sixteen healthy completions could close it. From
// the trip on the baseline must not draft, so no tree is ever launched —
// and the stream is still the target's. The same serve without the lost
// frames does draft, so the check is not vacuous.
func TestBaselineDoesNotDraftWhileTripped(t *testing.T) {
	const prompt, maxNew = 5, 8
	p := make([]token.Token, prompt)
	for i := range p {
		p[i] = scriptTok(i)
	}
	for _, lose := range []bool{false, true} {
		plan := &faultcomm.Plan{}
		if lose {
			for n := 1; n <= breakerTripAfter; n++ {
				plan.Rules = append(plan.Rules, faultcomm.Rule{Src: 1, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: n})
			}
		}
		cl := chancomm.New(2)
		topo := engine.Topology{Head: 0, Stages: []int{1}}
		h, err := engine.NewHead(faultcomm.Wrap(cl.Endpoint(0), plan), topo, engine.Config{MaxNew: maxNew}, &scriptBackend{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		stage := make(chan error, 1)
		go func() { stage <- engine.WorkerLoop(cl.Endpoint(1), topo, nopWorker{}, engine.WorkerObs{}) }()
		results, err := Drive(h, engine.StrategySpeculative,
			Config{KV: testKV, MaxSessions: 1, SeqsPerSession: 9, RunTimeout: 50 * time.Millisecond},
			[]Request{{Prompt: p, MaxNew: maxNew}})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-stage; err != nil {
			t.Fatal(err)
		}
		for i, tok := range results[0].Tokens {
			if tok != scriptTok(prompt+i) {
				t.Fatalf("lose=%v: token %d is %d, the target says %d", lose, i, tok, scriptTok(prompt+i))
			}
		}
		st := h.Stats.Snapshot()
		if len(results[0].Tokens) != maxNew {
			t.Fatalf("lose=%v: %d tokens, want %d", lose, len(results[0].Tokens), maxNew)
		}
		switch {
		case !lose && st.Proposed == 0:
			t.Fatal("the baseline drafted no tree on a healthy pipeline")
		case lose && (st.BreakerTrips != 1 || st.Recoveries < breakerTripAfter):
			t.Fatalf("%d breaker trips, %d recoveries from %d lost results; want 1 trip", st.BreakerTrips, st.Recoveries, breakerTripAfter)
		case lose && st.Proposed != 0:
			t.Fatalf("the baseline proposed %d tree nodes with the breaker open", st.Proposed)
		}
	}
}
