package simbk

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/telemetry"
)

// TestServeOverloadParity is the overload-control correctness wall at
// paper scale, in exact virtual time: a 4x-oversubscribed mixed-SLO
// burst where half the sessions carry a 1ns TTFT deadline. Whatever
// subset the scheduler sheds (virtual time is deterministic, but the
// first admission happens at t=0 where a 1ns deadline is not yet past,
// so early doomed sessions may legitimately serve), every settled
// request must either carry ErrShedDeadline or reproduce its oracle
// stream bit for bit — shed requests consume no pipeline work and are
// never silent. Serve's own end-state check asserts the stage caches
// drain to zero cells.
func TestServeOverloadParity(t *testing.T) {
	const maxNew = 24
	const sessions = 16
	opts := ServeOptions{
		Cluster:     cost.ClusterC().Take(4),
		Pair:        cost.CPUPairs()[0],
		CFG:         engine.Config{MaxNew: maxNew},
		Sessions:    sessions,
		PromptLen:   12,
		Seed:        5,
		MaxSessions: 4,
		SLOFor: func(i int) (int, time.Duration, time.Duration) {
			if i >= sessions/2 {
				// Doomed class: provably unmeetable as soon as virtual
				// time advances past 1ns with the request still queued.
				return 0, time.Nanosecond, 0
			}
			// Survivor class: mixed priorities, far-future completion
			// deadline so deadline scoring engages.
			return i % 3, 0, time.Hour
		},
	}
	out, err := Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != sessions {
		t.Fatalf("%d results for %d sessions", len(out.Results), sessions)
	}
	served, shed := 0, 0
	for i, res := range out.Results {
		if errors.Is(res.Err, serve.ErrShedDeadline) {
			shed++
			if i < sessions/2 {
				t.Fatalf("deadline-less session %d was shed", i)
			}
			if len(res.Tokens) != 0 {
				t.Fatalf("shed session %d produced %d tokens", i, len(res.Tokens))
			}
			continue
		}
		if res.Err != nil {
			t.Fatalf("session %d errored: %v", i, res.Err)
		}
		served++
		ref := ServeReference(opts, i, maxNew)
		if len(res.Tokens) != len(ref) {
			t.Fatalf("session %d: %d tokens, want %d", i, len(res.Tokens), len(ref))
		}
		for j := range ref {
			if res.Tokens[j] != ref[j] {
				t.Fatalf("session %d deviated from its oracle stream at token %d under shedding", i, j)
			}
		}
	}
	if shed == 0 {
		t.Fatal("a 4x-oversubscribed burst with 1ns TTFT deadlines shed nothing")
	}
	if served+shed != sessions {
		t.Fatalf("%d served + %d shed != %d sessions", served, shed, sessions)
	}
	if out.Stats.Sheds != shed {
		t.Fatalf("Stats.Sheds = %d, but %d results carry ErrShedDeadline", out.Stats.Sheds, shed)
	}
	if out.Stats.DeadlineHits != sessions/2 || out.Stats.DeadlineMisses+out.Stats.DeadlineHits+shed != sessions {
		t.Fatalf("deadline scoring: %d hits, %d misses, %d shed over %d sessions",
			out.Stats.DeadlineHits, out.Stats.DeadlineMisses, shed, sessions)
	}
	if out.Stats.Generated != served*maxNew {
		t.Fatalf("aggregate generated %d, want %d (served sessions only)", out.Stats.Generated, served*maxNew)
	}
}

// TestSimServeOverloadGoodput is the overload-control headline in exact
// virtual time: deadline-met goodput (tokens from sessions that met every
// configured deadline, per virtual second) at 1x and 4x oversubscription
// of a 4-slot cluster. One deadline-free 1x wave calibrates the service
// time; the shed arm then gives every request a TTFT SLO of 3/4 of that
// wave (the first wave meets it, anything still queued becomes provably
// unmeetable and is shed before compute), while the no-shed control
// carries only a completion deadline of 1.5 waves, which cannot be shed:
// excess waves serve anyway, miss, and dilute goodput. Shed goodput at 4x
// must stay within 15 % of 1x, and the control must fall to 0.6 of 1x or
// below.
func TestSimServeOverloadGoodput(t *testing.T) {
	const slots = 4
	base := ServeOptions{
		Cluster:     cost.ClusterC().Take(4),
		Pair:        cost.CPUPairs()[0],
		CFG:         engine.Config{MaxNew: 24},
		Sessions:    slots,
		PromptLen:   12,
		Seed:        42,
		MaxSessions: slots,
	}
	cal, err := Serve(base)
	if err != nil {
		t.Fatal(err)
	}
	wave := cal.Stats.Done
	goodput := func(mult int, ttft, compl time.Duration) float64 {
		opts := base
		opts.Sessions = slots * mult
		opts.SLOFor = func(int) (int, time.Duration, time.Duration) { return 0, ttft, compl }
		out, err := Serve(opts)
		if err != nil {
			t.Fatal(err)
		}
		good := 0
		for _, res := range out.Results {
			if res.Err == nil && res.Stats.DeadlineHits == 1 {
				good += res.Stats.Generated
			}
		}
		if good == 0 || out.Stats.Done <= 0 {
			t.Fatalf("%dx: %d deadline-met tokens in %v", mult, good, out.Stats.Done)
		}
		return float64(good) / out.Stats.Done.Seconds()
	}
	x1, x4 := goodput(1, wave*3/4, 0), goodput(4, wave*3/4, 0)
	if ratio := x4 / x1; ratio < 0.85 || ratio > 1.15 {
		t.Errorf("shed goodput at 4x is %.2fx of 1x (%.2f / %.2f tok/s), want within 15%%", ratio, x4, x1)
	}
	if ctl := goodput(4, 0, wave*3/2); ctl > 0.6*x1 {
		t.Errorf("the no-shed control held %.2f of %.2f tok/s at 4x, want at most 0.6 of it", ctl, x1)
	}
}

// TestSimServeOverloadBoundedQueue checks the admission-control arm in
// simulation: with MaxQueue set, submissions past the bound settle as
// ErrOverloaded while in-bound sessions still reproduce their oracle
// streams exactly.
func TestSimServeOverloadBoundedQueue(t *testing.T) {
	const maxNew = 16
	opts := ServeOptions{
		Cluster:     cost.ClusterC().Take(3),
		Pair:        cost.CPUPairs()[0],
		CFG:         engine.Config{MaxNew: maxNew},
		Sessions:    6,
		PromptLen:   10,
		Seed:        11,
		MaxSessions: 1,
		MaxQueue:    2,
	}
	out, err := Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Overloads != 4 {
		t.Fatalf("Stats.Overloads = %d, want 4", out.Stats.Overloads)
	}
	for i, res := range out.Results {
		if i >= 2 {
			if !errors.Is(res.Err, serve.ErrOverloaded) {
				t.Fatalf("over-bound session %d: Err = %v, want ErrOverloaded", i, res.Err)
			}
			continue
		}
		if res.Err != nil {
			t.Fatalf("in-bound session %d errored: %v", i, res.Err)
		}
		ref := ServeReference(opts, i, maxNew)
		for j := range ref {
			if res.Tokens[j] != ref[j] {
				t.Fatalf("session %d deviated from its oracle stream at token %d", i, j)
			}
		}
	}
}

// TestSimServeRegistryKeepsSchedule pins that attaching a telemetry
// registry observes a serve without steering it. TTFT shedding and the
// sustainable-rate refusal both read the scheduler's run-cost model, so
// the model must learn from every result whether or not anything is
// watching: 20 speculating sessions over 4 slots behind a 16-deep queue,
// every request carrying a 26 s TTFT deadline, serve to the same virtual
// instant, the same counters and the same results with a registry and
// without one.
func TestSimServeRegistryKeepsSchedule(t *testing.T) {
	serveWith := func(obs *telemetry.Registry) ServeOutcome {
		out, err := Serve(ServeOptions{
			Cluster:     cost.ClusterC().Take(4),
			Pair:        cost.CPUPairs()[0],
			CFG:         engine.Config{MaxNew: 32},
			Sessions:    20,
			PromptLen:   12,
			Seed:        42,
			MaxSessions: 4,
			MaxQueue:    16,
			Speculate:   true,
			SLOFor: func(int) (int, time.Duration, time.Duration) {
				return 0, 26 * time.Second, 0
			},
			Obs: obs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain, watched := serveWith(nil), serveWith(telemetry.New())
	if plain.Stats.Done != watched.Stats.Done {
		t.Fatalf("done at %v without a registry, %v with one", plain.Stats.Done, watched.Stats.Done)
	}
	if !reflect.DeepEqual(plain.Stats, watched.Stats) {
		t.Fatalf("stats differ:\nwithout a registry %+v\nwith one           %+v", plain.Stats, watched.Stats)
	}
	if !reflect.DeepEqual(plain.Results, watched.Results) {
		t.Fatal("results differ with a registry attached")
	}
}
