package chancomm

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
)

func TestSelfSendPanics(t *testing.T) {
	c := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-send")
		}
	}()
	c.Endpoint(0).Send(0, comm.TagRun, nil, 0)
}

func TestSizeAndRank(t *testing.T) {
	c := New(3)
	for i := 0; i < 3; i++ {
		ep := c.Endpoint(i)
		if ep.Rank() != i || ep.Size() != 3 {
			t.Fatalf("endpoint %d identity wrong", i)
		}
	}
}

func TestNewPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty cluster")
		}
	}()
	New(0)
}

func TestNowMonotonic(t *testing.T) {
	c := New(1)
	ep := c.Endpoint(0)
	a := ep.Now()
	b := ep.Now()
	if b < a {
		t.Fatal("clock went backwards")
	}
	ep.Elapse(1 << 30) // no-op, must not affect the clock meaningfully
}

// TestWaitRecvDeadlineInsideSpinBudget pins the one place the spin could
// break the Waiter contract: a deadline shorter than the budget must end
// the wait at the deadline, not at the end of the spin, and never before
// it. Every wait is noisy upwards only, so the fastest of many decides.
func TestWaitRecvDeadlineInsideSpinBudget(t *testing.T) {
	ep := New(2).Endpoint(1).(*endpoint)
	const d = spinBudget / 8
	fastest := time.Hour
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if ep.WaitRecv(0, comm.TagResult, d) {
			t.Fatal("WaitRecv reported a message on an empty mailbox")
		}
		took := time.Since(t0)
		if took < d {
			t.Fatalf("WaitRecv returned false after %v, before its %v deadline", took, d)
		}
		fastest = min(fastest, took)
	}
	if fastest >= spinBudget {
		t.Fatalf("a %v wait never took less than %v: the spin ran out its %v budget past the deadline", d, fastest, spinBudget)
	}
}

// TestWaitRecvPastSpinBudget covers the parked half of a bounded wait: a
// deadline well past the budget is honoured to the end when nothing
// arrives, and a message landing after the spin gave up still wakes the
// waiter.
func TestWaitRecvPastSpinBudget(t *testing.T) {
	c := New(2)
	ep := c.Endpoint(1).(*endpoint)
	const d = 20 * spinBudget
	t0 := time.Now()
	if ep.WaitRecv(0, comm.TagResult, d) {
		t.Fatal("WaitRecv reported a message on an empty mailbox")
	}
	if took := time.Since(t0); took < d {
		t.Fatalf("WaitRecv returned false after %v, before its %v deadline", took, d)
	}
	go func() {
		time.Sleep(5 * spinBudget) // the waiter is parked by now
		c.Endpoint(0).Send(1, comm.TagResult, []byte("late"), 0)
	}()
	if !ep.WaitRecv(0, comm.TagResult, 10*time.Second) {
		t.Fatal("a message that arrived while parked did not wake WaitRecv")
	}
	if got := ep.Recv(0, comm.TagResult); string(got) != "late" {
		t.Fatalf("got %q", got)
	}
}

// TestRingProgressWithOneP is the livelock check for the spin: with one P
// and three ranks, a spinning receiver must hand the processor to the
// rank it is waiting on. A token goes round the ring; if spinners only
// ever yielded to each other, or not at all, each hop would cost a full
// budget (or a 10 ms preemption), and the run would blow the bound.
func TestRingProgressWithOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const ranks, laps = 3, 2000
	c := New(ranks)
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := c.Endpoint(r)
			for i := 0; i < laps; i++ {
				msg := ep.Recv(r-1, comm.TagActivation)
				ep.Send((r+1)%ranks, comm.TagActivation, msg, 0)
				comm.PutBuf(msg)
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ep := c.Endpoint(0)
		for i := 0; i < laps; i++ {
			ep.Send(1, comm.TagActivation, []byte{byte(i)}, 0)
			msg := ep.Recv(ranks-1, comm.TagActivation)
			if msg[0] != byte(i) {
				t.Errorf("lap %d came back as %d", i, msg[0])
			}
			comm.PutBuf(msg)
		}
		wg.Wait()
	}()
	// 6000 hops: at a budget per hop this is 0.5 s, at a preemption per
	// hop a minute; yielding hops take a few milliseconds in all.
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("ring of 3 ranks on 1 P made no progress: spinning receivers are starving the sender")
	}
}

// TestSendReachesPeerWhileSenderRuns is the overlap the spin exists for.
// A sender Sends, computes H without yielding, then waits for the reply;
// the worker receives, computes W, replies. If the worker is on a P when
// the message lands, the two computations overlap and a cycle costs
// about max(H, W); if it has to be woken it starts only once the sender
// blocks (a wake-up takes longer than H), the two run as a convoy, and
// no cycle can cost less than H + W — ever, so one window of cycles
// below that proves the hand-off overlaps. Noise only adds time, hence
// the lower quartile.
//
// It wants CPUs to spare, not just one per rank: on a 2-vCPU sandbox
// the kernel was seen to stack both ranks' threads on one CPU (a futex
// wake lands the woken thread on its waker's CPU) and keep them there
// for as long as each parked once per cycle — a convoy below the
// transport, for whole runs of this test, about one run in fifty.
func TestSendReachesPeerWhileSenderRuns(t *testing.T) {
	if min(runtime.GOMAXPROCS(0), runtime.NumCPU()) < 4 {
		t.Skip("overlap needs a CPU per rank and CPUs to spare")
	}
	const (
		H, W    = spinBudget / 2, spinBudget / 2
		cycles  = 250 // per window: the sender is busy ~10 ms of it
		windows = 8
	)
	busy := func(d time.Duration) {
		for t0 := time.Now(); time.Since(t0) < d; {
		}
	}
	c := New(2)
	go func() {
		ep := c.Endpoint(1)
		for {
			msg := ep.Recv(0, comm.TagActivation)
			stop := len(msg) == 0
			comm.PutBuf(msg)
			if stop {
				return
			}
			busy(W)
			ep.Send(0, comm.TagResult, nil, 0)
		}
	}()
	ep := c.Endpoint(0)
	defer ep.Send(1, comm.TagActivation, nil, 0)
	took := make([]time.Duration, cycles)
	best := time.Duration(math.MaxInt64)
	for w := 0; w < windows; w++ {
		for i := range took {
			t0 := time.Now()
			ep.Send(1, comm.TagActivation, []byte{1}, 0)
			busy(H)
			comm.PutBuf(ep.Recv(1, comm.TagResult))
			took[i] = time.Since(t0)
		}
		slices.Sort(took)
		best = min(best, took[cycles/4])
		if best < (H+W)*9/10 {
			return
		}
		time.Sleep(10 * time.Millisecond) // let the kernel re-spread the threads
	}
	t.Fatalf("lower-quartile cycle never under %v with H = W = %v: the worker did not compute while the sender did (a convoy costs at least %v, full overlap about %v)",
		best, H, H+W, max(H, W))
}
