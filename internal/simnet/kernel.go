// Package simnet is a deterministic discrete-event simulation kernel with
// a process-per-goroutine programming model.
//
// Every simulated node runs as an ordinary goroutine written in direct
// style (loop, send, receive, compute), but the kernel enforces strictly
// sequential execution: exactly one process runs at a time, control is
// handed over through channels, and all waiting happens through the
// kernel's virtual clock and event heap. Events at equal timestamps are
// ordered by schedule sequence number, so a simulation is a pure function
// of its inputs — two runs produce identical event orders, which the
// reproduction relies on for regenerating the paper's figures exactly.
//
// The kernel detects global deadlock (no pending events while processes
// are still blocked) and reports the stuck processes, which doubles as a
// failure-injection test surface for the pipeline engines.
package simnet

import (
	"container/heap"
	"fmt"
	"sort"
	"time"
)

// Time is virtual simulation time measured from zero.
type Time = time.Duration

// event is a kernel action scheduled at a virtual timestamp.
type event struct {
	at  Time
	seq uint64 // schedule order; breaks timestamp ties deterministically
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Kernel owns the virtual clock, the event heap, and the process set.
type Kernel struct {
	now    Time
	events eventHeap
	seq    uint64
	procs  []*Proc
	yield  chan struct{}
}

// NewKernel creates an empty kernel.
func NewKernel() *Kernel {
	return &Kernel{yield: make(chan struct{})}
}

// Now returns the current virtual time. It is only meaningful from inside
// a running process or after Run returns.
func (k *Kernel) Now() Time { return k.now }

// Proc is the handle a simulated process uses to interact with the kernel.
type Proc struct {
	k       *Kernel
	name    string
	resume  chan struct{}
	done    bool
	blocked bool // parked with no scheduled wake-up (waiting on a message)
	fn      func(*Proc)
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn registers a process. All processes must be spawned before Run.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{}), fn: fn}
	k.procs = append(k.procs, p)
	return p
}

// Schedule enqueues fn to run in kernel context at absolute time at
// (clamped to now). It may be called from kernel context or from the
// currently running process.
func (k *Kernel) Schedule(at Time, fn func()) {
	if at < k.now {
		at = k.now
	}
	k.seq++
	heap.Push(&k.events, event{at: at, seq: k.seq, fn: fn})
}

// runUntilYield transfers control to p and waits until it blocks or
// finishes.
func (k *Kernel) runUntilYield(p *Proc) {
	p.resume <- struct{}{}
	<-k.yield
}

// yieldToKernel is called from process context: give control back and wait
// to be resumed.
func (p *Proc) yieldToKernel() {
	p.k.yield <- struct{}{}
	<-p.resume
}

// Advance moves the process's local time forward by d (a computation or
// explicit sleep). d < 0 panics.
func (p *Proc) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simnet: negative advance %v by %s", d, p.name))
	}
	k := p.k
	k.Schedule(k.now+d, func() { k.runUntilYield(p) })
	p.yieldToKernel()
}

// Block parks the process indefinitely; some other agent must call
// p.Ready() (typically from a delivery event) to make it runnable again.
func (p *Proc) Block() {
	p.blocked = true
	p.yieldToKernel()
	p.blocked = false
}

// Ready schedules the process to resume at the current virtual time. It
// must only be called for a process parked via Block.
func (p *Proc) Ready() {
	k := p.k
	k.Schedule(k.now, func() { k.runUntilYield(p) })
}

// DeadlockError reports a simulation that can make no further progress.
type DeadlockError struct {
	At      Time
	Blocked []string // names of processes parked forever
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("simnet: deadlock at %v; blocked: %v", e.At, e.Blocked)
}

// Run executes the simulation until every process finishes. It returns a
// *DeadlockError if processes remain blocked with no pending events.
func (k *Kernel) Run() error {
	// Launch all process goroutines; each waits for its first resume.
	for _, p := range k.procs {
		p := p
		go func() {
			<-p.resume
			p.fn(p)
			p.done = true
			k.yield <- struct{}{}
		}()
		k.Schedule(0, func() { k.runUntilYield(p) })
	}
	for k.events.Len() > 0 {
		ev := heap.Pop(&k.events).(event)
		k.now = ev.at
		ev.fn()
	}
	var stuck []string
	for _, p := range k.procs {
		if !p.done {
			stuck = append(stuck, p.name)
		}
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return &DeadlockError{At: k.now, Blocked: stuck}
	}
	return nil
}
