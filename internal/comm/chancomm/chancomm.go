// Package chancomm implements comm.Endpoint over in-process shared memory
// for the real-compute backend: every pipeline node is a goroutine, sends
// append to the receiver's mailbox, and receivers wait for an arrival —
// first in a short yielding spin, then parked on a condition variable.
// Per (src, tag) FIFO order — the MPI non-overtaking guarantee — holds
// because each sender appends under the receiver's lock in program order.
//
// # Hand-off
//
// A Send has the message in the receiver's mailbox before it returns; what
// remains is getting the receiver onto a processor. Waking a parked
// goroutine costs more here than a pipeline stage's step: cond.Broadcast
// readies the receiver in the *sender's* run-next slot, where it sits
// until the sender blocks or an idle P steals it (about 80 µs measured on
// the perf-lab host, against 27-60 µs of stage compute), so a parked
// receiver never overlaps its sender. A receiver that finds its stream
// empty therefore stays on its P for spinBudget, polling the endpoint's
// arrival counter between runtime.Gosched calls, and parks only after
// that. The poll reads one atomic and never touches the mailbox lock, so
// it costs senders nothing; the Gosched hands the P to any other runnable
// rank, so a cluster with fewer Ps than ranks makes progress at the
// yield rate rather than the budget rate.
package chancomm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
)

// spinBudget is how long a receiver polls for an arrival before parking.
// It is the measured park-and-wake cost: spinning longer than a wake
// would have taken only burns CPU, and a much shorter spin parks just
// before the next stage's message lands (perf-lab sweep in CHANGES.md,
// PR 15: 30 µs bought nothing, 300 µs only more CPU). A constant, not an
// option: the right value is a property of the Go scheduler, not of a
// workload.
const spinBudget = 80 * time.Microsecond

// Cluster is a set of connected in-process endpoints.
type Cluster struct {
	eps   []*endpoint
	epoch time.Time
}

// New creates a cluster of n endpoints.
func New(n int) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("chancomm: cluster size %d", n))
	}
	c := &Cluster{epoch: time.Now()}
	for i := 0; i < n; i++ {
		ep := &endpoint{cluster: c, rank: i, box: comm.NewMailbox(n)}
		ep.cond = sync.NewCond(&ep.mu)
		c.eps = append(c.eps, ep)
	}
	return c
}

// Endpoint returns the endpoint for the given rank.
func (c *Cluster) Endpoint(rank int) comm.Endpoint { return c.eps[rank] }

// Size returns the number of endpoints.
func (c *Cluster) Size() int { return len(c.eps) }

type endpoint struct {
	cluster *Cluster
	rank    int

	mu   sync.Mutex
	cond *sync.Cond
	box  *comm.Mailbox
	// arrivals counts messages delivered to box, on any stream. It is
	// written under mu and read without it by the spinning receiver: a
	// value different from the one read under mu alongside an empty
	// stream means a delivery happened since.
	arrivals atomic.Uint64
	// timer wakes a bounded WaitRecv at its deadline; allocated on first
	// use and reused (Reset) so steady-state watchdog waits stay
	// allocation-free. Safe as a single field because only the owning
	// rank's goroutine ever receives on an endpoint.
	timer *time.Timer
}

func (e *endpoint) Rank() int { return e.rank }
func (e *endpoint) Size() int { return len(e.cluster.eps) }

func (e *endpoint) Send(dst int, tag comm.Tag, payload []byte, wireBytes int) {
	if dst == e.rank {
		panic("chancomm: send to self")
	}
	target := e.cluster.eps[dst]
	// Copy the payload: the sender may reuse its buffer immediately, which
	// is exactly what MPI buffered sends permit. The copy comes from the
	// shared message pool; the receiver releases it after consumption.
	cp := append(comm.GetBuf(len(payload)), payload...)
	target.mu.Lock()
	target.box.Stream(e.rank, tag).Push(cp)
	target.arrivals.Add(1)
	target.mu.Unlock()
	target.cond.Broadcast()
}

// await blocks until q is non-empty or the deadline passes (a zero
// deadline never does) and reports whether a message is waiting. The
// caller holds e.mu, and holds it again on return.
func (e *endpoint) await(q *comm.Ring, deadline time.Time) bool {
	if q.Len() > 0 {
		return true // the common case pays for no clock read
	}
	// Spin phase. seen is read under mu together with the empty stream,
	// so any later delivery moves the counter past it.
	spinEnd := time.Now().Add(spinBudget)
	if !deadline.IsZero() && deadline.Before(spinEnd) {
		spinEnd = deadline
	}
	for q.Len() == 0 && time.Now().Before(spinEnd) {
		seen := e.arrivals.Load()
		e.mu.Unlock()
		for e.arrivals.Load() == seen && time.Now().Before(spinEnd) {
			runtime.Gosched()
		}
		e.mu.Lock()
	}
	// Park phase. The deadline timer broadcasts under the lock, so it
	// can only fire while the waiter is parked (or about to re-check the
	// queue) — never between the queue check and the Wait.
	for q.Len() == 0 {
		if deadline.IsZero() {
			e.cond.Wait()
			continue
		}
		rem := time.Until(deadline)
		if rem <= 0 {
			return false
		}
		if e.timer == nil {
			e.timer = time.AfterFunc(rem, func() {
				e.mu.Lock()
				e.cond.Broadcast()
				e.mu.Unlock()
			})
		} else {
			e.timer.Reset(rem)
		}
		e.cond.Wait()
		e.timer.Stop()
	}
	return true
}

func (e *endpoint) Recv(src int, tag comm.Tag) []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	q := e.box.Stream(src, tag)
	e.await(q, time.Time{})
	return q.Pop()
}

// WaitRecv implements comm.Waiter: wait up to d for a message on (src,
// tag), spinning first like Recv but never past the deadline.
func (e *endpoint) WaitRecv(src int, tag comm.Tag, d time.Duration) bool {
	deadline := time.Now().Add(d)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.await(e.box.Stream(src, tag), deadline)
}

func (e *endpoint) Iprobe(src int, tag comm.Tag) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.box.Stream(src, tag).Len() > 0
}

func (e *endpoint) Now() time.Duration { return time.Since(e.cluster.epoch) }

// Elapse is a no-op: real computation already consumed wall time.
func (e *endpoint) Elapse(time.Duration) {}
