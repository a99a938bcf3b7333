// Package faultcomm wraps any comm.Endpoint with seeded, deterministic
// fault injection — the harness every robustness test drives. Faults are
// applied on the receive side, per (src, dst, tag) stream, selected by
// message index (or a seeded per-message coin), so a plan reproduces the
// same faults regardless of goroutine interleaving or wall-clock jitter.
//
// The fault model mirrors how an ordered transport (TCP) actually fails:
// per-stream FIFO order is always preserved — a held message blocks the
// messages behind it (head-of-line blocking), exactly as a stalled TCP
// connection would. Message loss, duplication, and corruption model
// failures above the transport (a crashed-and-restarted peer, an
// application-level retransmit). The engine protocol tolerates loss and
// duplication only on the result and cancel streams (results are
// ID-fenced and cancels are advisory); dropping or duplicating a frame on
// the run stream (a run with its activation, a KV transaction, shutdown)
// desynchronises the stages irrecoverably, so plans against a live
// pipeline should restrict Drop and Dup to comm.TagResult / comm.TagCancel
// and use Delay or Partition — which hold and release, never lose — on
// everything else.
package faultcomm

import (
	"fmt"
	"sync"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
)

// Kind is the fault applied to a selected message.
type Kind uint8

const (
	// Delay holds the message for Rule.Delay before it becomes
	// receivable; later messages on the stream queue behind it.
	Delay Kind = iota
	// Drop discards the message.
	Drop
	// Dup delivers the message twice, back to back.
	Dup
	// Corrupt flips one byte in the middle of the payload.
	Corrupt
	// Stall holds the message (and, by FIFO order, the stream) forever.
	Stall
	// Partition holds every message arriving in [From, Until) until the
	// window closes, then releases them in order — a link outage healed
	// by transport-level retransmission, the in-process analogue of a
	// rank dropping off the network and reconnecting.
	Partition
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	case Dup:
		return "dup"
	case Corrupt:
		return "corrupt"
	case Stall:
		return "stall"
	case Partition:
		return "partition"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Rule selects messages and names the fault to inject. The first
// matching rule in the plan wins.
type Rule struct {
	// Src / Dst filter the link (sender rank / receiver rank); -1 matches
	// any. Tag filters the stream; -1 matches any tag.
	Src, Dst int
	Tag      int

	Kind Kind

	// Selection, checked in order: Nth > 0 matches exactly the Nth
	// message (1-based) of each matching stream; Every > 0 matches
	// stream indices i (0-based) with i % Every == Offset; otherwise
	// Prob > 0 applies a seeded per-message coin. With none set the rule
	// matches every message — the usual choice for Partition windows.
	Nth           int
	Every, Offset int
	Prob          float64

	// Delay is the hold duration for Kind Delay.
	Delay time.Duration
	// From / Until delimit Partition's outage window in receiver-local
	// time; messages arriving inside it are held until Until.
	From, Until time.Duration
}

// matches reports whether the rule selects message index i (0-based) of
// stream (src → dst, tag).
func (r *Rule) matches(seed uint64, src, dst int, tag comm.Tag, i uint64) bool {
	if r.Src >= 0 && r.Src != src {
		return false
	}
	if r.Dst >= 0 && r.Dst != dst {
		return false
	}
	if r.Tag >= 0 && r.Tag != int(tag) {
		return false
	}
	switch {
	case r.Nth > 0:
		return i == uint64(r.Nth-1)
	case r.Every > 0:
		return i%uint64(r.Every) == uint64(r.Offset)
	case r.Prob > 0:
		return coin(seed, src, dst, tag, i) < r.Prob
	}
	return true
}

// coin derives a deterministic uniform [0, 1) value per message identity.
func coin(seed uint64, src, dst int, tag comm.Tag, i uint64) float64 {
	x := seed ^ (uint64(src)+1)*0x9e3779b97f4a7c15 ^ (uint64(dst)+1)*0xbf58476d1ce4e5b9 ^
		(uint64(tag)+1)*0x94d049bb133111eb ^ (i+1)*0xd6e8feb86659fd93
	// splitmix64 finaliser.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// Link identifies one direction of a rank pair.
type Link struct{ Src, Dst int }

// Stats counts injected faults.
type Stats struct {
	Delayed, Dropped, Duplicated, Corrupted, Stalled, Partitioned int
}

// Total is the number of faults injected.
func (s Stats) Total() int {
	return s.Delayed + s.Dropped + s.Duplicated + s.Corrupted + s.Stalled + s.Partitioned
}

// Plan is a seeded fault schedule shared by every wrapped endpoint of a
// cluster. The zero value (no rules) injects nothing.
type Plan struct {
	// Seed drives the Prob coin; plans with equal seeds and rules inject
	// identical faults on identical message sequences.
	Seed  uint64
	Rules []Rule

	mu      sync.Mutex
	total   Stats
	perLink map[Link]*Stats
	perRule []int
}

// record counts one fault injected by Rules[ri] on src → dst.
func (p *Plan) record(ri, src, dst int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.perLink == nil {
		p.perLink = make(map[Link]*Stats)
		p.perRule = make([]int, len(p.Rules))
	}
	p.perRule[ri]++
	ls := p.perLink[Link{src, dst}]
	if ls == nil {
		ls = &Stats{}
		p.perLink[Link{src, dst}] = ls
	}
	for _, s := range []*Stats{&p.total, ls} {
		switch p.Rules[ri].Kind {
		case Delay:
			s.Delayed++
		case Drop:
			s.Dropped++
		case Dup:
			s.Duplicated++
		case Corrupt:
			s.Corrupted++
		case Stall:
			s.Stalled++
		case Partition:
			s.Partitioned++
		}
	}
}

// Stats returns the total injected-fault counters.
func (p *Plan) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// RuleHits returns the number of faults Rules[i] injected: zero for a rule
// that matched no message, which a test can tell from a rule that fired.
func (p *Plan) RuleHits(i int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < len(p.perRule) {
		return p.perRule[i]
	}
	return 0
}

// LinkStats returns the counters for the src → dst link.
func (p *Plan) LinkStats(src, dst int) Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.perLink[Link{src, dst}]; s != nil {
		return *s
	}
	return Stats{}
}

// held is a message admitted from the inner transport but not yet
// receivable: release is the receiver-local time it becomes deliverable,
// or stalledForever.
type held struct {
	buf     []byte
	release time.Duration
}

const stalledForever = time.Duration(-1)

type streamKey struct {
	src int
	tag comm.Tag
}

// Endpoint wraps an inner endpoint with the plan's faults. It waits held
// messages out in the inner endpoint's WaitRecv, without busy-polling or
// breaking virtual time.
type Endpoint struct {
	inner comm.Endpoint
	plan  *Plan
	pend  map[streamKey][]held
	seen  map[streamKey]uint64
}

// Wrap applies plan to every receive on ep. A nil plan passes through
// with no held state.
func Wrap(ep comm.Endpoint, plan *Plan) *Endpoint {
	return &Endpoint{
		inner: ep,
		plan:  plan,
		pend:  make(map[streamKey][]held),
		seen:  make(map[streamKey]uint64),
	}
}

// Rank implements comm.Endpoint.
func (e *Endpoint) Rank() int { return e.inner.Rank() }

// Size implements comm.Endpoint.
func (e *Endpoint) Size() int { return e.inner.Size() }

// Send implements comm.Endpoint: injection is receive-side only, so
// sends pass straight through (the receiver's wrapper holds them).
func (e *Endpoint) Send(dst int, tag comm.Tag, payload []byte, wireBytes int) {
	e.inner.Send(dst, tag, payload, wireBytes)
}

// Now implements comm.Endpoint.
func (e *Endpoint) Now() time.Duration { return e.inner.Now() }

// Elapse implements comm.Endpoint.
func (e *Endpoint) Elapse(d time.Duration) { e.inner.Elapse(d) }

// Reconnects forwards the inner transport's reconnection count (0 for
// transports without link repair), so stats plumbing sees through the
// fault wrapper.
func (e *Endpoint) Reconnects() int {
	if rc, ok := e.inner.(interface{ Reconnects() int }); ok {
		return rc.Reconnects()
	}
	return 0
}

// admit runs one freshly received message through the plan and queues
// the survivors on the stream's hold list.
func (e *Endpoint) admit(k streamKey, buf []byte) {
	i := e.seen[k]
	e.seen[k]++
	if e.plan == nil {
		e.pend[k] = append(e.pend[k], held{buf, 0})
		return
	}
	now := e.inner.Now()
	release := now
	dst := e.inner.Rank()
	for ri := range e.plan.Rules {
		r := &e.plan.Rules[ri]
		if !r.matches(e.plan.Seed, k.src, dst, k.tag, i) {
			continue
		}
		switch r.Kind {
		case Delay:
			release = now + r.Delay
			e.plan.record(ri, k.src, dst)
		case Drop:
			comm.PutBuf(buf)
			e.plan.record(ri, k.src, dst)
			return
		case Dup:
			cp := append(comm.GetBuf(len(buf)), buf...)
			e.pend[k] = append(e.pend[k], held{buf, release}, held{cp, release})
			e.plan.record(ri, k.src, dst)
			return
		case Corrupt:
			if len(buf) > 0 {
				buf[len(buf)/2] ^= 0xA5
			}
			e.plan.record(ri, k.src, dst)
		case Stall:
			release = stalledForever
			e.plan.record(ri, k.src, dst)
		case Partition:
			if now >= r.From && now < r.Until {
				release = r.Until
				e.plan.record(ri, k.src, dst)
			} else {
				continue // outside the outage window: keep matching
			}
		}
		break // first matching rule wins
	}
	e.pend[k] = append(e.pend[k], held{buf, release})
}

// pull drains every message the inner transport has ready into the
// stream's hold list.
func (e *Endpoint) pull(k streamKey) {
	for e.inner.Iprobe(k.src, k.tag) {
		e.admit(k, e.inner.Recv(k.src, k.tag))
	}
}

// pop removes and returns the stream's head message.
func (e *Endpoint) pop(k streamKey) []byte {
	q := e.pend[k]
	buf := q[0].buf
	copy(q, q[1:])
	q[len(q)-1] = held{}
	e.pend[k] = q[:len(q)-1]
	return buf
}

// deliverable reports whether the stream head exists and is released.
func (e *Endpoint) deliverable(k streamKey) bool {
	q := e.pend[k]
	return len(q) > 0 && q[0].release != stalledForever && q[0].release <= e.inner.Now()
}

// Recv implements comm.Endpoint: blocks until the stream's head message
// is released, preserving FIFO order across held messages.
func (e *Endpoint) Recv(src int, tag comm.Tag) []byte {
	k := streamKey{src, tag}
	for {
		e.pull(k)
		if e.deliverable(k) {
			return e.pop(k)
		}
		if q := e.pend[k]; len(q) > 0 {
			// Held head: wait out its release (or forever, in hour-long
			// slices, for a stalled stream — only meaningful on
			// real-clock transports).
			wait := time.Hour
			if q[0].release != stalledForever {
				wait = q[0].release - e.inner.Now()
			}
			if wait > 0 {
				e.inner.WaitRecv(src, tag, wait)
			}
			continue
		}
		// Nothing pending: block on the inner transport for an arrival.
		e.admit(k, e.inner.Recv(src, tag))
	}
}

// Iprobe implements comm.Endpoint.
func (e *Endpoint) Iprobe(src int, tag comm.Tag) bool {
	k := streamKey{src, tag}
	e.pull(k)
	return e.deliverable(k)
}

// WaitRecv implements comm.Waiter: wait up to d for a released message,
// accounting for held heads that release inside the window.
func (e *Endpoint) WaitRecv(src int, tag comm.Tag, d time.Duration) bool {
	k := streamKey{src, tag}
	deadline := e.inner.Now() + d
	for {
		e.pull(k)
		if e.deliverable(k) {
			return true
		}
		now := e.inner.Now()
		wait := deadline - now
		if q := e.pend[k]; len(q) > 0 && q[0].release != stalledForever && q[0].release-now < wait {
			wait = q[0].release - now
		}
		if wait <= 0 {
			return false
		}
		e.inner.WaitRecv(src, tag, wait)
	}
}
