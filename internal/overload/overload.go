// Package overload implements the serving layer's admission-control
// queue (PR 10): a bounded, deadline-aware priority queue that orders
// waiting requests by earliest feasible deadline with priority aging,
// and sheds a queued request the moment its TTFT deadline is provably
// unmeetable — before any prefill compute has been spent on it.
//
// # Ordering
//
// Each item is ranked by a scalar key derived from three signals:
//
//	key(it) = eff(it) − priorityBias·Priority + agingRate·Arrived
//
// where eff(it) is the item's effective deadline — its TTFT deadline
// when set, else its completion deadline, else Arrived+horizon (so
// deadline-less items order FIFO among themselves at a fixed virtual
// urgency). Smaller keys pop first; ties break on the item ID, which
// makes the order total.
//
// The aging term is what prevents starvation: it is the static form of
// the usual "urgency grows while waiting" rule. Comparing two items at
// any instant t, the dynamic key eff − priorityBias·Priority −
// agingRate·(t − Arrived) differs from the static key only by the
// common offset agingRate·t, so the ordering is time-invariant and can
// be computed once at push. Because a newcomer arriving at time T has
// eff ≥ T (an already-expired deadline is shed, not queued), its key
// grows without bound as (1+agingRate)·T while any resident item's key
// is fixed — only finitely many later arrivals can overtake a waiting
// item, no matter their priority.
//
// # Shedding
//
// Shed removes every queued item whose TTFT deadline cannot be met even
// under an optimistic lower bound on its waiting time: the caller
// supplies minWait (typically the cost model's marginal prefill cost
// for the item; zero until the fit converges), and an item is shed when
// now + minWait(item) exceeds its TTFT deadline. With no cost estimate
// at all the predicate degenerates to "deadline already passed", which
// is still provably unmeetable — shedding never guesses.
//
// The queue is single-threaded by design: it lives inside the serving
// scheduler, which is strictly head-side and single-threaded.
package overload

import "time"

// Item is one queued request's scheduling descriptor. All times are
// absolute readings of the caller's clock (wall or virtual).
type Item struct {
	// ID identifies the request (the serving layer's request index) and
	// breaks ordering ties, making the queue order total.
	ID int
	// Priority biases ordering: higher-priority items rank as if their
	// deadline were priorityBias earlier per priority unit.
	Priority int
	// Arrived is when the request was submitted.
	Arrived time.Duration
	// TTFTDeadline is the absolute latest time the request's first token
	// may appear (0 = none). It drives both ordering and shedding.
	TTFTDeadline time.Duration
	// Deadline is the absolute completion deadline (0 = none); used for
	// ordering when no TTFT deadline is set.
	Deadline time.Duration
	// Cost is the request's predicted service demand in token rows
	// (its prompt length): the shed predicate's optimistic wait and the
	// admission layer's sustainable-rate estimate both scale with it.
	Cost int
}

// The ordering key's constants (see the package doc).
const (
	// horizon is the virtual urgency assigned to deadline-less items:
	// they order as if due horizon after arrival.
	horizon = 30 * time.Second
	// priorityBias is the deadline credit per priority unit.
	priorityBias = time.Second
	// agingRate weighs arrival age into the ordering key, in (0, 1];
	// larger values converge toward FIFO faster.
	agingRate = 0.5
)

type entry struct {
	it  Item
	key float64
}

// Queue is the bounded deadline-aware admission queue: a binary heap
// over the static ordering key. Not safe for concurrent use.
type Queue struct {
	bound   int
	items   []entry
	costSum int
	shedBuf []Item
}

// New builds an empty queue holding at most bound items (0: unbounded).
func New(bound int) *Queue {
	return &Queue{bound: bound}
}

// Len reports the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Bound reports the configured capacity (0 = unbounded).
func (q *Queue) Bound() int { return q.bound }

// Full reports whether the queue is at its bound.
func (q *Queue) Full() bool { return q.bound > 0 && len(q.items) >= q.bound }

// CostSum is the total predicted service demand (token rows) waiting in
// the queue — the backlog the sustainable-rate admission check prices.
func (q *Queue) CostSum() int { return q.costSum }

// keyOf computes the item's static ordering key (see the package doc).
func keyOf(it Item) float64 {
	eff := it.TTFTDeadline
	if eff == 0 {
		eff = it.Deadline
	}
	if eff == 0 {
		eff = it.Arrived + horizon
	}
	return float64(eff) - float64(priorityBias)*float64(it.Priority) + agingRate*float64(it.Arrived)
}

// less is the heap order: smaller key first, item ID breaking ties.
func (q *Queue) less(a, b entry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.it.ID < b.it.ID
}

// Push enqueues it; false means the queue is at its bound and the
// caller must reject the request as overloaded.
func (q *Queue) Push(it Item) bool {
	if q.Full() {
		return false
	}
	q.items = append(q.items, entry{it: it, key: keyOf(it)})
	q.costSum += it.Cost
	q.up(len(q.items) - 1)
	return true
}

// Pop removes and returns the most urgent item.
func (q *Queue) Pop() (Item, bool) {
	if len(q.items) == 0 {
		return Item{}, false
	}
	it := q.items[0].it
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	q.costSum -= it.Cost
	return it, true
}

// MinTTFTSlack reports the smallest remaining TTFT budget among queued
// deadline-carrying items; ok is false when none carries one.
func (q *Queue) MinTTFTSlack(now time.Duration) (time.Duration, bool) {
	min, ok := time.Duration(0), false
	for i := range q.items {
		dl := q.items[i].it.TTFTDeadline
		if dl == 0 {
			continue
		}
		if slack := dl - now; !ok || slack < min {
			min, ok = slack, true
		}
	}
	return min, ok
}

// Shed removes and returns every queued item whose TTFT deadline is
// provably unmeetable: now plus the caller's optimistic lower bound on
// the item's wait (nil = zero) already exceeds it. The returned slice
// is reused by the next Shed call.
func (q *Queue) Shed(now time.Duration, minWait func(Item) time.Duration) []Item {
	q.shedBuf = q.shedBuf[:0]
	if len(q.items) == 0 {
		return q.shedBuf
	}
	keep := q.items[:0]
	for _, e := range q.items {
		dl := e.it.TTFTDeadline
		if dl > 0 {
			w := time.Duration(0)
			if minWait != nil {
				w = minWait(e.it)
			}
			if now+w > dl {
				q.shedBuf = append(q.shedBuf, e.it)
				q.costSum -= e.it.Cost
				continue
			}
		}
		keep = append(keep, e)
	}
	q.items = keep
	if len(q.shedBuf) > 0 {
		// Filtering broke the heap shape; rebuild bottom-up.
		for i := len(q.items)/2 - 1; i >= 0; i-- {
			q.down(i)
		}
	}
	return q.shedBuf
}

func (q *Queue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(q.items[i], q.items[p]) {
			break
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

func (q *Queue) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && q.less(q.items[l], q.items[m]) {
			m = l
		}
		if r < n && q.less(q.items[r], q.items[m]) {
			m = r
		}
		if m == i {
			return
		}
		q.items[i], q.items[m] = q.items[m], q.items[i]
		i = m
	}
}
