package overload

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The ordering key's constants as the reference states them, apart from
// the package's own.
const (
	refHorizon = 30 * time.Second
	refBias    = time.Second
	refAging   = 0.5
)

// refKey recomputes the ordering key independently of keyOf so the
// property and fuzz tests are a genuine cross-check of the heap
// implementation, not a tautology.
func refKey(it Item) float64 {
	eff := it.TTFTDeadline
	if eff == 0 {
		eff = it.Deadline
	}
	if eff == 0 {
		eff = it.Arrived + refHorizon
	}
	return float64(eff) - float64(refBias)*float64(it.Priority) + refAging*float64(it.Arrived)
}

func refLess(a, b Item) bool {
	ka, kb := refKey(a), refKey(b)
	if ka != kb {
		return ka < kb
	}
	return a.ID < b.ID
}

func randItem(r *rand.Rand, id int) Item {
	it := Item{
		ID:       id,
		Priority: r.Intn(5) - 2,
		Arrived:  time.Duration(r.Intn(1000)) * time.Millisecond,
		Cost:     r.Intn(256),
	}
	if r.Intn(2) == 0 {
		it.TTFTDeadline = it.Arrived + time.Duration(1+r.Intn(2000))*time.Millisecond
	}
	if r.Intn(2) == 0 {
		it.Deadline = it.Arrived + time.Duration(1+r.Intn(8000))*time.Millisecond
	}
	return it
}

// TestKeyTotalOrder: the comparator is a strict total order — exactly
// one of less(a,b) / less(b,a) holds for distinct items (IDs are
// unique), never both, and the relation is transitive.
func TestKeyTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	items := make([]Item, 64)
	for i := range items {
		items[i] = randItem(r, i)
	}
	for _, a := range items {
		if refLess(a, a) {
			t.Fatalf("less(a,a) for %+v", a)
		}
		for _, b := range items {
			if a.ID == b.ID {
				continue
			}
			ab, ba := refLess(a, b), refLess(b, a)
			if ab == ba {
				t.Fatalf("not a strict total order: less(a,b)=%v less(b,a)=%v for %+v %+v", ab, ba, a, b)
			}
		}
	}
	for trial := 0; trial < 1000; trial++ {
		a, b, c := items[r.Intn(64)], items[r.Intn(64)], items[r.Intn(64)]
		if refLess(a, b) && refLess(b, c) && !refLess(a, c) {
			t.Fatalf("transitivity broken for %+v %+v %+v", a, b, c)
		}
	}
}

// TestAgingMonotone: with all else equal, the earlier arrival pops
// first, and waiting never hurts — an item's rank relative to a fixed
// newcomer only improves as the gap between their arrivals grows.
func TestAgingMonotone(t *testing.T) {
	q := New(0)
	old := Item{ID: 1, Arrived: 0}
	young := Item{ID: 0, Arrived: 500 * time.Millisecond}
	q.Push(young)
	q.Push(old)
	if it, _ := q.Pop(); it.ID != old.ID {
		t.Fatalf("earlier arrival should pop first, got ID %d", it.ID)
	}
	// Monotone in age: keys strictly increase with Arrived.
	prev := refKey(Item{ID: 2, Arrived: 0})
	for ms := 1; ms <= 1000; ms *= 2 {
		k := refKey(Item{ID: 2, Arrived: time.Duration(ms) * time.Millisecond})
		if k <= prev {
			t.Fatalf("aging not monotone at %dms: key %v <= %v", ms, k, prev)
		}
		prev = k
	}
}

// TestNoStarvation: a low-priority, deadline-less item survives an
// adversarial stream of high-priority tight-deadline arrivals. One item
// is popped per tick while the adversary pushes one per tick; the
// resident item must pop within the bound implied by the aging rate:
// once (1+aging)·T − bias·maxPrio exceeds the horizon, no newcomer can
// outrank it. The tick is scaled to the horizon: a thousand ticks or so.
func TestNoStarvation(t *testing.T) {
	q := New(0)
	const victim = 0
	q.Push(Item{ID: victim, Priority: -2, Arrived: 0})
	tick := refHorizon / 1000
	// Bound: newcomer key exceeds the victim's (horizon + bias·(prio
	// gap)) once (1+aging)·T > horizon + bias·(maxPrio − victimPrio).
	limit := int(float64(refHorizon+6*refBias)/((1+refAging)*float64(tick))) + 2
	for i := 1; ; i++ {
		if i > 10*limit {
			t.Fatalf("victim not popped after %d ticks (limit %d)", i, 10*limit)
		}
		now := time.Duration(i) * tick
		q.Push(Item{ID: i, Priority: 4, Arrived: now, TTFTDeadline: now + tick})
		it, ok := q.Pop()
		if !ok {
			t.Fatal("queue unexpectedly empty")
		}
		if it.ID == victim {
			if i > limit {
				t.Fatalf("victim popped at tick %d, beyond the aging bound %d", i, limit)
			}
			return
		}
	}
}

// TestShedProvablyUnmeetable: with no cost model at all, only items
// whose TTFT deadline has already passed are shed; with an optimistic
// wait estimate, items whose deadline is inside that wait go too.
// Deadline-less items are never shed.
func TestShedProvablyUnmeetable(t *testing.T) {
	q := New(0)
	q.Push(Item{ID: 0})                                                  // no deadline: never shed
	q.Push(Item{ID: 1, TTFTDeadline: 100 * time.Millisecond})            // expired at now=200ms
	q.Push(Item{ID: 2, TTFTDeadline: 300 * time.Millisecond, Cost: 100}) // alive without estimate
	shed := q.Shed(200*time.Millisecond, nil)
	if len(shed) != 1 || shed[0].ID != 1 {
		t.Fatalf("fallback shed = %v, want just ID 1", shed)
	}
	// Optimistic wait of 2ms/cost-row: item 2 needs 200ms, deadline in
	// 100ms — provably unmeetable now.
	shed = q.Shed(200*time.Millisecond, func(it Item) time.Duration {
		return time.Duration(it.Cost) * 2 * time.Millisecond
	})
	if len(shed) != 1 || shed[0].ID != 2 {
		t.Fatalf("estimated shed = %v, want just ID 2", shed)
	}
	if q.Len() != 1 {
		t.Fatalf("queue len = %d, want 1 survivor", q.Len())
	}
	if it, _ := q.Pop(); it.ID != 0 {
		t.Fatalf("survivor = %d, want the deadline-less item", it.ID)
	}
}

// TestBoundAndCost: Push respects the bound and CostSum tracks queued
// demand through push/pop/shed.
func TestBoundAndCost(t *testing.T) {
	q := New(2)
	if !q.Push(Item{ID: 0, Cost: 10}) || !q.Push(Item{ID: 1, Cost: 20}) {
		t.Fatal("pushes under bound must succeed")
	}
	if q.Push(Item{ID: 2, Cost: 30}) {
		t.Fatal("push at bound must fail")
	}
	if !q.Full() || q.CostSum() != 30 {
		t.Fatalf("Full=%v CostSum=%d, want true/30", q.Full(), q.CostSum())
	}
	q.Pop()
	if q.Full() || q.CostSum() == 30 {
		t.Fatalf("pop must free a slot and drop cost, got Full=%v CostSum=%d", q.Full(), q.CostSum())
	}
}

// FuzzQueueOrder: random push/pop/shed interleavings through the heap
// must match a brute-force reference (linear min-scan over the same
// independently computed key).
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 10, 1, 2, 3, 1, 0, 20, 0, 0, 0, 2, 50, 1, 1})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0, 5, 4, 3, 2, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 255, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Generated times are in units of a tenth of the priority bias,
		// so ages, deadlines and the horizon all compete with it.
		const bound, unit = 8, refBias / 10
		q := New(bound)
		var ref []Item
		minWait := func(it Item) time.Duration {
			return time.Duration(it.Cost) * unit / 10
		}
		nextID := 0
		for i := 0; i+1 <= len(data); {
			op := data[i] % 3
			i++
			switch op {
			case 0: // push
				if i+5 > len(data) {
					return
				}
				it := Item{
					ID:       nextID,
					Priority: int(data[i]%5) - 2,
					Arrived:  time.Duration(data[i+1]) * unit,
					Cost:     int(data[i+4]),
				}
				if data[i+2]%2 == 0 {
					it.TTFTDeadline = it.Arrived + time.Duration(1+int(data[i+2]))*unit
				}
				if data[i+3]%2 == 0 {
					it.Deadline = it.Arrived + time.Duration(1+int(data[i+3]))*2*unit
				}
				i += 5
				nextID++
				got := q.Push(it)
				want := len(ref) < bound
				if got != want {
					t.Fatalf("Push accept=%v, reference=%v at %d items", got, want, len(ref))
				}
				if want {
					ref = append(ref, it)
				}
			case 1: // pop
				it, ok := q.Pop()
				if ok != (len(ref) > 0) {
					t.Fatalf("Pop ok=%v with reference len %d", ok, len(ref))
				}
				if !ok {
					continue
				}
				best := 0
				for j := 1; j < len(ref); j++ {
					if refLess(ref[j], ref[best]) {
						best = j
					}
				}
				if it.ID != ref[best].ID {
					t.Fatalf("Pop = ID %d, reference min = ID %d", it.ID, ref[best].ID)
				}
				ref = append(ref[:best], ref[best+1:]...)
			case 2: // shed
				if i >= len(data) {
					return
				}
				now := time.Duration(data[i]) * unit
				i++
				shed := q.Shed(now, minWait)
				var want []Item
				keep := ref[:0]
				for _, it := range ref {
					if it.TTFTDeadline > 0 && now+minWait(it) > it.TTFTDeadline {
						want = append(want, it)
					} else {
						keep = append(keep, it)
					}
				}
				ref = keep
				gotIDs := make([]int, len(shed))
				for j, it := range shed {
					gotIDs[j] = it.ID
				}
				wantIDs := make([]int, len(want))
				for j, it := range want {
					wantIDs[j] = it.ID
				}
				sort.Ints(gotIDs)
				sort.Ints(wantIDs)
				if len(gotIDs) != len(wantIDs) {
					t.Fatalf("Shed %v, reference %v", gotIDs, wantIDs)
				}
				for j := range gotIDs {
					if gotIDs[j] != wantIDs[j] {
						t.Fatalf("Shed %v, reference %v", gotIDs, wantIDs)
					}
				}
			}
			if q.Len() != len(ref) {
				t.Fatalf("Len = %d, reference %d", q.Len(), len(ref))
			}
			wantCost := 0
			for _, it := range ref {
				wantCost += it.Cost
			}
			if q.CostSum() != wantCost {
				t.Fatalf("CostSum = %d, reference %d", q.CostSum(), wantCost)
			}
		}
		// Drain: the full pop order must match repeated reference min-scans.
		for len(ref) > 0 {
			it, ok := q.Pop()
			if !ok {
				t.Fatalf("queue empty with %d reference items left", len(ref))
			}
			best := 0
			for j := 1; j < len(ref); j++ {
				if refLess(ref[j], ref[best]) {
					best = j
				}
			}
			if it.ID != ref[best].ID {
				t.Fatalf("drain Pop = ID %d, reference min = ID %d", it.ID, ref[best].ID)
			}
			ref = append(ref[:best], ref[best+1:]...)
		}
	})
}
