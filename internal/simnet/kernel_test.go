package simnet

import (
	"testing"
	"time"
)

func TestAdvanceOrdersEvents(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("slow", func(p *Proc) {
		p.Advance(10 * time.Millisecond)
		order = append(order, "slow")
	})
	k.Spawn("fast", func(p *Proc) {
		p.Advance(1 * time.Millisecond)
		order = append(order, "fast")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "fast" || order[1] != "slow" {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 10*time.Millisecond {
		t.Fatalf("final time %v", k.Now())
	}
}

func TestEqualTimestampsUseScheduleOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Advance(time.Millisecond)
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order = %v", order)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []Time {
		k := NewKernel()
		var stamps []Time
		for i := 0; i < 4; i++ {
			d := time.Duration(i+1) * 3 * time.Millisecond
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Advance(d)
					stamps = append(stamps, p.Now())
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("run lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBlockAndReady(t *testing.T) {
	k := NewKernel()
	var got Time
	consumer := k.Spawn("consumer", func(p *Proc) {
		p.Block()
		got = p.Now()
	})
	k.Spawn("producer", func(p *Proc) {
		p.Advance(7 * time.Millisecond)
		consumer.Ready()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7*time.Millisecond {
		t.Fatalf("consumer resumed at %v, want 7ms", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	k.Spawn("stuck-a", func(p *Proc) { p.Block() })
	k.Spawn("fine", func(p *Proc) { p.Advance(time.Millisecond) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck-a" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestScheduleClosure(t *testing.T) {
	k := NewKernel()
	fired := Time(-1)
	k.Spawn("p", func(p *Proc) {
		k.Schedule(p.Now()+5*time.Millisecond, func() { fired = k.Now() })
		p.Advance(20 * time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 5*time.Millisecond {
		t.Fatalf("closure fired at %v", fired)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	k := NewKernel()
	panicked := false
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Advance(-1)
	})
	_ = k.Run()
	if !panicked {
		t.Fatal("expected panic on negative Advance")
	}
}

func TestLinkSerialization(t *testing.T) {
	l := NewLink(1000, 2*time.Millisecond) // 1000 B/s, 2ms latency

	// First message: 100 bytes = 100ms xmit.
	a1 := l.Transmit(0, 100)
	if a1 != 102*time.Millisecond {
		t.Fatalf("first arrival %v", a1)
	}
	// Second message queued behind the first.
	a2 := l.Transmit(0, 100)
	if a2 != 202*time.Millisecond {
		t.Fatalf("second arrival %v (should queue)", a2)
	}
	// A message after the link went idle starts fresh.
	a3 := l.Transmit(500*time.Millisecond, 100)
	if a3 != 602*time.Millisecond {
		t.Fatalf("third arrival %v", a3)
	}
}

func TestLinkZeroBytes(t *testing.T) {
	l := NewLink(1e9, time.Millisecond)
	if got := l.Transmit(0, 0); got != time.Millisecond {
		t.Fatalf("zero-byte message arrival %v", got)
	}
}

func TestManyProcessesStress(t *testing.T) {
	k := NewKernel()
	total := 0
	for i := 0; i < 64; i++ {
		k.Spawn("worker", func(p *Proc) {
			for j := 0; j < 100; j++ {
				p.Advance(time.Microsecond)
			}
			total++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 64 {
		t.Fatalf("only %d workers finished", total)
	}
}

// TestDeterminismUnderRandomMessaging runs a randomized producer/consumer
// mesh twice and requires identical final virtual times — the property the
// figure regeneration depends on.
func TestDeterminismUnderRandomMessaging(t *testing.T) {
	run := func() Time {
		k := NewKernel()
		boxes := make([][]int, 4)
		waiting := make([]*Proc, 4)
		procs := make([]*Proc, 4)
		for i := 0; i < 4; i++ {
			i := i
			procs[i] = k.Spawn("node", func(p *Proc) {
				state := uint64(i + 1)
				for step := 0; step < 50; step++ {
					state = state*6364136223846793005 + 1442695040888963407
					switch state % 3 {
					case 0: // compute
						p.Advance(time.Duration(state%1000) * time.Microsecond)
					case 1: // send to a neighbour
						dst := (i + int(state/3)%3 + 1) % 4
						at := p.Now() + time.Duration(state%500)*time.Microsecond
						k.Schedule(at, func() {
							boxes[dst] = append(boxes[dst], i)
							if w := waiting[dst]; w != nil {
								waiting[dst] = nil
								w.Ready()
							}
						})
					case 2: // receive if anything is queued
						if len(boxes[i]) == 0 {
							continue // avoid blocking forever at the end
						}
						boxes[i] = boxes[i][1:]
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic simulation: %v vs %v", a, b)
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	k := NewKernel()
	var fired Time
	k.Spawn("p", func(p *Proc) {
		p.Advance(10 * time.Millisecond)
		k.Schedule(time.Millisecond, func() { fired = k.Now() }) // in the past
		p.Advance(10 * time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want clamped to 10ms", fired)
	}
}
