// Package trace is the pipeline's one timeline: which node did what to
// which run, when. Every recording goroutine — the head's scheduler
// loop, each stage worker, the head's inline stage — writes packed
// binary events into its own Ring (lock-free, fixed size, drop-oldest,
// zero allocations), a Set names the rings of one pipeline, and a
// FlightDump is a point-in-time capture of a Set. Everything read off
// the timeline is a method over a dump: the Fig 3-style text (Render),
// per-stage busy intervals and utilisation (EvalSpans, Utilisation),
// the binary file a watchdog failure leaves behind (WriteFlightDump)
// and its Chrome trace-event export (ChromeTrace). The simulator's
// figures, the serving flight recorder and pipeinfer-trace all read
// the same events; StageMeter is the live, constant-space counterpart
// of Utilisation behind the /metrics bubble-fraction gauges.
package trace

import "sync"

// Set is the named rings of one pipeline, in registration order. A nil
// *Set hands out nil rings, which ignore records, so callers attach a
// timeline unconditionally.
type Set struct {
	mu    sync.Mutex
	names []string
	rings []*Ring
}

// NewSet creates an empty ring set.
func NewSet() *Set { return &Set{} }

// Ring creates the ring one recording goroutine writes to and registers
// it under name (size <= 0 picks DefaultRingSize).
func (s *Set) Ring(name string, size int) *Ring {
	if s == nil {
		return nil
	}
	r := NewRing(size)
	s.Attach(name, r)
	return r
}

// Attach registers a ring created elsewhere.
func (s *Set) Attach(name string, r *Ring) {
	if s == nil || r == nil {
		return
	}
	s.mu.Lock()
	s.names = append(s.names, name)
	s.rings = append(s.rings, r)
	s.mu.Unlock()
}

// Each visits the rings in registration order.
func (s *Set) Each(f func(name string, r *Ring)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	names, rings := s.names, s.rings // append-only: the prefix we hold never changes
	s.mu.Unlock()
	for i, r := range rings {
		f(names[i], r)
	}
}

// Dump snapshots every ring. Safe while writers are active.
func (s *Set) Dump(reason string) *FlightDump {
	d := &FlightDump{Reason: reason}
	s.Each(func(name string, r *Ring) {
		d.Nodes = append(d.Nodes, FlightNode{Name: name, Events: r.Snapshot()})
	})
	return d
}
