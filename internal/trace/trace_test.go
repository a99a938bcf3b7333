package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// kindName stands in for the engine's RunKind names.
func kindName(k uint8) string { return [...]string{"prefill", "nonspec", "spec"}[k] }

func TestRecordAndRender(t *testing.T) {
	s := NewSet()
	head, rank1 := s.Ring("head", 0), s.Ring("rank1", 0)
	rank1.Record(2*time.Millisecond, FlightEvalBeg, 7, RunArg(2, 2))
	head.Record(1*time.Millisecond, FlightLaunch, 7, RunArg(2, 2))
	rank1.Record(5*time.Millisecond, FlightEvalEnd, 7, 2)
	rank1.Record(6*time.Millisecond, FlightEvalBeg, 8, RunArg(1, 1))
	rank1.Record(7*time.Millisecond, FlightEvalEnd, 8, 0)

	d := s.Dump("")
	evs := d.Timeline()
	if len(evs) != 5 || d.Len() != 5 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Kind != FlightLaunch || evs[0].Node != "head" {
		t.Fatal("events not time-sorted")
	}
	if evs[0].RunKind() != 2 || evs[0].Rows() != 2 {
		t.Fatalf("launch arg unpacked as kind %d rows %d", evs[0].RunKind(), evs[0].Rows())
	}
	out := d.Render(kindName)
	for _, want := range []string{"head", "rank1", "launch", "eval+", "done",
		"spec batch=2", "nonspec batch=1", "cancelled mid-evaluation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var s *Set
	r := s.Ring("x", 0)
	if r != nil {
		t.Fatal("nil set handed out a ring")
	}
	r.Record(0, FlightLaunch, 1, 0) // must not panic
	s.Attach("x", NewRing(0))
	if d := s.Dump("why"); d.Len() != 0 || d.Reason != "why" {
		t.Fatalf("nil set dumped %+v", d)
	}
}

func TestEvalSpans(t *testing.T) {
	s := NewSet()
	rank1, rank2 := s.Ring("rank1", 0), s.Ring("rank2", 0)
	rank1.Record(1*time.Millisecond, FlightEvalBeg, 1, 0)
	rank1.Record(3*time.Millisecond, FlightEvalEnd, 1, 1)
	rank1.Record(3*time.Millisecond, FlightEvalBeg, 2, 0)
	rank1.Record(6*time.Millisecond, FlightEvalEnd, 2, 1)
	rank2.Record(2*time.Millisecond, FlightEvalBeg, 1, 0)
	rank2.Record(4*time.Millisecond, FlightEvalEnd, 1, 1)

	d := s.Dump("")
	spans := d.EvalSpans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d", len(spans))
	}
	u := d.Utilisation(10 * time.Millisecond)
	if got := u["rank1"]; got != 0.5 {
		t.Fatalf("rank1 utilisation %v, want 0.5", got)
	}
	if got := u["rank2"]; got != 0.2 {
		t.Fatalf("rank2 utilisation %v, want 0.2", got)
	}
}

func TestUnpairedSpanIgnored(t *testing.T) {
	s := NewSet()
	s.Ring("rank1", 0).Record(1*time.Millisecond, FlightEvalBeg, 1, 0)
	if len(s.Dump("").EvalSpans()) != 0 {
		t.Fatal("unpaired begin produced a span")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRing(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(time.Duration(i), FlightAccept, uint32(g), 0)
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 800 || len(r.Snapshot()) != 800 {
		t.Fatalf("lost events: %d held, %d decoded", r.Len(), len(r.Snapshot()))
	}
}

// TestSnapshotBoundedByKindTable pins the torn-slot filter to the kind
// table rather than to whichever kind was declared last: every named
// kind survives a snapshot, and only bytes past the table are dropped.
func TestSnapshotBoundedByKindTable(t *testing.T) {
	r := NewRing(64)
	for k := 1; k < len(flightKindNames); k++ {
		r.Record(time.Duration(k), FlightKind(k), uint32(k), 0)
	}
	r.Record(99, FlightKind(len(flightKindNames)), 0, 0)
	evs := r.Snapshot()
	if len(evs) != len(flightKindNames)-1 {
		t.Fatalf("snapshot kept %d events, want one per named kind (%d)", len(evs), len(flightKindNames)-1)
	}
	for i, e := range evs {
		if e.Kind != FlightKind(i+1) || strings.HasPrefix(e.Kind.String(), "kind(") {
			t.Fatalf("event %d decoded as kind %v", i, e.Kind)
		}
	}
}
