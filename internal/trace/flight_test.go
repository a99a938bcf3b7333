package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestRingRecordSnapshot covers fill, wrap-around ordering, and the
// nil-receiver no-ops the hot path relies on.
func TestRingRecordSnapshot(t *testing.T) {
	var nilRing *Ring
	nilRing.Record(0, FlightLaunch, 1, 0) // must not panic
	if nilRing.Len() != 0 || nilRing.Snapshot() != nil {
		t.Fatal("nil ring must be empty")
	}

	r := NewRing(10) // rounds up to 16
	if len(r.at) != 16 {
		t.Fatalf("capacity %d, want 16", len(r.at))
	}
	for i := 0; i < 5; i++ {
		r.Record(time.Duration(i)*time.Millisecond, FlightLaunch, uint32(i), int32(-i))
	}
	evs := r.Snapshot()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Run != uint32(i) || e.Arg != int32(-i) || e.Kind != FlightLaunch ||
			e.At != time.Duration(i)*time.Millisecond {
			t.Fatalf("event %d decoded as %+v", i, e)
		}
	}

	// Overflow: only the newest Cap() events survive, oldest-first.
	for i := 5; i < 40; i++ {
		r.Record(time.Duration(i)*time.Millisecond, FlightResult, uint32(i), 0)
	}
	evs = r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("after wrap got %d events, want 16", len(evs))
	}
	if evs[0].Run != 24 || evs[15].Run != 39 {
		t.Fatalf("wrap kept runs %d..%d, want 24..39", evs[0].Run, evs[15].Run)
	}
}

// TestFlightDumpRoundTrip checks binary serialisation and the Chrome
// trace conversion used by pipeinfer-trace.
func TestFlightDumpRoundTrip(t *testing.T) {
	d := &FlightDump{
		Reason: "watchdog: run 7 timed out",
		Nodes: []FlightNode{
			{Name: "head", Events: []FlightEvent{
				{At: time.Millisecond, Run: 7, Arg: 2, Kind: FlightLaunch},
				{At: 3 * time.Millisecond, Run: 7, Kind: FlightFail},
			}},
			{Name: "stage0", Events: []FlightEvent{
				{At: time.Millisecond, Run: 7, Kind: FlightEvalBeg},
				{At: 2 * time.Millisecond, Run: 7, Kind: FlightEvalEnd},
			}},
		},
	}
	var buf bytes.Buffer
	if err := WriteFlightDump(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != d.Reason || len(got.Nodes) != 2 ||
		got.Nodes[0].Name != "head" || len(got.Nodes[0].Events) != 2 ||
		got.Nodes[1].Events[1].Kind != FlightEvalEnd {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Nodes[0].Events[0] != d.Nodes[0].Events[0] {
		t.Fatalf("event mismatch: %+v vs %+v", got.Nodes[0].Events[0], d.Nodes[0].Events[0])
	}

	js, err := got.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(js) {
		t.Fatal("ChromeTrace produced invalid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("chrome trace has %d events, want 4", len(doc.TraceEvents))
	}
	var b, e int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "B":
			b++
		case "E":
			e++
		}
	}
	if b != 1 || e != 1 {
		t.Fatalf("want one B/E pair, got %d/%d", b, e)
	}
}

// TestRecorderCap locks in the drop-oldest bound of a timeline: a set's
// ring keeps its newest events up to its capacity, and that is what a
// dump renders.
func TestRecorderCap(t *testing.T) {
	s := NewSet()
	r := s.Ring("head", 8) // rounds up to 16
	for i := 0; i < 40; i++ {
		r.Record(time.Duration(i), FlightLaunch, uint32(i), 0)
	}
	if r.Len() != 16 {
		t.Fatalf("Len() = %d, want cap 16", r.Len())
	}
	evs := s.Dump("").Timeline()
	if len(evs) != 16 || evs[0].Run != 24 || evs[15].Run != 39 {
		t.Fatalf("cap kept %d events, runs %d..%d, want 24..39", len(evs), evs[0].Run, evs[len(evs)-1].Run)
	}
}

// TestStageMeter covers busy accumulation and live fractions.
func TestStageMeter(t *testing.T) {
	var nilM *StageMeter
	nilM.Begin(0)
	nilM.End(0) // must not panic
	if nilM.BusyFraction(time.Second) != 0 || nilM.BubbleFraction(time.Second) != 0 {
		t.Fatal("nil meter must report zeros")
	}

	var m StageMeter
	m.Open(0)
	m.Begin(10 * time.Millisecond)
	m.End(30 * time.Millisecond)
	m.Begin(50 * time.Millisecond)
	m.End(90 * time.Millisecond)
	if m.Busy() != 60*time.Millisecond || m.Evals() != 2 {
		t.Fatalf("Busy=%v Evals=%d, want 60ms/2", m.Busy(), m.Evals())
	}
	if f := m.BusyFraction(100 * time.Millisecond); f < 0.59 || f > 0.61 {
		t.Fatalf("BusyFraction = %v, want 0.6", f)
	}
	if f := m.BubbleFraction(100 * time.Millisecond); f < 0.39 || f > 0.41 {
		t.Fatalf("BubbleFraction = %v, want 0.4", f)
	}
	// An in-progress eval counts as busy.
	m.Begin(100 * time.Millisecond)
	if f := m.BusyFraction(200 * time.Millisecond); f < 0.79 || f > 0.81 {
		t.Fatalf("live BusyFraction = %v, want 0.8", f)
	}
}
