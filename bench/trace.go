package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
)

// span is one interval on one lane (a rank, or a request). parent is the
// index, in the same lane, of the span that caused it (-1 for a root):
// a rank's send spans are children of the busy span they happen in.
type span struct {
	name       string
	start, end time.Duration // on the harness clock, since the rep's t0
	parent     int
	tag        string // message stream, for send/recv_wait spans
	bytes      int
	run        int64 // pipeline run id on run frames, else -1
}

func (s span) dur() time.Duration { return s.end - s.start }

// selfTimes returns, for every span, its duration minus the part of it
// its child spans cover. Children of one parent must not overlap each
// other (true for spans emitted by one goroutine).
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			self[s.parent] -= hi - lo
		}
	}
	return self
}

// rankTrace observes one rank from outside, through the endpoint it is
// handed. A rank drives its endpoint from one goroutine, so the fields
// need no lock; the harness reads them after the rank has returned.
//
// The rank's timeline alternates recv_wait spans (inside Recv/WaitRecv:
// the stage has nothing to do — the bubble) and busy spans (everything
// between two waits: compute, codec, bookkeeping), with one send child
// span per Send inside the busy span.
type rankTrace struct {
	t0      time.Time
	blocked time.Duration // total inside Recv/WaitRecv
	sending time.Duration // total inside Send
	sends   int
	bytes   int

	spans []span // of the current rep; the backing array is reused
	busy  int    // index of the open busy span, -1 when none
}

// begin resets the trace for a rep whose clock started at t0.
func (t *rankTrace) begin(t0 time.Time) {
	*t = rankTrace{t0: t0, spans: t.spans[:0], busy: -1}
	t.openBusy(0)
}

func (t *rankTrace) openBusy(at time.Duration) {
	t.busy = len(t.spans)
	t.spans = append(t.spans, span{name: "busy", start: at, end: at, parent: -1, run: -1})
}

// closeBusy ends the open busy span: at the next wait, or by the
// harness once the rank has returned.
func (t *rankTrace) closeBusy(at time.Duration) {
	if t.busy >= 0 {
		t.spans[t.busy].end = at
		t.busy = -1
	}
}

// runID reads a run frame's id with engine's exported decoder.
func runID(tag comm.Tag, payload []byte) int64 {
	if tag != comm.TagRun {
		return -1
	}
	msg, err := engine.DecodeRunMsg(payload)
	if err != nil {
		return -1
	}
	return int64(msg.ID)
}

func (t *rankTrace) wait(tag comm.Tag, start, end time.Duration, payload []byte) {
	t.blocked += end - start
	t.spans = append(t.spans, span{name: "recv_wait", start: start, end: end, parent: -1,
		tag: tag.String(), bytes: len(payload), run: runID(tag, payload)})
	t.openBusy(end)
}

// tracedEndpoint times every call a rank makes into its transport. It
// passes payloads through untouched.
type tracedEndpoint struct {
	comm.Endpoint
	t *rankTrace
}

func (e tracedEndpoint) Send(dst int, tag comm.Tag, payload []byte, wireBytes int) {
	run, n := runID(tag, payload), len(payload) // read before Send: the sender releases the buffer after it
	start := time.Since(e.t.t0)
	e.Endpoint.Send(dst, tag, payload, wireBytes)
	end := time.Since(e.t.t0)
	e.t.sending += end - start
	e.t.sends++
	e.t.bytes += n
	e.t.spans = append(e.t.spans, span{name: "send", start: start, end: end, parent: e.t.busy,
		tag: tag.String(), bytes: n, run: run})
}

func (e tracedEndpoint) Recv(src int, tag comm.Tag) []byte {
	start := time.Since(e.t.t0)
	e.t.closeBusy(start)
	payload := e.Endpoint.Recv(src, tag)
	e.t.wait(tag, start, time.Since(e.t.t0), payload)
	return payload
}

// tracedWaiter keeps the optional comm.Waiter capability: dropping it
// would silently turn the head's bounded wait into a blocking Recv.
type tracedWaiter struct{ tracedEndpoint }

func (e tracedWaiter) WaitRecv(src int, tag comm.Tag, d time.Duration) bool {
	start := time.Since(e.t.t0)
	e.t.closeBusy(start)
	ok := e.Endpoint.(comm.Waiter).WaitRecv(src, tag, d)
	e.t.wait(tag, start, time.Since(e.t.t0), nil)
	return ok
}

func traceEndpoint(ep comm.Endpoint, t *rankTrace) comm.Endpoint {
	te := tracedEndpoint{Endpoint: ep, t: t}
	if _, ok := ep.(comm.Waiter); ok {
		return tracedWaiter{te}
	}
	return te
}

// requestSpans renders one rep's requests as submit -> first_token ->
// done lanes from the token clock: the request span is the root, queue
// wait + prefill (to the first token) and decode (to the last) are its
// children.
func requestSpans(clock *tokenClock) [][]span {
	lanes := make([][]span, len(clock.at))
	for i, at := range clock.at {
		if len(at) == 0 {
			continue
		}
		first, last := at[0], at[len(at)-1]
		lanes[i] = []span{
			{name: "request", start: 0, end: last, parent: -1, run: -1},
			{name: "submit_to_first_token", start: 0, end: first, parent: 0, run: -1},
			{name: "first_token_to_done", start: first, end: last, parent: 0, run: -1},
		}
	}
	return lanes
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

const (
	pidRanks    = 1
	pidRequests = 2
)

// writeChromeTrace writes one rep's spans: a lane per rank and a lane per
// request.
func writeChromeTrace(path string, ranks [][]span, requests [][]span) error {
	var events []chromeEvent
	add := func(pid, tid int, spans []span) {
		self := selfTimes(spans)
		for i, s := range spans {
			us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
			args := map[string]any{"self_us": us(self[i])}
			if s.tag != "" {
				args["tag"], args["bytes"] = s.tag, s.bytes
			}
			if s.run >= 0 {
				args["run"] = s.run
			}
			events = append(events, chromeEvent{Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.dur()),
				PID: pid, TID: tid, Args: args})
		}
	}
	for r, spans := range ranks {
		add(pidRanks, r, spans)
	}
	for q, spans := range requests {
		add(pidRequests, q, spans)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
