package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// FlightNode is one ring's worth of dumped events, labelled with the
// recording goroutine's node name ("head", "stage0", ...).
type FlightNode struct {
	Name   string
	Events []FlightEvent
}

// FlightDump is a point-in-time capture of every ring of a Set: what the
// simulator's timeline analyses read, what a watchdog failure or breaker
// trip writes to disk, and what converts to Chrome trace-event JSON for
// Perfetto.
type FlightDump struct {
	Reason string
	Nodes  []FlightNode
}

// Len reports the total number of events across all nodes.
func (d *FlightDump) Len() int {
	n := 0
	for _, nd := range d.Nodes {
		n += len(nd.Events)
	}
	return n
}

// flightMagic identifies the binary dump format, versioned in the last
// byte.
var flightMagic = [8]byte{'P', 'I', 'F', 'L', 'I', 'G', 'H', '1'}

// WriteFlightDump serialises the dump in the compact binary format read
// back by ReadFlightDump.
func WriteFlightDump(w io.Writer, d *FlightDump) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(flightMagic[:]); err != nil {
		return err
	}
	writeStr := func(s string) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
		bw.Write(n[:])
		bw.WriteString(s)
	}
	writeStr(d.Reason)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(d.Nodes)))
	bw.Write(n[:])
	var ev [16]byte
	for _, nd := range d.Nodes {
		writeStr(nd.Name)
		binary.LittleEndian.PutUint32(n[:], uint32(len(nd.Events)))
		bw.Write(n[:])
		for _, e := range nd.Events {
			binary.LittleEndian.PutUint64(ev[:8], uint64(e.At))
			binary.LittleEndian.PutUint64(ev[8:], packMeta(e.Run, e.Arg, e.Kind))
			if _, err := bw.Write(ev[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadFlightDump parses a dump written by WriteFlightDump.
func ReadFlightDump(r io.Reader) (*FlightDump, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("flight dump: %w", err)
	}
	if magic != flightMagic {
		return nil, fmt.Errorf("flight dump: bad magic %q", magic[:])
	}
	readU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	const limit = 1 << 24 // refuse absurd counts from corrupt files
	readStr := func() (string, error) {
		n, err := readU32()
		if err != nil || n > limit {
			return "", fmt.Errorf("flight dump: bad string length")
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	d := &FlightDump{}
	var err error
	if d.Reason, err = readStr(); err != nil {
		return nil, err
	}
	nodes, err := readU32()
	if err != nil || nodes > limit {
		return nil, fmt.Errorf("flight dump: bad node count")
	}
	for i := uint32(0); i < nodes; i++ {
		var nd FlightNode
		if nd.Name, err = readStr(); err != nil {
			return nil, err
		}
		count, err := readU32()
		if err != nil || count > limit {
			return nil, fmt.Errorf("flight dump: bad event count")
		}
		nd.Events = make([]FlightEvent, 0, count)
		var ev [16]byte
		for j := uint32(0); j < count; j++ {
			if _, err := io.ReadFull(br, ev[:]); err != nil {
				return nil, err
			}
			run, arg, kind := unpackMeta(binary.LittleEndian.Uint64(ev[8:]))
			nd.Events = append(nd.Events, FlightEvent{
				At:   time.Duration(binary.LittleEndian.Uint64(ev[:8])),
				Run:  run,
				Arg:  arg,
				Kind: kind,
			})
		}
		d.Nodes = append(d.Nodes, nd)
	}
	return d, nil
}

// chromeEvent is one entry of the Chrome trace-event ("Trace Event
// Format") JSON array understood by Perfetto and chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace converts the dump to Chrome trace-event JSON: eval+/−
// pairs become duration (B/E) slices on the recording node's track,
// everything else instant events. The output is a complete JSON object
// loadable in Perfetto.
func (d *FlightDump) ChromeTrace() ([]byte, error) {
	var evs []chromeEvent
	for tid, nd := range d.Nodes {
		for _, e := range nd.Events {
			ce := chromeEvent{
				Ts:  float64(e.At) / float64(time.Microsecond),
				Pid: 0,
				Tid: tid,
				Args: map[string]any{
					"run": e.Run, "arg": e.Arg, "node": nd.Name,
				},
			}
			if e.Kind == FlightLaunch || e.Kind == FlightEvalBeg {
				ce.Args["arg"], ce.Args["kind"] = e.Rows(), e.RunKind()
			}
			switch e.Kind {
			case FlightEvalBeg:
				ce.Ph, ce.Name = "B", fmt.Sprintf("eval run %d", e.Run)
			case FlightEvalEnd:
				ce.Ph, ce.Name = "E", fmt.Sprintf("eval run %d", e.Run)
			default:
				ce.Ph, ce.Name, ce.S = "i", e.Kind.String(), "t"
			}
			evs = append(evs, ce)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	doc := struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		Metadata        map[string]any `json:"metadata,omitempty"`
	}{
		TraceEvents:     evs,
		DisplayTimeUnit: "ms",
	}
	if d.Reason != "" {
		doc.Metadata = map[string]any{"dump-reason": d.Reason}
	}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []chromeEvent{}
	}
	return json.MarshalIndent(doc, "", " ")
}

// NodeEvent is one timeline entry: an event and the node that recorded
// it.
type NodeEvent struct {
	Node string
	FlightEvent
}

// Timeline merges every node's events into one time-sorted list; events
// at the same instant keep node order, then recording order.
func (d *FlightDump) Timeline() []NodeEvent {
	evs := make([]NodeEvent, 0, d.Len())
	for _, nd := range d.Nodes {
		for _, e := range nd.Events {
			evs = append(evs, NodeEvent{nd.Name, e})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// Render prints the per-node event log in the shape of the paper's Fig 3
// timeline. runKind names the kind byte launch and eval+ events carry
// (the engine's RunKind).
func (d *FlightDump) Render(runKind func(uint8) string) string {
	var sb strings.Builder
	sb.WriteString("time        node          event    run  note\n")
	sb.WriteString("----------  ------------  -------  ---  ----\n")
	for _, e := range d.Timeline() {
		var note string
		switch e.Kind {
		case FlightLaunch, FlightEvalBeg:
			note = fmt.Sprintf("%s batch=%d", runKind(e.RunKind()), e.Rows())
		case FlightEvalEnd:
			note = "done"
			if e.Arg == 0 {
				note = "cancelled mid-evaluation"
			}
		case FlightResult:
			note = fmt.Sprintf("data=%v cancelled=%v", e.Arg&ResultData != 0, e.Arg&ResultCancelled != 0)
		case FlightCancel:
			note = "whole run"
			if e.Arg != WholeRun {
				note = fmt.Sprintf("row-mask session %d", e.Arg)
			}
		case FlightAccept:
			note = fmt.Sprintf("n=%d", e.Arg)
		}
		fmt.Fprintf(&sb, "%-10s  %-12s  %-7s  %3d  %s\n",
			e.At.Round(time.Microsecond), e.Node, e.Kind, e.Run, note)
	}
	return sb.String()
}

// Span is one stage evaluation: an eval+ / eval- pair of one (node,
// run), the raw material for utilisation analysis.
type Span struct {
	Node     string
	Run      uint32
	From, To time.Duration
}

// EvalSpans extracts stage busy intervals, node by node. An eval+ whose
// eval- was never recorded yields no span.
func (d *FlightDump) EvalSpans() []Span {
	var spans []Span
	for _, nd := range d.Nodes {
		open := map[uint32]time.Duration{}
		for _, e := range nd.Events {
			switch e.Kind {
			case FlightEvalBeg:
				open[e.Run] = e.At
			case FlightEvalEnd:
				if from, ok := open[e.Run]; ok {
					spans = append(spans, Span{Node: nd.Name, Run: e.Run, From: from, To: e.At})
					delete(open, e.Run)
				}
			}
		}
	}
	return spans
}

// Utilisation computes the busy fraction over [0, horizon] of every node
// that evaluated anything.
func (d *FlightDump) Utilisation(horizon time.Duration) map[string]float64 {
	out := map[string]float64{}
	if horizon <= 0 {
		return out
	}
	for _, s := range d.EvalSpans() {
		out[s.Node] += float64(s.To - s.From) // whole nanoseconds: the sum is exact
	}
	for node := range out {
		out[node] /= float64(horizon)
	}
	return out
}
