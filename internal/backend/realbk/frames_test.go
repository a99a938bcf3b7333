package realbk

import (
	"sync"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
)

// hopCounts counts the messages every rank sends, per (src, dst, tag),
// and the frames on the run stream per (src, dst, op).
type hopCounts struct {
	mu   sync.Mutex
	tags map[[3]int]int
	ops  map[[3]int]int
}

type countingEP struct {
	comm.Endpoint
	c *hopCounts
}

func (e countingEP) Send(dst int, tag comm.Tag, p []byte, wire int) {
	e.c.mu.Lock()
	e.c.tags[[3]int{e.Rank(), dst, int(tag)}]++
	if tag == comm.TagRun {
		e.c.ops[[3]int{e.Rank(), dst, int(engine.FrameOpOf(p))}]++
	}
	e.c.mu.Unlock()
	e.Endpoint.Send(dst, tag, p, wire)
}

// TestOneFramePerOperation counts the frames on every hop of a 3-rank
// serve, with a dedicated drafting head (PipeInfer) and with the head as
// the first stage (iterative): each hop carries exactly one message per
// run, one per KV transaction and one shutdown, all on the run stream,
// and nothing is sent on the activation or control streams.
func TestOneFramePerOperation(t *testing.T) {
	for _, speculate := range []bool{true, false} {
		c := &hopCounts{tags: map[[3]int]int{}, ops: map[[3]int]int{}}
		cfg := engine.Config{MaxNew: 8}
		if speculate {
			cfg.SpecCutoff = 0.02
		}
		out, err := Serve(ServeOptions{
			Nodes:          3,
			CFG:            cfg,
			ModelCfg:       serveModel(4),
			Seed:           21,
			Speculate:      speculate,
			DraftNoise:     0.01,
			MaxSessions:    4,
			SeqsPerSession: 4,
			Requests:       serveRequests(4, 8),
			WrapEndpoint: func(_ int, ep comm.Endpoint) comm.Endpoint {
				return countingEP{ep, c}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		runs := out.Stats.RunsLaunched
		kv := c.ops[[3]int{0, 1, int(engine.OpKV)}]
		if speculate && kv == 0 {
			t.Fatal("the speculative serve sent no KV transaction")
		}
		for _, hop := range [][2]int{{0, 1}, {1, 2}} {
			op := func(o engine.FrameOp) int { return c.ops[[3]int{hop[0], hop[1], int(o)}] }
			if op(engine.OpRun) != runs || op(engine.OpKV) != kv || op(engine.OpShutdown) != 1 {
				t.Fatalf("speculate=%v hop %d->%d: %d run, %d KV, %d shutdown frames; want %d, %d, 1",
					speculate, hop[0], hop[1], op(engine.OpRun), op(engine.OpKV), op(engine.OpShutdown), runs, kv)
			}
			if n := c.tags[[3]int{hop[0], hop[1], int(comm.TagRun)}]; n != runs+kv+1 {
				t.Fatalf("speculate=%v hop %d->%d: %d messages on the run stream for %d operations",
					speculate, hop[0], hop[1], n, runs+kv+1)
			}
		}
		for k, n := range c.tags {
			if tag := comm.Tag(k[2]); tag == comm.TagActivation || tag == comm.TagControl {
				t.Fatalf("speculate=%v: %d messages on the %v stream %d->%d", speculate, n, tag, k[0], k[1])
			}
		}
	}
}
