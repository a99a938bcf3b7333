package tcpcomm

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/backend/realbk"
	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// mesh spins up n endpoints over loopback TCP.
func mesh(t *testing.T, n int) []*Endpoint {
	t.Helper()
	return meshWith(t, n, Config{DialTimeout: 10 * time.Second})
}

// meshWith is mesh with every rank dialled from the cfg template.
func meshWith(t *testing.T, n int, cfg Config) []*Endpoint {
	t.Helper()
	eps, err := DialLoopback(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

func TestMeshExchange(t *testing.T) {
	eps := mesh(t, 3)
	eps[0].Send(2, comm.TagRun, []byte("zero-to-two"), 0)
	eps[1].Send(2, comm.TagRun, []byte("one-to-two"), 0)
	if got := eps[2].Recv(0, comm.TagRun); string(got) != "zero-to-two" {
		t.Fatalf("got %q", got)
	}
	if got := eps[2].Recv(1, comm.TagRun); string(got) != "one-to-two" {
		t.Fatalf("got %q", got)
	}
}

func TestNonOvertakingOverTCP(t *testing.T) {
	eps := mesh(t, 2)
	const n = 300
	go func() {
		for i := 0; i < n; i++ {
			eps[0].Send(1, comm.TagActivation, []byte{byte(i), byte(i >> 8)}, 0)
		}
	}()
	for i := 0; i < n; i++ {
		msg := eps[1].Recv(0, comm.TagActivation)
		if got := int(msg[0]) | int(msg[1])<<8; got != i {
			t.Fatalf("order broken at %d: got %d", i, got)
		}
	}
}

func TestTagsIndependentOverTCP(t *testing.T) {
	eps := mesh(t, 2)
	eps[0].Send(1, comm.TagRun, []byte("r"), 0)
	eps[0].Send(1, comm.TagCancel, []byte("c"), 0)
	if string(eps[1].Recv(0, comm.TagCancel)) != "c" {
		t.Fatal("cancel stream wrong")
	}
	if string(eps[1].Recv(0, comm.TagRun)) != "r" {
		t.Fatal("run stream wrong")
	}
}

func TestIprobeOverTCP(t *testing.T) {
	eps := mesh(t, 2)
	if eps[1].Iprobe(0, comm.TagResult) {
		t.Fatal("probe true on empty queue")
	}
	eps[0].Send(1, comm.TagResult, []byte("x"), 0)
	deadline := time.Now().Add(5 * time.Second)
	for !eps[1].Iprobe(0, comm.TagResult) {
		if time.Now().After(deadline) {
			t.Fatal("message never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if string(eps[1].Recv(0, comm.TagResult)) != "x" {
		t.Fatal("payload lost")
	}
}

func TestLargePayload(t *testing.T) {
	eps := mesh(t, 2)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	eps[0].Send(1, comm.TagActivation, big, 0)
	got := eps[1].Recv(0, comm.TagActivation)
	if len(got) != len(big) {
		t.Fatalf("length %d", len(got))
	}
	for i := range got {
		if got[i] != big[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}

func TestFreeAddrsDistinct(t *testing.T) {
	addrs, err := FreeAddrs(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate address %s", a)
		}
		seen[a] = true
	}
}

// TestDistributedPipeInferOverTCP is the deployment integration test: the
// full PipeInfer engine with real tensor computation, each rank on its own
// TCP endpoint, output verified against the single-model greedy reference.
func TestDistributedPipeInferOverTCP(t *testing.T) {
	const nodes = 3
	cfg := model.TinyConfig()
	cfg.NLayers = 4
	opts := realbk.Options{
		Nodes:      nodes,
		Strategy:   engine.StrategyPipeInfer,
		CFG:        engine.Config{MaxNew: 16},
		ModelCfg:   cfg,
		Seed:       21,
		DraftNoise: 0.05,
		Prompt:     []token.Token{token.BOS, 9, 8, 7, 6},
	}
	ref, err := realbk.ReferenceGreedy(opts, 16)
	if err != nil {
		t.Fatal(err)
	}

	eps := mesh(t, nodes)
	outcomes := make([]realbk.Outcome, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for rank := 0; rank < nodes; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[rank], errs[rank] = realbk.RunRank(eps[rank], opts)
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	got := outcomes[0].Tokens
	if len(got) < len(ref) {
		t.Fatalf("generated %d tokens", len(got))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("distributed output diverged at %d", i)
		}
	}
}

// TestDistributedIterativeOverTCP covers the baseline path (head is also
// stage 0) over the TCP transport.
func TestDistributedIterativeOverTCP(t *testing.T) {
	const nodes = 2
	cfg := model.TinyConfig()
	cfg.NLayers = 4
	opts := realbk.Options{
		Nodes:    nodes,
		Strategy: engine.StrategyIterative,
		CFG:      engine.Config{MaxNew: 10},
		ModelCfg: cfg,
		Seed:     22,
		Prompt:   []token.Token{token.BOS, 1, 2, 3},
	}
	ref, err := realbk.ReferenceGreedy(opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	eps := mesh(t, nodes)
	var wg sync.WaitGroup
	var workerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, workerErr = realbk.RunRank(eps[1], opts)
	}()
	out, err := realbk.RunRank(eps[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if workerErr != nil {
		t.Fatal(workerErr)
	}
	for i := range ref {
		if out.Tokens[i] != ref[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

// meshFT spins up n endpoints with heartbeats and reconnection armed.
func meshFT(t *testing.T, n int, hb time.Duration) []*Endpoint {
	t.Helper()
	return meshWith(t, n, Config{
		DialTimeout: 10 * time.Second,
		Heartbeat:   hb, ReconnectTimeout: 5 * time.Second,
		ReconnectBackoff: 5 * time.Millisecond,
	})
}

// TestReconnectRestoresTraffic kills the live TCP connection between two
// ranks and proves the link self-heals: traffic resumes in both
// directions and at least one side counts a reconnection.
func TestReconnectRestoresTraffic(t *testing.T) {
	eps := meshFT(t, 2, 10*time.Millisecond)
	eps[0].Send(1, comm.TagRun, []byte("before"), 0)
	if string(eps[1].Recv(0, comm.TagRun)) != "before" {
		t.Fatal("pre-fault message lost")
	}

	// Sever the link out from under both endpoints.
	eps[0].connMu[1].Lock()
	eps[0].conns[1].Close()
	eps[0].connMu[1].Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for eps[0].Reconnects() == 0 && eps[1].Reconnects() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("link never reconnected")
		}
		time.Sleep(time.Millisecond)
	}
	eps[0].Send(1, comm.TagRun, []byte("after-01"), 0)
	eps[1].Send(0, comm.TagRun, []byte("after-10"), 0)
	if string(eps[1].Recv(0, comm.TagRun)) != "after-01" {
		t.Fatal("0->1 traffic not restored")
	}
	if string(eps[0].Recv(1, comm.TagRun)) != "after-10" {
		t.Fatal("1->0 traffic not restored")
	}
}

// TestHeartbeatKeepsIdleLinkAlive proves heartbeats refresh the silence
// monitor: an idle link several DeadAfter periods long is not torn down.
func TestHeartbeatKeepsIdleLinkAlive(t *testing.T) {
	eps := meshFT(t, 2, 5*time.Millisecond) // DeadAfter defaults to 20ms
	time.Sleep(150 * time.Millisecond)
	if n := eps[0].Reconnects() + eps[1].Reconnects(); n != 0 {
		t.Fatalf("idle heartbeat-kept link reconnected %d times", n)
	}
	eps[0].Send(1, comm.TagRun, []byte("still-alive"), 0)
	if string(eps[1].Recv(0, comm.TagRun)) != "still-alive" {
		t.Fatal("idle link dropped traffic")
	}
}

// TestDialHonorsContextCancel proves Ctrl-C (context cancellation)
// aborts a stuck mesh establishment instead of sleeping out DialTimeout.
func TestDialHonorsContextCancel(t *testing.T) {
	addrs, err := FreeAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = Dial(Config{Rank: 0, Addrs: addrs, DialTimeout: 30 * time.Second, Context: ctx})
	if err == nil {
		t.Fatal("dial to absent peer should fail on cancellation")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation took %v, should abort promptly", time.Since(start))
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial(Config{Rank: 5, Addrs: []string{"a", "b"}}); err == nil {
		t.Fatal("bad rank accepted")
	}
	// Unreachable peer with a short timeout.
	addrs, err := FreeAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Dial(Config{Rank: 0, Addrs: addrs, DialTimeout: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to absent peer should time out")
	}
}

// flakyConn injects one failed direct write on a link's write side. The
// first Write fails — after passing the bytes through when delivered is
// set, the case the sequence numbers exist for: a write that reports
// failure yet arrived. The second Write is the writer goroutine's retry
// on the same conn; it blocks until hold closes and fails too, which
// sends the writer to reconnect() — and since the repair side never saw
// the real conn fail, reconnect hands that conn straight back.
type flakyConn struct {
	net.Conn
	delivered bool
	writes    atomic.Int32
	hold      chan struct{}
}

func (c *flakyConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) == 1 {
		if c.delivered {
			if _, err := c.Conn.Write(b); err != nil {
				return 0, err
			}
		}
		return 0, errors.New("injected write failure")
	}
	<-c.hold
	return 0, errors.New("injected write failure")
}

// TestOutageKeepsOrderAndDedups drives one link through healthy ->
// outage -> healthy and checks what the two write paths owe each other:
// the frame whose direct write failed goes out again under its own
// sequence number (so a copy that had arrived is dropped, not delivered
// twice), frames sent during the outage queue behind it without Send
// ever waiting for the repair, and direct writes resume only once the
// queue has drained — one FIFO stream end to end, nothing lost.
func TestOutageKeepsOrderAndDedups(t *testing.T) {
	for _, delivered := range []bool{false, true} {
		t.Run(fmt.Sprintf("failed-write-delivered=%v", delivered), func(t *testing.T) {
			// An hour between heartbeats: reconnection armed, no
			// heartbeat frame to take the injected failure instead.
			eps := meshFT(t, 2, time.Hour)
			send := func(i int) { eps[0].Send(1, comm.TagRun, []byte{byte(i)}, 0) }
			send(0) // direct

			o := &eps[0].out[1]
			fc := &flakyConn{delivered: delivered, hold: make(chan struct{})}
			o.mu.Lock()
			fc.Conn = o.conn
			o.conn = fc
			o.mu.Unlock()

			send(1) // direct write fails: the outage begins
			waitFor(t, "the writer goroutine to take over the link", func() bool { return fc.writes.Load() == 2 })
			// The writer is held mid-repair. Sends must return regardless.
			sent := make(chan struct{})
			go func() {
				defer close(sent)
				for i := 2; i < 8; i++ {
					send(i)
				}
			}()
			select {
			case <-sent:
			case <-time.After(5 * time.Second):
				t.Fatal("Send blocked while the link was under repair")
			}
			close(fc.hold)
			waitFor(t, "the link to return to direct writes", func() bool {
				o.mu.Lock()
				defer o.mu.Unlock()
				return !o.down
			})
			send(8) // direct again, behind the drained queue

			for i := 0; i <= 8; i++ {
				if got := eps[1].Recv(0, comm.TagRun); got[0] != byte(i) {
					t.Fatalf("received frame %d in position %d", got[0], i)
				}
			}
			wantDups := int64(0)
			if delivered {
				wantDups = 1
			}
			if got := eps[1].dups.Load(); got != wantDups {
				t.Fatalf("receiver dropped %d duplicate frames, want %d", got, wantDups)
			}
			if lost := eps[1].FramesLost(); lost != 0 {
				t.Fatalf("%d frames counted lost across an outage that lost none", lost)
			}
		})
	}
}

// TestSeveredLinkMidStreamStaysOrdered cuts the real connection under a
// running stream. Frames in flight when it dies may be lost (the
// sequence gap counts them); what arrives must still arrive once and in
// order, across the direct path, the outage queue and the repaired link.
func TestSeveredLinkMidStreamStaysOrdered(t *testing.T) {
	eps := meshFT(t, 2, 10*time.Millisecond)
	const n = 2000
	go func() {
		for i := 0; i < n; i++ {
			if i == n/4 {
				eps[0].connMu[1].Lock()
				eps[0].conns[1].Close()
				eps[0].connMu[1].Unlock()
			}
			eps[0].Send(1, comm.TagActivation, []byte{byte(i), byte(i >> 8)}, 0)
		}
		eps[0].Send(1, comm.TagControl, nil, 0) // end of stream
	}()
	// TagControl shares the link's FIFO with the data: once it is in,
	// every surviving data frame is in the mailbox already.
	eps[1].Recv(0, comm.TagControl)
	last, got := -1, 0
	for eps[1].Iprobe(0, comm.TagActivation) {
		msg := eps[1].Recv(0, comm.TagActivation)
		i := int(msg[0]) | int(msg[1])<<8
		if i <= last {
			t.Fatalf("frame %d arrived after frame %d", i, last)
		}
		last = i
		got++
	}
	if last != n-1 {
		t.Fatalf("stream ended at frame %d, want %d: traffic did not resume", last, n-1)
	}
	if eps[0].Reconnects()+eps[1].Reconnects() == 0 {
		t.Fatal("the severed link was never re-established")
	}
	// Heartbeats share the numbering, so a lost heartbeat may add to the
	// count but a lost data frame can never be missing from it.
	if lost := eps[1].FramesLost(); lost < n-got {
		t.Fatalf("%d data frames missing but only %d counted lost", n-got, lost)
	}
}

// TestSendAfterCloseReleasesFrame: a Send that loses the race with Close
// must hand its framed buffer back to the pool. The pool is the witness:
// a Send that keeps its frame makes the next GetBuf allocate.
func TestSendAfterCloseReleasesFrame(t *testing.T) {
	eps := mesh(t, 2)
	eps[0].Close()
	payload := make([]byte, 64)
	send := func() { eps[0].Send(1, comm.TagRun, payload, 0) }
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("%.2f allocations per Send on a closed endpoint: the frame is not released", allocs)
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
