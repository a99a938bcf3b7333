package comm_test

import (
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/comm/tcpcomm"
)

// busy computes for d without blocking or yielding — a pipeline stage's
// step as the scheduler sees it.
func busy(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// tcpPair dials a 2-rank tcpcomm loopback mesh.
func tcpPair(tb testing.TB) [2]comm.Endpoint {
	tb.Helper()
	eps, err := tcpcomm.DialLoopback(2, tcpcomm.Config{DialTimeout: 10 * time.Second})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		eps[0].Close()
		eps[1].Close()
	})
	return [2]comm.Endpoint{eps[0], eps[1]}
}

// BenchmarkHandoffRing is the layer-level number for hand-off overlap,
// beside decode_tcp / solo_pipeinfer end to end. A message circles two
// ranks: the sender Sends, computes H, then waits for the reply; the
// worker receives, computes W, replies. If the message reaches a running
// worker at Send time the two computations overlap and a cycle costs
// about max(H, W); if the worker only starts once the sender blocks they
// run as a convoy and a cycle costs H + W plus two wake-ups. ns/op is
// ns per cycle, reported against both (overlap-ns, convoy-ns). Needs
// GOMAXPROCS >= 2 to be able to overlap at all.
func BenchmarkHandoffRing(b *testing.B) {
	const (
		H = 50 * time.Microsecond
		W = 50 * time.Microsecond
	)
	transports := []struct {
		name string
		pair func(testing.TB) [2]comm.Endpoint
	}{
		{"chancomm", func(testing.TB) [2]comm.Endpoint {
			c := chancomm.New(2)
			return [2]comm.Endpoint{c.Endpoint(0), c.Endpoint(1)}
		}},
		{"tcpcomm", tcpPair},
	}
	for _, tr := range transports {
		b.Run(tr.name, func(b *testing.B) {
			eps := tr.pair(b)
			msg := make([]byte, 512)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					comm.PutBuf(eps[1].Recv(0, comm.TagActivation))
					busy(W)
					eps[1].Send(0, comm.TagResult, msg, 0)
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eps[0].Send(1, comm.TagActivation, msg, 0)
				busy(H)
				comm.PutBuf(eps[0].Recv(1, comm.TagResult))
			}
			b.StopTimer()
			<-done
			b.ReportMetric(float64(max(H, W).Nanoseconds()), "overlap-ns")
			b.ReportMetric(float64((H + W).Nanoseconds()), "convoy-ns")
		})
	}
}
