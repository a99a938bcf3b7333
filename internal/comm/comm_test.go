package comm_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/comm/simcomm"
	"github.com/pipeinfer/pipeinfer/internal/simnet"
)

func TestTagString(t *testing.T) {
	if comm.TagRun.String() != "run" || comm.TagCancel.String() != "cancel" || comm.NumTags.String() != "tag(5)" {
		t.Fatal("tag names wrong")
	}
}

// --- chancomm ---

func TestChancommBasicExchange(t *testing.T) {
	c := chancomm.New(2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ep := c.Endpoint(0)
		ep.Send(1, comm.TagRun, []byte("hello"), 0)
	}()
	var got []byte
	go func() {
		defer wg.Done()
		ep := c.Endpoint(1)
		got = ep.Recv(0, comm.TagRun)
	}()
	wg.Wait()
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestChancommNonOvertaking(t *testing.T) {
	c := chancomm.New(2)
	const n = 500
	done := make(chan struct{})
	go func() {
		ep := c.Endpoint(0)
		for i := 0; i < n; i++ {
			ep.Send(1, comm.TagActivation, []byte{byte(i), byte(i >> 8)}, 0)
		}
		close(done)
	}()
	ep := c.Endpoint(1)
	for i := 0; i < n; i++ {
		msg := ep.Recv(0, comm.TagActivation)
		got := int(msg[0]) | int(msg[1])<<8
		if got != i {
			t.Fatalf("message %d arrived out of order (got %d)", i, got)
		}
	}
	<-done
}

func TestChancommTagsIndependent(t *testing.T) {
	c := chancomm.New(2)
	ep0 := c.Endpoint(0)
	ep1 := c.Endpoint(1)
	ep0.Send(1, comm.TagRun, []byte("run"), 0)
	ep0.Send(1, comm.TagCancel, []byte("cancel"), 0)
	// Receiving the later tag first must work: streams are independent.
	if string(ep1.Recv(0, comm.TagCancel)) != "cancel" {
		t.Fatal("cancel stream wrong")
	}
	if string(ep1.Recv(0, comm.TagRun)) != "run" {
		t.Fatal("run stream wrong")
	}
}

func TestChancommIprobe(t *testing.T) {
	c := chancomm.New(2)
	ep1 := c.Endpoint(1)
	if ep1.Iprobe(0, comm.TagResult) {
		t.Fatal("Iprobe true on empty mailbox")
	}
	c.Endpoint(0).Send(1, comm.TagResult, []byte("x"), 0)
	deadline := time.Now().Add(time.Second)
	for !ep1.Iprobe(0, comm.TagResult) {
		if time.Now().After(deadline) {
			t.Fatal("Iprobe never became true")
		}
	}
	// Probing must not consume.
	if !ep1.Iprobe(0, comm.TagResult) {
		t.Fatal("Iprobe consumed the message")
	}
	if string(ep1.Recv(0, comm.TagResult)) != "x" {
		t.Fatal("payload lost")
	}
}

func TestChancommBufferedSendDoesNotBlock(t *testing.T) {
	c := chancomm.New(2)
	doneSend := make(chan struct{})
	go func() {
		ep := c.Endpoint(0)
		for i := 0; i < 1000; i++ {
			ep.Send(1, comm.TagRun, []byte("m"), 0)
		}
		close(doneSend)
	}()
	select {
	case <-doneSend: // sender finished without any receiver
	case <-time.After(2 * time.Second):
		t.Fatal("buffered send blocked")
	}
}

func TestChancommSenderBufferReuse(t *testing.T) {
	c := chancomm.New(2)
	buf := []byte{1}
	c.Endpoint(0).Send(1, comm.TagRun, buf, 0)
	buf[0] = 99 // sender reuses its buffer immediately
	if got := c.Endpoint(1).Recv(0, comm.TagRun); got[0] != 1 {
		t.Fatalf("message corrupted by sender buffer reuse: %d", got[0])
	}
}

func TestChancommConcurrentSendersStress(t *testing.T) {
	c := chancomm.New(4)
	var wg sync.WaitGroup
	const per = 200
	for src := 1; src < 4; src++ {
		src := src
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := c.Endpoint(src)
			for i := 0; i < per; i++ {
				ep.Send(0, comm.TagResult, []byte{byte(src), byte(i)}, 0)
			}
		}()
	}
	ep := c.Endpoint(0)
	for src := 1; src < 4; src++ {
		for i := 0; i < per; i++ {
			msg := ep.Recv(src, comm.TagResult)
			if int(msg[0]) != src || int(msg[1]) != i%256 {
				t.Fatalf("stream (src=%d) broken at %d: %v", src, i, msg)
			}
		}
	}
	wg.Wait()
}

// --- simcomm ---

func simPair(t *testing.T, fn0, fn1 func(ep comm.Endpoint)) error {
	t.Helper()
	k := simnet.NewKernel()
	cl := simcomm.New(k, 2, func(int) *simnet.Link {
		return simnet.NewLink(1e6, time.Millisecond) // 1 MB/s, 1ms
	})
	k.Spawn("n0", func(p *simnet.Proc) { fn0(cl.Bind(0, p)) })
	k.Spawn("n1", func(p *simnet.Proc) { fn1(cl.Bind(1, p)) })
	return k.Run()
}

func TestSimcommLatencyAndBandwidth(t *testing.T) {
	var arrival time.Duration
	err := simPair(t,
		func(ep comm.Endpoint) {
			ep.Send(1, comm.TagRun, []byte("x"), 1000) // 1000B at 1MB/s = 1ms
		},
		func(ep comm.Endpoint) {
			ep.Recv(0, comm.TagRun)
			arrival = ep.Now()
		})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * time.Millisecond // 1ms serialization + 1ms latency
	if arrival != want {
		t.Fatalf("arrival %v, want %v", arrival, want)
	}
}

func TestSimcommNonOvertaking(t *testing.T) {
	var got []byte
	err := simPair(t,
		func(ep comm.Endpoint) {
			for i := 0; i < 20; i++ {
				ep.Send(1, comm.TagActivation, []byte{byte(i)}, 100)
			}
		},
		func(ep comm.Endpoint) {
			for i := 0; i < 20; i++ {
				got = append(got, ep.Recv(0, comm.TagActivation)[0])
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestSimcommElapseAdvancesClock(t *testing.T) {
	var at time.Duration
	err := simPair(t,
		func(ep comm.Endpoint) {
			ep.Elapse(5 * time.Millisecond)
			at = ep.Now()
			ep.Send(1, comm.TagControl, nil, 1)
		},
		func(ep comm.Endpoint) { ep.Recv(0, comm.TagControl) })
	if err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Millisecond {
		t.Fatalf("Elapse advanced to %v", at)
	}
}

func TestSimcommIprobeNonConsuming(t *testing.T) {
	probes := []bool{}
	err := simPair(t,
		func(ep comm.Endpoint) {
			ep.Send(1, comm.TagResult, []byte("r"), 10)
		},
		func(ep comm.Endpoint) {
			probes = append(probes, ep.Iprobe(0, comm.TagResult)) // before arrival
			ep.Elapse(10 * time.Millisecond)
			probes = append(probes, ep.Iprobe(0, comm.TagResult)) // after arrival
			ep.Recv(0, comm.TagResult)
			probes = append(probes, ep.Iprobe(0, comm.TagResult)) // consumed
		})
	if err != nil {
		t.Fatal(err)
	}
	if probes[0] || !probes[1] || probes[2] {
		t.Fatalf("probe sequence = %v, want [false true false]", probes)
	}
}

func TestSimcommDeadlockSurfaceing(t *testing.T) {
	err := simPair(t,
		func(ep comm.Endpoint) { ep.Recv(1, comm.TagRun) }, // both wait forever
		func(ep comm.Endpoint) { ep.Recv(0, comm.TagRun) })
	if _, ok := err.(*simnet.DeadlockError); !ok {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestSimcommSerializationQueuesMessages(t *testing.T) {
	// Two 1000-byte messages back to back on a 1MB/s link: the second
	// arrives 1ms after the first (serialization), not simultaneously.
	var times []time.Duration
	err := simPair(t,
		func(ep comm.Endpoint) {
			ep.Send(1, comm.TagRun, []byte("a"), 1000)
			ep.Send(1, comm.TagRun, []byte("b"), 1000)
		},
		func(ep comm.Endpoint) {
			ep.Recv(0, comm.TagRun)
			times = append(times, ep.Now())
			ep.Recv(0, comm.TagRun)
			times = append(times, ep.Now())
		})
	if err != nil {
		t.Fatal(err)
	}
	if times[1]-times[0] != time.Millisecond {
		t.Fatalf("serialization gap %v, want 1ms", times[1]-times[0])
	}
}

func TestSimcommPipelineRelay(t *testing.T) {
	// A 4-node relay: message hops 0->1->2->3; each hop adds latency.
	k := simnet.NewKernel()
	const n = 4
	cl := simcomm.New(k, n, func(int) *simnet.Link {
		return simnet.NewLink(1e9, time.Millisecond)
	})
	var final time.Duration
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("n%d", i), func(p *simnet.Proc) {
			ep := cl.Bind(i, p)
			if i == 0 {
				ep.Send(1, comm.TagActivation, []byte("t"), 100)
				return
			}
			msg := ep.Recv(i-1, comm.TagActivation)
			if i < n-1 {
				ep.Send(i+1, comm.TagActivation, msg, 100)
			} else {
				final = ep.Now()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if final < 3*time.Millisecond || final > 4*time.Millisecond {
		t.Fatalf("3-hop relay took %v, want ~3ms", final)
	}
}
