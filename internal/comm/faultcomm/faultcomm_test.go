package faultcomm

import (
	"bytes"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/comm/simcomm"
	"github.com/pipeinfer/pipeinfer/internal/simnet"
)

// pair builds a two-rank chancomm cluster with rank 1's receives wrapped
// by the plan.
func pair(p *Plan) (sender comm.Endpoint, receiver *Endpoint) {
	cl := chancomm.New(2)
	return cl.Endpoint(0), Wrap(cl.Endpoint(1), p)
}

func send(ep comm.Endpoint, dst int, tag comm.Tag, b byte, n int) {
	for i := 0; i < n; i++ {
		ep.Send(dst, tag, []byte{b, byte(i)}, 2)
	}
}

func TestDropDeterministic(t *testing.T) {
	recvIndices := func() []byte {
		p := &Plan{Seed: 42, Rules: []Rule{{Src: -1, Dst: -1, Tag: -1, Kind: Drop, Prob: 0.3}}}
		s, r := pair(p)
		send(s, 1, comm.TagResult, 7, 50)
		var got []byte
		for r.Iprobe(0, comm.TagResult) {
			buf := r.Recv(0, comm.TagResult)
			got = append(got, buf[1])
			comm.PutBuf(buf)
		}
		if p.Stats().Dropped == 0 || p.Stats().Dropped+len(got) != 50 {
			t.Fatalf("dropped %d, delivered %d of 50", p.Stats().Dropped, len(got))
		}
		return got
	}
	a, b := recvIndices(), recvIndices()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed dropped different messages: %v vs %v", a, b)
	}
}

func TestNthDropAndFIFO(t *testing.T) {
	p := &Plan{Rules: []Rule{{Src: 0, Dst: 1, Tag: int(comm.TagResult), Kind: Drop, Nth: 3}}}
	s, r := pair(p)
	send(s, 1, comm.TagResult, 7, 5)
	send(s, 1, comm.TagCancel, 9, 2) // other stream untouched
	var got []byte
	for r.Iprobe(0, comm.TagResult) {
		buf := r.Recv(0, comm.TagResult)
		got = append(got, buf[1])
		comm.PutBuf(buf)
	}
	if !bytes.Equal(got, []byte{0, 1, 3, 4}) {
		t.Fatalf("got indices %v, want [0 1 3 4]", got)
	}
	if n := p.LinkStats(0, 1).Dropped; n != 1 {
		t.Fatalf("link dropped = %d, want 1", n)
	}
	for i := 0; i < 2; i++ {
		comm.PutBuf(r.Recv(0, comm.TagCancel))
	}
}

func TestDup(t *testing.T) {
	p := &Plan{Rules: []Rule{{Src: -1, Dst: -1, Tag: -1, Kind: Dup, Nth: 2}}}
	s, r := pair(p)
	send(s, 1, comm.TagResult, 7, 3)
	var got []byte
	for r.Iprobe(0, comm.TagResult) {
		buf := r.Recv(0, comm.TagResult)
		got = append(got, buf[1])
		comm.PutBuf(buf)
	}
	if !bytes.Equal(got, []byte{0, 1, 1, 2}) {
		t.Fatalf("got indices %v, want [0 1 1 2]", got)
	}
	if p.Stats().Duplicated != 1 {
		t.Fatalf("duplicated = %d, want 1", p.Stats().Duplicated)
	}
}

func TestCorruptOneShot(t *testing.T) {
	p := &Plan{Rules: []Rule{{Src: -1, Dst: -1, Tag: -1, Kind: Corrupt, Nth: 1}}}
	s, r := pair(p)
	send(s, 1, comm.TagResult, 7, 2)
	first := r.Recv(0, comm.TagResult)
	second := r.Recv(0, comm.TagResult)
	if first[1] == 0 {
		t.Fatalf("first message not corrupted: %v", first)
	}
	if second[0] != 7 || second[1] != 1 {
		t.Fatalf("second message should be intact: %v", second)
	}
	if p.Stats().Corrupted != 1 {
		t.Fatalf("corrupted = %d, want 1", p.Stats().Corrupted)
	}
	comm.PutBuf(first)
	comm.PutBuf(second)
}

func TestStallBlocksStreamNotLink(t *testing.T) {
	p := &Plan{Rules: []Rule{{Src: 0, Dst: 1, Tag: int(comm.TagResult), Kind: Stall, Nth: 1}}}
	s, r := pair(p)
	send(s, 1, comm.TagResult, 7, 3)
	send(s, 1, comm.TagCancel, 9, 1)
	if r.Iprobe(0, comm.TagResult) {
		t.Fatal("stalled stream head should not be deliverable")
	}
	// FIFO: messages behind the stalled head are held too.
	if r.WaitRecv(0, comm.TagResult, 10*time.Millisecond) {
		t.Fatal("stalled stream should not become receivable")
	}
	// The other stream on the same link still flows.
	if !r.Iprobe(0, comm.TagCancel) {
		t.Fatal("unrelated stream should be deliverable")
	}
	comm.PutBuf(r.Recv(0, comm.TagCancel))
	if p.Stats().Stalled != 1 {
		t.Fatalf("stalled = %d, want 1", p.Stats().Stalled)
	}
}

func TestDelayReleases(t *testing.T) {
	p := &Plan{Rules: []Rule{{Src: -1, Dst: -1, Tag: -1, Kind: Delay, Nth: 1, Delay: 20 * time.Millisecond}}}
	s, r := pair(p)
	send(s, 1, comm.TagResult, 7, 2)
	if r.Iprobe(0, comm.TagResult) {
		t.Fatal("delayed head deliverable too early")
	}
	if !r.WaitRecv(0, comm.TagResult, time.Second) {
		t.Fatal("delayed message never released")
	}
	a := r.Recv(0, comm.TagResult)
	b := r.Recv(0, comm.TagResult)
	if a[1] != 0 || b[1] != 1 {
		t.Fatalf("FIFO violated across delay: %v then %v", a, b)
	}
	comm.PutBuf(a)
	comm.PutBuf(b)
	if p.Stats().Delayed != 1 {
		t.Fatalf("delayed = %d, want 1", p.Stats().Delayed)
	}
}

// TestRuleHits: two delay rules share a link, and only one matches its
// traffic. The link's counters cannot tell them apart; RuleHits can.
func TestRuleHits(t *testing.T) {
	p := &Plan{Rules: []Rule{
		{Src: 0, Dst: 1, Tag: int(comm.TagRun), Kind: Delay, Delay: time.Millisecond},
		{Src: 0, Dst: 1, Tag: int(comm.TagResult), Kind: Delay, Every: 2, Delay: time.Millisecond},
	}}
	s, r := pair(p)
	send(s, 1, comm.TagResult, 7, 4)
	for i := 0; i < 4; i++ {
		if !r.WaitRecv(0, comm.TagResult, time.Second) {
			t.Fatal("delayed message never released")
		}
		comm.PutBuf(r.Recv(0, comm.TagResult))
	}
	if got := p.LinkStats(0, 1).Delayed; got != 2 {
		t.Fatalf("link delayed %d, want 2", got)
	}
	if a, b, c := p.RuleHits(0), p.RuleHits(1), p.RuleHits(2); a != 0 || b != 2 || c != 0 {
		t.Fatalf("rule hits %d, %d, %d (out of range), want 0, 2, 0", a, b, c)
	}
}

func TestWaitRecvTimeout(t *testing.T) {
	_, r := pair(&Plan{})
	start := time.Now()
	if r.WaitRecv(0, comm.TagResult, 10*time.Millisecond) {
		t.Fatal("WaitRecv with no traffic returned true")
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("WaitRecv returned before the deadline")
	}
}

// TestPartitionSim proves the outage window in exact virtual time: a
// message sent during the partition is held until the window closes, and
// the receiver observes it at exactly the window's end.
func TestPartitionSim(t *testing.T) {
	k := simnet.NewKernel()
	link := &simnet.Link{Latency: time.Millisecond, BytesPerSec: 1 << 30}
	cl := simcomm.New(k, 2, func(int) *simnet.Link { return link })

	p := &Plan{Rules: []Rule{{
		Src: 0, Dst: 1, Tag: -1, Kind: Partition,
		From: 0, Until: 50 * time.Millisecond,
	}}}
	var gotAt time.Duration
	k.Spawn("sender", func(proc *simnet.Proc) {
		ep := cl.Bind(0, proc)
		ep.Send(1, comm.TagResult, []byte{1}, 1)
	})
	k.Spawn("receiver", func(proc *simnet.Proc) {
		ep := Wrap(cl.Bind(1, proc), p)
		buf := ep.Recv(0, comm.TagResult)
		comm.PutBuf(buf)
		gotAt = ep.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotAt != 50*time.Millisecond {
		t.Fatalf("partitioned message delivered at %v, want exactly 50ms", gotAt)
	}
	if p.Stats().Partitioned != 1 {
		t.Fatalf("partitioned = %d, want 1", p.Stats().Partitioned)
	}
}
