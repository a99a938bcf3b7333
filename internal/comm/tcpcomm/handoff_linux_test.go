package tcpcomm

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
)

// TestSendReachesPeerWhileSenderRuns pins the hand-off contract: on a
// healthy link the frame is in the peer's socket when Send returns, so
// the peer can start on it while the sender computes on. The sender here
// does the strongest form of "keeps running": one P, and after Send it
// never blocks, yields or lives long enough to be preempted — nothing
// else in the process can run — while it polls the peer's end of the
// connection with raw non-blocking reads. Queue the frame for another
// goroutine to write and it cannot arrive before the sender stops.
//
// (The softer form — two Ps, a parked Recv on the peer, the sender busy
// for 20 ms — does not tell the two designs apart: an idle P steals a
// queued writer goroutine exactly as it picks up a netpoller-readied
// reader, measured 3.4 ms vs 3.0 ms median on the perf-lab host. What
// differs under load is which of the two needs an idle P at all.)
func TestSendReachesPeerWhileSenderRuns(t *testing.T) {
	addrs, err := FreeAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	// The test is rank 1, by hand: accept rank 0's dial, read its hello.
	ln, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	ep, err := Dial(Config{Rank: 0, Addrs: addrs, DialTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	peer, ok := <-accepted
	if !ok {
		t.Fatal("rank 0 never dialled")
	}
	defer peer.Close()
	var hello [4]byte
	if _, err := io.ReadFull(peer, hello[:]); err != nil {
		t.Fatal(err)
	}
	raw, err := peer.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	payload := []byte("already there")
	got := make([]byte, 0, frameHeader+len(payload))
	runtime.Gosched() // start the run below on a fresh scheduling quantum

	ep.Send(1, comm.TagActivation, payload, 0)
	// Well inside the 10 ms preemption quantum. Loopback delivers during
	// the write syscall, so in practice the first read has the frame.
	for stop := time.Now().Add(4 * time.Millisecond); len(got) < cap(got) && time.Now().Before(stop); {
		// The callback returns true ("done") even on EAGAIN, so
		// raw.Read never parks this goroutine on the netpoller.
		if err := raw.Read(func(fd uintptr) bool {
			if n, _ := syscall.Read(int(fd), got[len(got):cap(got)]); n > 0 {
				got = got[:len(got)+n]
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}

	if len(got) < cap(got) {
		t.Fatalf("%d of %d frame bytes were in the peer's socket while the sender kept the processor: Send left the write to someone else", len(got), cap(got))
	}
	if n := binary.LittleEndian.Uint32(got[0:4]); int(n) != len(payload) || comm.Tag(got[4]) != comm.TagActivation || !bytes.Equal(got[frameHeader:], payload) {
		t.Fatalf("peer read a different frame: % x", got)
	}
}
