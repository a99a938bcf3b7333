// Package tcpcomm implements comm.Endpoint over TCP, turning the
// in-process pipeline into a genuinely distributed one: each rank is a
// separate process (or goroutine) owning one listener, connected in a full
// mesh. Framing preserves the MPI-like guarantees the engines need —
// per-(src, tag) FIFO order follows from TCP's in-order bytestream plus one
// write lock per peer, and sends are buffered (the kernel's socket buffer
// takes the frame and the sender continues, like MPI_Bsend).
//
// This is the deployment path cmd/pipeinfer-node uses to run PipeInfer
// across real processes; identical deterministic model seeds on every rank
// replace weight distribution.
//
// # Fault tolerance (PR 6)
//
// With Config.Heartbeat set, every link carries periodic heartbeat
// frames and a monitor declares a link dead after DeadAfter of silence;
// with Config.ReconnectTimeout set, a broken link (read/write error or
// heartbeat death) is re-established instead of closing the peer: the
// lower rank of the pair redials with exponential backoff and jitter,
// the higher rank re-accepts on its standing listener. Every frame
// carries a per-link sequence number, so after a reconnection the
// receiver silently drops the one frame the sender may retransmit
// (a write that failed midway can still have been delivered) and counts
// frames lost in flight — the engine-level watchdog and session
// recovery own re-deriving their contents. Reconnects() reports how
// many links were re-established.
//
// # Hand-off
//
// On a healthy link Send writes the frame itself, on the calling
// goroutine, so the bytes are in the peer's socket before Send returns
// and the peer's reader — woken by the netpoller on an idle P — delivers
// them while the sender goes on computing. (Handing the frame to a
// writer goroutine instead leaves that goroutine in the sender's
// run-next slot until the sender blocks or an idle P steals it, about
// 80 µs on the perf-lab host and longer than a stage's step: measured,
// a receiver then never started while its sender still computed, and
// every frame paid a goroutine wake-up before its syscall.) The
// per-peer writer goroutine remains only as the outage path: a failed
// write parks the frame with the writer, which repairs the link and
// drains what queued behind it, so Send never waits for a repair.
//
// Recv parks on the condition variable and must not spin the way
// chancomm's does: the mailbox is fed by a reader goroutine the
// netpoller has to put on a P, and a spinning receiver holds the P it
// needs (measured on decode_tcp: -19 % tok/s, +34 % CPU).
package tcpcomm

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
)

// frame layout: u32 payloadLen | u8 tag | u32 srcRank | u32 seq | payload.
const frameHeader = 4 + 1 + 4 + 4

// heartbeatTag marks keepalive frames; it lives outside the comm.Tag
// space and never reaches the stream queues.
const heartbeatTag = 0xFF

// The hello is each side's first word on every connection, at mesh
// establishment and at reconnection alike: a little-endian u32 carrying
// the sender's rank in the low 16 bits and its comm.WireVersion beside it
// in the high 16. The dialer sends its hello and the accepting side
// answers with its own, whatever the dialer's, so that both sides learn
// the other's version and each refuses a peer of another one. A peer
// from before versions existed — whose hello is its bare rank — reads as
// version 0; one from before hellos were answered refuses a dialer of
// another version by closing the connection, which the dialer reads as a
// refusal too (greet).
const helloSize = 4

func hello(rank int) []byte {
	return binary.LittleEndian.AppendUint32(nil, uint32(comm.WireVersion)<<16|uint32(rank))
}

// readHello reads a dialing peer's hello.
func readHello(conn net.Conn) (rank int, version uint32, err error) {
	var b [helloSize]byte
	if _, err := io.ReadFull(conn, b[:]); err != nil {
		return 0, 0, err
	}
	w := binary.LittleEndian.Uint32(b[:])
	return int(w & 0xffff), w >> 16, nil
}

// refusal is a peer refusing a link for good: redialing cannot change it.
type refusal struct{ error }

// checkVersion refuses, on behalf of rank self, a peer whose hello names
// another wire version.
func checkVersion(self, peer int, version uint32) error {
	if version != comm.WireVersion {
		return fmt.Errorf("tcpcomm: rank %d refuses rank %d: it speaks wire version %d, this build speaks %d",
			self, peer, version, comm.WireVersion)
	}
	return nil
}

// Config describes one rank's view of the cluster.
type Config struct {
	// Rank is this process's rank.
	Rank int
	// Addrs maps rank to listen address (host:port). len(Addrs) is the
	// cluster size.
	Addrs []string
	// DialTimeout bounds the whole mesh-establishment phase.
	DialTimeout time.Duration
	// Heartbeat, when > 0, sends keepalive frames on every link at this
	// interval and arms dead-link detection.
	Heartbeat time.Duration
	// DeadAfter is the silence threshold after which the monitor tears a
	// link down so it reconnects (default 4 x Heartbeat). Only meaningful
	// with Heartbeat set.
	DeadAfter time.Duration
	// ReconnectBackoff is the initial redial backoff (default 50ms); each
	// attempt doubles it up to 2s with +-50% jitter, both for mesh
	// establishment and for reconnection.
	ReconnectBackoff time.Duration
	// ReconnectTimeout bounds re-establishing one broken link. 0 disables
	// reconnection: a broken link marks the peer closed, the pre-PR-6
	// behaviour.
	ReconnectTimeout time.Duration
	// Context, when non-nil, aborts mesh establishment and reconnection
	// waits when cancelled (Ctrl-C during a slow cluster start).
	Context context.Context
}

// Endpoint is a TCP-backed comm.Endpoint.
type Endpoint struct {
	rank  int
	size  int
	epoch time.Time
	cfg   Config

	listener net.Listener
	conns    []net.Conn
	out      []outbound

	mu         sync.Mutex
	cond       *sync.Cond
	box        *comm.Mailbox
	peerClosed []bool // peer's connection gone (EOF or write failure)
	err        error  // protocol-level failure (malformed frame)
	waitTimer  *time.Timer

	// Reconnection state: connMu single-flights repair per peer and
	// guards conns entries; redialed delivers re-accepted connections
	// from the background acceptor; recvSeq numbers received frames per
	// link (guarded by mu); lastRecv feeds the heartbeat monitor's
	// dead-link detection.
	connMu     []sync.Mutex
	redialed   []chan net.Conn
	recvSeq    []uint32
	lastRecv   []atomic.Int64
	reconnects atomic.Int64
	lost       atomic.Int64
	dups       atomic.Int64

	closed  chan struct{}
	writers sync.WaitGroup
}

// Reconnects reports how many broken links were re-established.
func (e *Endpoint) Reconnects() int { return int(e.reconnects.Load()) }

// FramesLost reports frames the per-link sequence numbers proved lost in
// flight across link failures.
func (e *Endpoint) FramesLost() int { return int(e.lost.Load()) }

// outbound is the write side of one link. mu serialises everything that
// puts bytes on the wire — sequence stamping and the write itself — so
// frames leave in the order their Sends took the lock.
//
// A link is either healthy (down == false: whoever holds mu writes to
// conn directly) or in an outage (down == true: the writer goroutine
// alone writes, without holding mu across the write or the repair, and
// every new frame queues behind it). down is cleared only by the writer,
// under mu, once retry and queue are both empty — so a frame it has
// dequeued but not yet written still counts as queued, and no direct
// write can overtake it.
type outbound struct {
	mu   sync.Mutex
	conn net.Conn // the write side's view of the link; e.conns is the repair side's
	seq  uint32   // next link sequence number
	down bool
	dead bool // peer gone for good: frames are dropped
	// retry is the frame whose write failed, already stamped: it goes
	// out again under the same number so the receiver can drop it if the
	// failed write had in fact arrived.
	retry []byte
	queue comm.Ring     // unstamped frames sent during the outage
	wake  chan struct{} // cap 1: tells the writer the link went down
}

// stamp gives frame the link's next sequence number. Stamping happens
// under the write lock, immediately before the frame's first write, so
// heartbeats and data frames share one monotone numbering in wire order.
func (o *outbound) stamp(frame []byte) {
	binary.LittleEndian.PutUint32(frame[9:13], o.seq)
	o.seq++
}

// drop marks the peer gone for good and releases every frame still held
// for it. The caller holds o.mu.
func (o *outbound) drop() {
	o.dead = true
	comm.PutBuf(o.retry)
	o.retry = nil
	for o.queue.Len() > 0 {
		comm.PutBuf(o.queue.Pop())
	}
}

// Dial establishes the mesh: rank i accepts connections from ranks < i and
// dials ranks > i, so every pair connects exactly once.
func Dial(cfg Config) (*Endpoint, error) {
	n := len(cfg.Addrs)
	if cfg.Rank < 0 || cfg.Rank >= n || n > 1<<16 {
		return nil, fmt.Errorf("tcpcomm: rank %d outside cluster of %d (at most 65536 ranks)", cfg.Rank, n)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 30 * time.Second
	}
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = 50 * time.Millisecond
	}
	if cfg.Heartbeat > 0 && cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 4 * cfg.Heartbeat
	}
	if cfg.Context == nil {
		cfg.Context = context.Background()
	}
	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Rank])
	if err != nil {
		return nil, fmt.Errorf("tcpcomm: listen %s: %w", cfg.Addrs[cfg.Rank], err)
	}
	e := &Endpoint{
		rank: cfg.Rank, size: n, epoch: time.Now(), cfg: cfg,
		listener:   ln,
		conns:      make([]net.Conn, n),
		out:        make([]outbound, n),
		box:        comm.NewMailbox(n),
		peerClosed: make([]bool, n),
		connMu:     make([]sync.Mutex, n),
		redialed:   make([]chan net.Conn, n),
		recvSeq:    make([]uint32, n),
		lastRecv:   make([]atomic.Int64, n),
		closed:     make(chan struct{}),
	}
	for i := range e.redialed {
		e.redialed[i] = make(chan net.Conn, 1)
	}
	e.cond = sync.NewCond(&e.mu)

	deadline := time.Now().Add(cfg.DialTimeout)

	// Accept from lower ranks.
	acceptErr := make(chan error, 1)
	go func() {
		for i := 0; i < cfg.Rank; i++ {
			conn, err := ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			src, version, err := readHello(conn)
			if err == nil {
				_, err = conn.Write(hello(cfg.Rank))
			}
			if err == nil && src >= cfg.Rank {
				err = fmt.Errorf("tcpcomm: bad hello rank %d", src)
			}
			if err == nil {
				err = checkVersion(cfg.Rank, src, version)
			}
			if err != nil {
				conn.Close()
				acceptErr <- err
				return
			}
			e.conns[src] = conn
		}
		acceptErr <- nil
	}()

	// Dial higher ranks (with retry: peers may not be listening yet).
	// Exponential backoff with jitter keeps a large cluster's redial
	// storm spread out, and the context lets Ctrl-C abort a stuck mesh
	// establishment instead of sleeping out the full DialTimeout.
	for peer := cfg.Rank + 1; peer < n; peer++ {
		conn, err := e.dialPeer(peer, deadline)
		if err != nil {
			e.Close()
			return nil, err
		}
		e.conns[peer] = conn
	}
	if cfg.Rank > 0 {
		if err := <-acceptErr; err != nil {
			e.Close()
			return nil, fmt.Errorf("tcpcomm: accept: %w", err)
		}
	}

	// Per-peer reader and writer goroutines.
	now := time.Now().UnixNano()
	for peer, conn := range e.conns {
		if conn == nil {
			continue
		}
		e.lastRecv[peer].Store(now)
		e.out[peer].conn = conn
		e.out[peer].wake = make(chan struct{}, 1)
		e.writers.Add(1)
		go e.writeLoop(peer)
		go e.readLoop(peer, conn)
	}
	if cfg.ReconnectTimeout > 0 {
		go e.acceptLoop()
	}
	if cfg.Heartbeat > 0 {
		go e.heartbeatLoop()
	}
	return e, nil
}

// dialPeer dials one peer with exponential backoff and jitter until the
// deadline, honouring context cancellation and endpoint shutdown.
func (e *Endpoint) dialPeer(peer int, deadline time.Time) (net.Conn, error) {
	backoff := e.cfg.ReconnectBackoff
	for {
		conn, err := net.DialTimeout("tcp", e.cfg.Addrs[peer], time.Second)
		if err == nil {
			if err = e.greet(conn, peer, deadline); err == nil {
				return conn, nil
			}
			conn.Close()
			if errors.As(err, new(refusal)) {
				return nil, err
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("tcpcomm: dial rank %d (%s): %w", peer, e.cfg.Addrs[peer], err)
		}
		jittered := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		select {
		case <-time.After(jittered):
		case <-e.cfg.Context.Done():
			return nil, fmt.Errorf("tcpcomm: dial rank %d: %w", peer, e.cfg.Context.Err())
		case <-e.closed:
			return nil, fmt.Errorf("tcpcomm: dial rank %d: endpoint closed", peer)
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// greet sends this rank's hello on a fresh connection to peer and reads
// the answer: the link is up only once peer has answered with its own
// hello, as rank peer and in this build's wire version. A peer of another
// version, or one that closes the connection in place of an answer (a
// build from before hellos were answered refusing this one's version),
// refuses the link for good.
func (e *Endpoint) greet(conn net.Conn, peer int, deadline time.Time) error {
	if _, err := conn.Write(hello(e.rank)); err != nil {
		return err
	}
	conn.SetReadDeadline(deadline)
	defer conn.SetReadDeadline(time.Time{})
	src, version, err := readHello(conn)
	switch {
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return refusal{fmt.Errorf("tcpcomm: rank %d closed the connection on rank %d's hello: it refuses this build's wire version %d", peer, e.rank, comm.WireVersion)}
	case err != nil:
		return err
	case src != peer:
		return refusal{fmt.Errorf("tcpcomm: rank %d answered as rank %d", peer, src)}
	}
	if err := checkVersion(e.rank, peer, version); err != nil {
		return refusal{err}
	}
	return nil
}

// acceptLoop re-accepts reconnections for the endpoint's lifetime: a
// dialing peer's hello identifies which broken link the fresh connection
// repairs, and reconnect() on that link picks it up. A cluster rank that
// comes back speaking another wire version can never repair its link, so
// refusing it fails the endpoint with the error naming both versions.
func (e *Endpoint) acceptLoop() {
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed with the endpoint
		}
		go func(conn net.Conn) {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			src, version, err := readHello(conn)
			if err == nil {
				_, err = conn.Write(hello(e.rank))
			}
			if err != nil || src >= e.size || src == e.rank {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			if err := checkVersion(e.rank, src, version); err != nil {
				conn.Close()
				e.fail(err)
				return
			}
			select {
			case e.redialed[src] <- conn:
			default:
				conn.Close() // a newer reconnection already waits
			}
		}(conn)
	}
}

// heartbeatLoop keeps every link warm and tears down silent ones so the
// reconnect machinery (or, without it, peer-closed detection) kicks in
// long before TCP's own timeouts would.
func (e *Endpoint) heartbeatLoop() {
	t := time.NewTicker(e.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-e.closed:
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-e.cfg.DeadAfter).UnixNano()
		for peer := 0; peer < e.size; peer++ {
			if peer == e.rank {
				continue
			}
			// TryLock, not Lock: a held write lock means a frame is going
			// out right now, which keeps the link warm by itself — and a
			// write stuck on a hung peer must not stop this loop from
			// reaching the dead-link check that unsticks it.
			if o := &e.out[peer]; o.mu.TryLock() {
				if !o.down && !o.dead {
					frame := comm.GetBuf(frameHeader)[:frameHeader]
					binary.LittleEndian.PutUint32(frame[0:4], 0)
					frame[4] = heartbeatTag
					binary.LittleEndian.PutUint32(frame[5:9], uint32(e.rank))
					e.post(o, frame)
				}
				o.mu.Unlock()
			}
			if e.lastRecv[peer].Load() < cutoff && !e.isPeerClosed(peer) {
				// Silent past the threshold: close the conn so both loops
				// fail fast into reconnection.
				e.connMu[peer].Lock()
				if c := e.conns[peer]; c != nil {
					c.Close()
				}
				e.connMu[peer].Unlock()
			}
		}
	}
}

func (e *Endpoint) isPeerClosed(peer int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.peerClosed[peer]
}

// reconnect re-establishes a broken link, single-flighted per peer: the
// caller passes the conn it saw fail, and whichever of the read/write
// loops gets here first repairs the link (the original dialer redials
// with backoff, the original acceptor waits for the redial to land on
// its listener) and starts a fresh reader. Returns the live conn, or nil
// when reconnection is disabled, timed out, or the endpoint is closing.
func (e *Endpoint) reconnect(peer int, failed net.Conn) net.Conn {
	if e.cfg.ReconnectTimeout <= 0 {
		return nil
	}
	e.connMu[peer].Lock()
	defer e.connMu[peer].Unlock()
	if e.conns[peer] != failed {
		return e.conns[peer] // the other loop already repaired the link
	}
	select {
	case <-e.closed:
		return nil
	default:
	}
	failed.Close()
	e.conns[peer] = nil
	deadline := time.Now().Add(e.cfg.ReconnectTimeout)
	var conn net.Conn
	if e.rank < peer {
		c, err := e.dialPeer(peer, deadline)
		if err != nil {
			if errors.As(err, new(refusal)) {
				e.fail(err)
			}
			return nil
		}
		conn = c
	} else {
		select {
		case conn = <-e.redialed[peer]:
		case <-time.After(e.cfg.ReconnectTimeout):
			return nil
		case <-e.cfg.Context.Done():
			return nil
		case <-e.closed:
			return nil
		}
	}
	e.conns[peer] = conn
	e.lastRecv[peer].Store(time.Now().UnixNano())
	e.reconnects.Add(1)
	go e.readLoop(peer, conn)
	return conn
}

// post puts one frame on the link in send order; the caller holds o.mu
// and gives up the frame. On a healthy, idle link that is a stamped
// write on the calling goroutine; a failed write starts an outage and
// leaves the frame with the writer goroutine.
func (e *Endpoint) post(o *outbound, frame []byte) {
	switch {
	case o.dead:
		// The peer is genuinely gone (or the endpoint closed): traffic
		// to it is dropped, like sending to a process that already
		// exited its MPI epilogue.
		comm.PutBuf(frame)
	case o.down:
		o.queue.Push(frame)
	default:
		o.stamp(frame)
		if _, err := o.conn.Write(frame); err == nil {
			comm.PutBuf(frame)
			return
		}
		o.down, o.retry = true, frame
		select {
		case o.wake <- struct{}{}:
		default: // already signalled
		}
	}
}

// writeLoop is the outage path of one link: woken when a direct write
// fails, it repairs the link and writes out what queued meanwhile.
func (e *Endpoint) writeLoop(peer int) {
	defer e.writers.Done()
	for {
		select {
		case <-e.out[peer].wake:
			if !e.drainOutage(peer) {
				return
			}
		case <-e.closed:
			// Drain anything already queued so shutdown transactions land.
			e.drainOutage(peer)
			return
		}
	}
}

// drainOutage writes the retry frame and the outage queue in order,
// reconnecting as needed, and returns the link to direct writes once
// both are empty. It reports false when the peer is gone for good.
func (e *Endpoint) drainOutage(peer int) bool {
	o := &e.out[peer]
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.down {
		frame := o.retry
		o.retry = nil
		if frame == nil {
			if o.queue.Len() == 0 {
				o.down = false
				break
			}
			frame = o.queue.Pop()
			o.stamp(frame)
		}
		// down keeps every other sender off the wire, so the write and
		// any repair run without the lock and Send never waits for them.
		conn := o.conn
		o.mu.Unlock()
		var err error
		for {
			if _, err = conn.Write(frame); err == nil {
				break
			}
			// Retrying the same frame (same seq) on the repaired link is
			// safe: if the failed write had in fact been delivered, the
			// receiver's seq dedup drops the duplicate.
			if conn = e.reconnect(peer, conn); conn == nil {
				break
			}
		}
		comm.PutBuf(frame)
		o.mu.Lock()
		if err != nil {
			o.drop()
			e.markPeerClosed(peer)
			return false
		}
		o.conn = conn
	}
	return true
}

func (e *Endpoint) readLoop(peer int, conn net.Conn) {
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			// EOF or reset. With reconnection armed the link is repaired
			// (the fresh conn gets its own reader); otherwise only this
			// peer is gone — messages already queued from it remain
			// receivable, blocking receives on it error instead of
			// hanging.
			if e.reconnect(peer, conn) == nil {
				e.markPeerClosed(peer)
			}
			return
		}
		ln := binary.LittleEndian.Uint32(hdr[0:4])
		tag := comm.Tag(hdr[4])
		src := int(binary.LittleEndian.Uint32(hdr[5:9]))
		seq := binary.LittleEndian.Uint32(hdr[9:13])
		hb := hdr[4] == heartbeatTag
		if src != peer || (!hb && int(tag) >= int(comm.NumTags)) {
			e.fail(fmt.Errorf("tcpcomm: malformed frame from rank %d (src=%d tag=%d)", peer, src, tag))
			return
		}
		e.lastRecv[peer].Store(time.Now().UnixNano())
		payload := comm.GetBuf(int(ln))[:ln]
		if _, err := io.ReadFull(conn, payload); err != nil {
			comm.PutBuf(payload)
			if e.reconnect(peer, conn) == nil {
				e.markPeerClosed(peer)
			}
			return
		}
		e.mu.Lock()
		// Link seq accounting (under mu: a stale reader can overlap the
		// repaired link's reader for an instant): duplicates — the one
		// frame the writer may retransmit after a mid-write failure —
		// are dropped, gaps count the frames the dead link swallowed.
		dup := false
		if want := e.recvSeq[peer]; seq == want {
			e.recvSeq[peer] = seq + 1
		} else if int32(seq-want) < 0 {
			dup = true
		} else {
			e.lost.Add(int64(seq - want))
			e.recvSeq[peer] = seq + 1
		}
		if dup || hb {
			e.mu.Unlock()
			if dup {
				e.dups.Add(1)
			}
			comm.PutBuf(payload)
			continue
		}
		e.box.Stream(src, tag).Push(payload)
		e.mu.Unlock()
		e.cond.Broadcast()
	}
}

func (e *Endpoint) markPeerClosed(peer int) {
	e.mu.Lock()
	e.peerClosed[peer] = true
	e.mu.Unlock()
	e.cond.Broadcast()
}

func (e *Endpoint) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	e.cond.Broadcast()
}

// Err returns the first transport error observed, if any.
func (e *Endpoint) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Rank implements comm.Endpoint.
func (e *Endpoint) Rank() int { return e.rank }

// Size implements comm.Endpoint.
func (e *Endpoint) Size() int { return e.size }

// Send implements comm.Endpoint: frames the payload and, on a healthy
// link with nothing queued, writes it before returning; during an outage
// the frame queues for the writer goroutine instead, so Send never waits
// for a link repair.
func (e *Endpoint) Send(dst int, tag comm.Tag, payload []byte, _ int) {
	if dst == e.rank {
		panic("tcpcomm: send to self")
	}
	frame := comm.GetBuf(frameHeader + len(payload))[:frameHeader+len(payload)]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	frame[4] = byte(tag)
	binary.LittleEndian.PutUint32(frame[5:9], uint32(e.rank))
	copy(frame[frameHeader:], payload)
	o := &e.out[dst]
	o.mu.Lock()
	e.post(o, frame)
	o.mu.Unlock()
}

// Recv implements comm.Endpoint. Waiting on a peer whose connection has
// closed (with no queued messages left) is unrecoverable for the engine
// protocol and panics with a descriptive error.
func (e *Endpoint) Recv(src int, tag comm.Tag) []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	q := e.box.Stream(src, tag)
	for q.Len() == 0 {
		if e.err != nil {
			panic(e.err)
		}
		if e.peerClosed[src] {
			panic(fmt.Sprintf("tcpcomm: rank %d closed while rank %d awaited tag %v", src, e.rank, tag))
		}
		e.cond.Wait()
	}
	return q.Pop()
}

// WaitRecv implements comm.Waiter: wait up to d for a message on (src,
// tag). A closed peer or transport error returns false immediately —
// no message is coming, and the caller's watchdog should treat the wait
// as expired rather than block forever.
func (e *Endpoint) WaitRecv(src int, tag comm.Tag, d time.Duration) bool {
	deadline := time.Now().Add(d)
	e.mu.Lock()
	defer e.mu.Unlock()
	q := e.box.Stream(src, tag)
	for q.Len() == 0 {
		if e.err != nil || e.peerClosed[src] {
			return false
		}
		rem := time.Until(deadline)
		if rem <= 0 {
			return false
		}
		if e.waitTimer == nil {
			e.waitTimer = time.AfterFunc(rem, func() {
				e.mu.Lock()
				e.cond.Broadcast()
				e.mu.Unlock()
			})
		} else {
			e.waitTimer.Reset(rem)
		}
		e.cond.Wait()
		e.waitTimer.Stop()
	}
	return true
}

// Iprobe implements comm.Endpoint.
func (e *Endpoint) Iprobe(src int, tag comm.Tag) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.box.Stream(src, tag).Len() > 0
}

// Now implements comm.Endpoint.
func (e *Endpoint) Now() time.Duration { return time.Since(e.epoch) }

// Elapse implements comm.Endpoint (no-op: real time passes by itself).
func (e *Endpoint) Elapse(time.Duration) {}

// Close tears the mesh down, flushing queued outbound frames first.
func (e *Endpoint) Close() error {
	select {
	case <-e.closed:
		return nil
	default:
		close(e.closed)
	}
	e.writers.Wait()
	for i := range e.conns {
		e.connMu[i].Lock()
		if c := e.conns[i]; c != nil {
			c.Close()
		}
		e.connMu[i].Unlock()
		// With the conn closed no write can be stuck holding the lock.
		// From here Send releases its frame instead of writing it.
		o := &e.out[i]
		o.mu.Lock()
		o.drop()
		o.mu.Unlock()
	}
	if e.listener != nil {
		e.listener.Close()
	}
	return nil
}

// FreeAddrs reserves n distinct loopback addresses for tests and
// single-host deployments by briefly listening on port 0.
func FreeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs, nil
}

// DialLoopback brings up an n-rank mesh on loopback inside one process,
// for tests and single-host runs: cfg is the template every rank dials
// with (Rank and Addrs are filled in here). It returns once every pair
// is connected; on failure whatever did connect is closed again.
func DialLoopback(n int, cfg Config) ([]*Endpoint, error) {
	addrs, err := FreeAddrs(n)
	if err != nil {
		return nil, err
	}
	eps := make([]*Endpoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.Rank, c.Addrs = r, addrs
			eps[r], errs[r] = Dial(c)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
		return nil, err
	}
	return eps, nil
}
