package comm

// Ring is a FIFO of message buffers on a circular array that doubles when
// full and never sheds capacity: once it has grown to a stream's
// high-water mark, Push and Pop allocate nothing. (Popping with
// q = q[1:] gives the slot away, so the next append reallocates — one
// allocation per message in steady state.) The zero value is an empty
// ring. Not safe for concurrent use; the owner locks around it.
type Ring struct {
	buf  [][]byte // len(buf) is zero or a power of two
	head int      // index of the oldest message
	n    int      // messages queued
}

// Len reports how many messages are queued.
func (r *Ring) Len() int { return r.n }

// Push appends b.
func (r *Ring) Push(b []byte) {
	if r.n == len(r.buf) {
		grown := make([][]byte, max(4, 2*len(r.buf)))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = b
	r.n++
}

// Pop removes and returns the oldest message; it panics on an empty ring.
func (r *Ring) Pop() []byte {
	if r.n == 0 {
		panic("comm: Pop on an empty Ring")
	}
	b := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return b
}

// Mailbox holds one rank's received messages, one Ring per (src, tag)
// stream, so per-stream FIFO order is the Ring's. Both real transports
// deliver into one; each guards it with its own lock.
type Mailbox struct {
	streams []Ring // indexed src*NumTags + tag
}

// NewMailbox returns an empty mailbox for a cluster of size ranks.
func NewMailbox(size int) *Mailbox {
	return &Mailbox{streams: make([]Ring, size*int(NumTags))}
}

// Stream returns the queue of messages from src with the given tag.
func (m *Mailbox) Stream(src int, tag Tag) *Ring {
	if tag >= NumTags {
		panic("comm: tag outside the tag space")
	}
	return &m.streams[src*int(NumTags)+int(tag)]
}
