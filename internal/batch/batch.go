// Package batch is the cross-session batch composer (PR 4): it sits
// between the serving scheduler and the engine head and coalesces several
// sessions' compatible per-session launches — non-speculative decode
// steps, same-depth speculative steps, prefill chunks — into one multi-row
// pipeline run.
//
// PipeInfer keeps the pipeline saturated with asynchronous speculation;
// at high session counts the binding constraint becomes per-run overhead
// (wire header, FIFO record, KV transaction, stage wakeup), paid once per
// session per token when every run carries a single row. Coalescing N
// sessions' single-token steps into one N-row run amortises that overhead
// N-fold while the forward pass itself stays per-row: per-row sequence
// sets keep attention per-session-isolated, so batched output is
// bit-identical to the unbatched schedule.
//
// The Composer stages per-session rows and composes them into one
// engine.RunMsg whose shape follows from its row groups: per-row session
// tags once there are several groups to tell apart, per-row ranges once a
// row carries one (a prefill chunk), each independent of the other. One
// session's decode or speculative rows compose to the plain message, so
// batching changes the wire format only when it actually coalesces. Every
// serving run is built here; a solo run is the one-group case
// (engine.RunMsg.Groups / GroupOf walk either shape's row groups).
//
// Every run, composed or not, is answered in the engine's one result frame
// (engine.ResultFrame). Its rows follow from the run message and the
// session mask the last stage reports (engine.RunMsg.ResultRow), so it
// needs no per-row tags; the scheduler demultiplexes them back to each
// session's state machine group by group.
package batch

import (
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Row is one staged token row: a session's single decode token, one token
// of a prefill chunk, or one token of a session's speculative chain
// segment. A row carries no context: the stages hold its prefix in the KV
// cells its sequence set sees, and every backend's last stage reads it
// from there.
type Row struct {
	Session uint16
	Tok     token.Token
	Pos     int32
	Seqs    kvcache.SeqSet
	// Range, when Len > 0, tags the row with the (position, length)
	// range its chunk covers a prefix of (engine.RunMsg.RowRanges):
	// prefill-chunk rows carry the session's full remaining prefill
	// range, so only the row computing the range's final position
	// samples. Zero Len means an ordinary sampling row; ComposeInto
	// fills its range in as the degenerate (pos, 1) when any staged row
	// is ranged, and emits no ranges at all otherwise — pure decode
	// batches stay byte-identical to the pre-range wire format.
	Range engine.RowRange
}

// Composer accumulates per-session rows between scheduler steps and
// composes them into one run. All storage is reused across batches, so
// steady-state composition allocates nothing.
type Composer struct {
	rows  []Row
	nsess int
}

// Reset discards staged rows (storage retained).
func (c *Composer) Reset() {
	c.rows = c.rows[:0]
	c.nsess = 0
}

// Stage appends one row. One session's rows must be staged contiguously;
// Stage tracks the distinct-session count from the contiguity.
func (c *Composer) Stage(r Row) {
	if n := len(c.rows); n == 0 || c.rows[n-1].Session != r.Session {
		c.nsess++
	}
	c.rows = append(c.rows, r)
}

// ComposeInto writes the staged rows into msg as one run and resets the
// composer. msg's Tokens, RowSessions and RowRanges slices are resized in
// place (pooled messages keep their storage).
//
// A run's shape is its row groups: the message carries per-row session
// tags iff it has more than one group — one session's rows travel
// untagged, Session naming the owner — and per-row ranges iff some row is
// ranged. The two are independent.
func (c *Composer) ComposeInto(msg *engine.RunMsg, kind engine.RunKind) {
	n := len(c.rows)
	if n == 0 {
		panic("batch: composing an empty batch")
	}
	ranged := false
	for i := range c.rows {
		if c.rows[i].Range.Len > 0 {
			ranged = true
			break
		}
	}
	tagged := c.nsess > 1
	if cap(msg.Tokens) < n {
		msg.Tokens = make([]engine.TokenPlace, n)
	}
	msg.Tokens = msg.Tokens[:n]
	msg.RowSessions = msg.RowSessions[:0]
	msg.RowRanges = msg.RowRanges[:0]
	if tagged {
		if cap(msg.RowSessions) < n {
			msg.RowSessions = make([]uint16, n)
		}
		msg.RowSessions = msg.RowSessions[:n]
	}
	if ranged {
		if cap(msg.RowRanges) < n {
			msg.RowRanges = make([]engine.RowRange, n)
		}
		msg.RowRanges = msg.RowRanges[:n]
	}
	msg.Kind = kind
	msg.Session = c.rows[0].Session
	msg.DeadSessions = 0
	for i, r := range c.rows {
		msg.Tokens[i] = engine.TokenPlace{Tok: r.Tok, Pos: r.Pos, Seqs: r.Seqs}
		if tagged {
			msg.RowSessions[i] = r.Session
		}
		if ranged {
			rr := r.Range
			if rr.Len <= 0 {
				rr = engine.RowRange{Pos: r.Pos, Len: 1}
			}
			msg.RowRanges[i] = rr
		}
	}
	c.Reset()
}
