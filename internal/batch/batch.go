// Package batch is the cross-session batch composer (PR 4): it sits
// between the serving scheduler and the engine head and coalesces several
// sessions' compatible per-session launches — non-speculative decode
// steps, and same-depth speculative steps — into one multi-row pipeline
// run, then demultiplexes the per-row results and acceptances back to
// each session's state machine.
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
// # Pieces
//
//   - Composer: stages per-session rows and composes them into one
//     engine.RunMsg — wire format v3, with per-row (session, seq-set,
//     position) tags, once there is something to tag: one session's
//     unranged rows compose to the plain untagged message, so batching
//     never changes the wire format until it actually coalesces. Every
//     serving run is built here; a solo run is the one-group case.
//     (engine.RunMsg.Groups / GroupOf walk either shape's row groups.)
//   - The multi-session result frame (AppendResultHeader /
//     DecodeResult): because stages may surgically mask cancelled
//     sessions' rows out of an in-flight batch, the last stage's result
//     payload is self-describing — it tags every surviving row with its
//     original row index and session before the per-row payload. The
//     codec is fuzz-covered (FuzzDecodeBatchResult) and allocation-free
//     on the decode path given caller scratch.
package batch

import (
	"fmt"

	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Row is one staged token row: a session's single decode token, or one
// token of a session's speculative chain segment.
type Row struct {
	Session uint16
	Tok     token.Token
	Pos     int32
	Seqs    kvcache.SeqSet
	// Ctx is the row's session context for context-carrying backends
	// (nil otherwise). Rows of one session share the same slice.
	Ctx []token.Token
	// Range, when Len > 0, tags the row with the (position, length)
	// range its chunk covers a prefix of (the v3 range extension, PR 5):
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

// Sessions reports the number of distinct sessions staged.
func (c *Composer) Sessions() int { return c.nsess }

// Rows reports the number of rows staged.
func (c *Composer) Rows() int { return len(c.rows) }

// ComposeInto writes the staged rows into msg as one run and resets the
// composer. msg's Tokens, RowSessions and RowRanges slices are resized in
// place (pooled messages keep their storage).
//
// One session's unranged group composes to the plain untagged message —
// Session names the owner, no per-row tags — which stages evaluate on
// their plain path and answer with the plain result frame. Anything else
// (several sessions, or any ranged row: ranges describe row groups and
// travel only with tags) is a wire-format-v3 tagged run.
//
// When needCtx is set, each row's context is appended to ctxs (which the
// caller pools alongside the run record) and the extended slice is
// returned; otherwise ctxs is returned untouched.
func (c *Composer) ComposeInto(msg *engine.RunMsg, kind engine.RunKind, ctxs [][]token.Token, needCtx bool) [][]token.Token {
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
	tagged := ranged || c.nsess > 1
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
		if needCtx {
			ctxs = append(ctxs, r.Ctx)
		}
	}
	c.Reset()
	return ctxs
}

// --- multi-session result frame ---
//
// Frame layout (little endian):
//
//	u16 total  — rows in the original run message
//	u16 live   — surviving rows in this frame
//	live × { u16 row, u16 session }   — row strictly increasing, < total
//	payload    — live × per-row result bytes (backend-defined; may be 0)

// HeaderSize returns the frame header size for live surviving rows.
func HeaderSize(live int) int { return 4 + 4*live }

// AppendResultHeader appends a batched-result frame header to dst: the
// original run's row count, then one (original row index, session) tag
// per surviving row. The caller appends the per-row payload afterwards.
// rows must be strictly increasing original indices below total.
func AppendResultHeader(dst []byte, total int, rows, sessions []uint16) []byte {
	if len(rows) != len(sessions) {
		panic(fmt.Sprintf("batch: %d row tags, %d session tags", len(rows), len(sessions)))
	}
	dst = append(dst, byte(total), byte(total>>8))
	dst = append(dst, byte(len(rows)), byte(len(rows)>>8))
	for i, r := range rows {
		dst = append(dst, byte(r), byte(r>>8))
		dst = append(dst, byte(sessions[i]), byte(sessions[i]>>8))
	}
	return dst
}

// DecodeResult parses a batched-result frame, appending the surviving
// rows' original indices and sessions into the caller-provided scratch
// slices (typically scratch[:0] — the allocation-free decode the serving
// hot path uses). payload aliases buf; it holds the surviving rows'
// result bytes. A malformed frame yields an error, never a panic.
func DecodeResult(buf []byte, rowsDst, sessDst []uint16) (total int, rows, sessions []uint16, payload []byte, err error) {
	if len(buf) < 4 {
		return 0, nil, nil, nil, fmt.Errorf("batch: result frame too short (%d bytes)", len(buf))
	}
	total = int(buf[0]) | int(buf[1])<<8
	live := int(buf[2]) | int(buf[3])<<8
	if live > total {
		return 0, nil, nil, nil, fmt.Errorf("batch: result frame lists %d live rows of %d total", live, total)
	}
	if len(buf) < HeaderSize(live) {
		return 0, nil, nil, nil, fmt.Errorf("batch: result frame truncated: %d live rows need %d bytes, have %d",
			live, HeaderSize(live), len(buf))
	}
	rows, sessions = rowsDst, sessDst
	off := 4
	prev := -1
	for i := 0; i < live; i++ {
		r := int(buf[off]) | int(buf[off+1])<<8
		s := uint16(buf[off+2]) | uint16(buf[off+3])<<8
		if r <= prev || r >= total {
			return 0, nil, nil, nil, fmt.Errorf("batch: result frame row %d out of order or range (prev %d, total %d)",
				r, prev, total)
		}
		if s >= kvcache.MaxSeqs {
			return 0, nil, nil, nil, fmt.Errorf("batch: result frame session %d out of range", s)
		}
		prev = r
		rows = append(rows, uint16(r))
		sessions = append(sessions, s)
		off += 4
	}
	return total, rows, sessions, buf[off:], nil
}
