package tensor

import (
	"math"
	"sync"
	"sync/atomic"
)

// Rotary position embeddings with cached trigonometry.
//
// The seed implementation recomputed math.Pow and math.Sincos for every
// (position, frequency) pair on every call — hundreds of transcendental
// evaluations per decode token. Positions and frequency ladders repeat
// across layers, tokens and runs, so the sin/cos values are memoised in a
// process-wide table keyed by (headDim, base), with per-position rows
// extended lazily (geometric growth) as generation reaches new positions.
//
// Values are computed with exactly the same float64 formula as the direct
// evaluation, so cached RoPE is bit-identical to the seed kernel. A
// caller resolves the (headDim, base) table once (RoPEFor: an RLock map
// probe) and rotates through the handle (RoPETable.Rotate: an atomic
// pointer load); the forward pass keeps its handle in its scratch, so
// rank goroutines rotating rows do not share a reader count. No locks are
// held while rotating, and steady-state decode performs no allocation.

type ropeKey struct {
	headDim int
	base    float64
}

// RoPETable is the process-wide rotary table for one (headDim, base):
// per-position (cos, sin) rows, extended lazily and shared by every
// caller that resolves the same key.
type RoPETable struct {
	headDim int
	base    float64
	mu      sync.Mutex                // serialises extensions
	pow     []float64                 // math.Pow(base, i/headDim) per pair index
	rob     atomic.Pointer[[]float64] // pos-major rows: headDim values, (cos, sin) pairs
}

var (
	ropeMu   sync.RWMutex
	ropeTabs = make(map[ropeKey]*RoPETable)
)

// RoPEFor returns the table for (headDim, base), creating it on first
// use. headDim must be even.
func RoPEFor(headDim int, base float64) *RoPETable {
	if headDim%2 != 0 {
		panic("tensor: RoPE requires even head dimension")
	}
	k := ropeKey{headDim, base}
	ropeMu.RLock()
	t := ropeTabs[k]
	ropeMu.RUnlock()
	if t != nil {
		return t
	}
	ropeMu.Lock()
	defer ropeMu.Unlock()
	if t = ropeTabs[k]; t == nil {
		t = &RoPETable{headDim: headDim, base: base, pow: make([]float64, headDim/2)}
		for i := 0; i < headDim; i += 2 {
			t.pow[i/2] = math.Pow(base, float64(i)/float64(headDim))
		}
		ropeTabs[k] = t
	}
	return t
}

// Is reports whether t is the table for (headDim, base).
func (t *RoPETable) Is(headDim int, base float64) bool {
	return t != nil && t.headDim == headDim && t.base == base
}

// row returns the (cos, sin) row for a position, extending the table if
// generation has reached a new position.
func (t *RoPETable) row(pos int) []float64 {
	rows := t.rob.Load()
	if rows == nil || len(*rows) < (pos+1)*t.headDim {
		t.extend(pos)
		rows = t.rob.Load()
	}
	return (*rows)[pos*t.headDim : (pos+1)*t.headDim]
}

// extend grows the row table to cover pos, at least doubling so that a
// token-by-token decode triggers O(log n) extensions over a generation.
func (t *RoPETable) extend(pos int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	headDim := t.headDim
	old := t.rob.Load()
	cur := 0
	if old != nil {
		cur = len(*old) / headDim
	}
	if pos < cur {
		return // another goroutine extended past pos first
	}
	n := 2 * cur
	if n < pos+1 {
		n = pos + 1
	}
	if n < 128 {
		n = 128
	}
	rows := make([]float64, n*headDim)
	if old != nil {
		copy(rows, *old)
	}
	for p := cur; p < n; p++ {
		row := rows[p*headDim : (p+1)*headDim]
		for i := 0; i < headDim; i += 2 {
			theta := float64(p) / t.pow[i/2]
			sin, cos := math.Sincos(theta)
			row[i] = cos
			row[i+1] = sin
		}
	}
	t.rob.Store(&rows)
}

// RoPE applies rotary position embeddings to each head-sized chunk of x,
// for a token at absolute position pos. x is laid out as nHeads
// consecutive chunks of headDim floats.
func RoPE(x Vec, headDim, pos int, base float64) {
	RoPEFor(headDim, base).Rotate(x, pos)
}

// Rotate is RoPE through a resolved table.
func (t *RoPETable) Rotate(x Vec, pos int) {
	headDim := t.headDim
	row := t.row(pos)
	nHeads := len(x) / headDim
	for h := 0; h < nHeads; h++ {
		chunk := x[h*headDim : (h+1)*headDim]
		for i := 0; i < headDim; i += 2 {
			cos, sin := row[i], row[i+1]
			a, b := float64(chunk[i]), float64(chunk[i+1])
			chunk[i] = float32(a*cos - b*sin)
			chunk[i+1] = float32(a*sin + b*cos)
		}
	}
}
