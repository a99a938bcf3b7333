package tensor

import (
	"math"
	"sync"
	"testing"
)

// TestRoPECachedMatchesDirect verifies the memoised trig table is
// bit-identical to direct evaluation of the seed formula.
func TestRoPECachedMatchesDirect(t *testing.T) {
	const headDim = 16
	const base = 10000.0
	rng := NewRNG(3)
	for _, pos := range []int{0, 1, 5, 127, 128, 129, 500, 2000} {
		x := make(Vec, 64)
		rng.FillNormal(x, 1)
		y := make(Vec, 64)
		copy(y, x)

		RoPE(x, headDim, pos, base)

		// Direct evaluation, exactly the seed arithmetic.
		nHeads := len(y) / headDim
		for h := 0; h < nHeads; h++ {
			chunk := y[h*headDim : (h+1)*headDim]
			for i := 0; i < headDim; i += 2 {
				theta := float64(pos) / math.Pow(base, float64(i)/float64(headDim))
				sin, cos := math.Sincos(theta)
				a, b := float64(chunk[i]), float64(chunk[i+1])
				chunk[i] = float32(a*cos - b*sin)
				chunk[i+1] = float32(a*sin + b*cos)
			}
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("pos=%d elem %d: cached %v != direct %v", pos, i, x[i], y[i])
			}
		}
	}
}

// TestRoPETableConcurrent hammers the lazily-extended table from many
// goroutines to shake out races in the grow path (run with -race).
func TestRoPETableConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := make(Vec, 32)
			for i := range x {
				x[i] = float32(i)
			}
			for pos := g * 37; pos < g*37+200; pos++ {
				RoPE(x, 8, pos, 500000) // distinct base from other tests
			}
		}(g)
	}
	wg.Wait()
}

// TestTopKIntoMatchesReference compares the insertion selection against
// the seed's repeated-scan selection, including duplicate values whose
// tie-break order is part of the contract.
func TestTopKIntoMatchesReference(t *testing.T) {
	refTopK := func(x Vec, k int) []int {
		if k > len(x) {
			k = len(x)
		}
		idx := make([]int, 0, k)
		used := make(map[int]bool, k)
		for n := 0; n < k; n++ {
			best := float32(math.Inf(-1))
			bi := -1
			for i, v := range x {
				if !used[i] && (v > best || bi == -1) {
					best, bi = v, i
				}
			}
			used[bi] = true
			idx = append(idx, bi)
		}
		return idx
	}

	rng := NewRNG(5)
	for trial := 0; trial < 200; trial++ {
		n := 1 + int(rng.Uint64()%40)
		x := make(Vec, n)
		for i := range x {
			// Coarse quantisation forces plenty of duplicates.
			x[i] = float32(int(rng.Uint64()%7)) / 2
		}
		k := int(rng.Uint64() % uint64(n+3))
		want := refTopK(x, k)
		got := TopKInto(nil, x, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d != %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (x=%v k=%d): got %v want %v", trial, x, k, got, want)
			}
		}
	}
}

// TestTopKIntoReusesBuffer checks the scratch-slice contract.
func TestTopKIntoReusesBuffer(t *testing.T) {
	x := Vec{1, 5, 3, 4}
	buf := make([]int, 0, 8)
	got := TopKInto(buf, x, 2)
	if &got[0] != &buf[:1][0] {
		t.Fatal("TopKInto should reuse the provided backing array")
	}
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("TopKInto = %v, want [1 3]", got)
	}
}

// TestParallelRangeCoverage verifies every index is visited exactly once
// for a spread of sizes and parallelism settings, exercising the
// persistent pool.
func TestParallelRangeCoverage(t *testing.T) {
	for _, par := range []int{1, 2, 4, 16} {
		prev := SetParallelism(par)
		for _, n := range []int{0, 1, 63, 64, 127, 128, 129, 1000} {
			var mu sync.Mutex
			seen := make([]int, n)
			ParallelRange(n, func(lo, hi int) {
				mu.Lock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("par=%d n=%d: index %d visited %d times", par, n, i, c)
				}
			}
		}
		SetParallelism(prev)
	}
}

// TestParallelRangeConcurrentCallers models several pipeline ranks issuing
// kernels at once over the shared pool.
func TestParallelRangeConcurrentCallers(t *testing.T) {
	prev := SetParallelism(4)
	defer SetParallelism(prev)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make(Vec, 256)
			m := NewMat(256, 64)
			x := make(Vec, 64)
			for i := range m.Data {
				m.Data[i] = 1
			}
			for i := range x {
				x[i] = 1
			}
			for iter := 0; iter < 50; iter++ {
				MatVec(dst, m, x)
				for i, v := range dst {
					if v != 64 {
						t.Errorf("row %d = %v, want 64", i, v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
