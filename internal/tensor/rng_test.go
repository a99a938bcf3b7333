package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGSkipEqualsDraws(t *testing.T) {
	prop := func(seed uint64, n uint16) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < int(n); i++ {
			a.Uint64()
		}
		b.Skip(uint64(n))
		return a.Uint64() == b.Uint64()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixUnmixInverse(t *testing.T) {
	prop := func(z uint64) bool { return unmix(mix(z)) == z && mix(unmix(z)) == z }
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if g := uint64(gamma); g*gammaInv != 1 {
		t.Fatal("gammaInv is not gamma's inverse")
	}
}

// normsFrom checks that At(i) continues the sequential stream: the next
// few variates from the positioned generator equal want[i:].
func normsFrom(t *testing.T, what string, s NormStream, want []float32, i int) {
	t.Helper()
	rng := s.At(uint64(i))
	for k := i; k < min(i+4, len(want)); k++ {
		if got := rng.Norm(); math.Float32bits(got) != math.Float32bits(want[k]) {
			t.Fatalf("%s: variate %d reached through At(%d) = %v, sequential stream has %v", what, k, i, got, want[k])
		}
	}
}

func TestNormStreamAtEqualsSequential(t *testing.T) {
	const n = 600
	// seedFor plants draw j's output as out: draw j reads state
	// seed + (j+1)*gamma.
	seedFor := func(j, out uint64) uint64 { return unmix(out) - (j+1)*gamma }
	for what, tc := range map[string]struct {
		seed    uint64
		redraws int
	}{
		"ordinary seed":                      {seed: 42},
		"zero first uniform at variate 100":  {seed: seedFor(200, 0), redraws: 1},
		"zero second uniform at variate 100": {seed: seedFor(201, 7)},
		"zero first uniform at variate 0":    {seed: seedFor(0, 2047), redraws: 1},
		"zero first uniform at the last one": {seed: seedFor(2*(n-1), 5), redraws: 1},
		"zero past the prepared range":       {seed: seedFor(2*n, 5)},
		"output 2048 is not a zero uniform":  {seed: seedFor(200, 2048)},
	} {
		seq := NewRNG(tc.seed)
		want := make([]float32, n)
		seq.FillNormal(want, 1)
		s := NewNormStream(tc.seed, n)
		if len(s.redraws) != tc.redraws {
			t.Fatalf("%s: found %d redraws (%v), want %d", what, len(s.redraws), s.redraws, tc.redraws)
		}
		for i := 0; i < n; i++ {
			normsFrom(t, what, s, want, i)
		}
		// At(n) is where the stream stands after all n variates.
		end := s.At(n)
		if end.Uint64() != seq.Uint64() {
			t.Fatalf("%s: At(n) is not where the sequential fill stopped", what)
		}
	}
}
