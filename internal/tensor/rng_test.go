package tensor

import (
	"fmt"
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

// seedFor plants draw j's output as out: draw j reads state
// seed + (j+1)*gamma.
func seedFor(j, out uint64) uint64 { return unmix(out) - (j+1)*gamma }

func TestNormStreamAtEqualsSequential(t *testing.T) {
	const n = 600
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

// checkFill fails unless FillNormal, started pre variates into seed's
// stream and writing n variates off floats into its buffer, gives the
// Norm loop's bits and leaves the generator where the loop does.
func checkFill(t testing.TB, what string, seed uint64, pre, off, n int, std float32) {
	t.Helper()
	got, want := NewRNG(seed), NewRNG(seed)
	for range pre {
		got.Norm()
		want.Norm()
	}
	buf := make(Vec, off+n)
	got.FillNormal(buf[off:], std)
	twin := make(Vec, n)
	fillNormalGo(want, twin, std)
	for i, w := range twin {
		if g := buf[off+i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s (pre %d, offset %d, n %d, std %v): variate %d = %v (%#x), Norm loop %v (%#x)",
				what, pre, off, n, std, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
	if got.state != want.state {
		t.Fatalf("%s (pre %d, offset %d, n %d): FillNormal left the generator %d draws from the Norm loop",
			what, pre, off, n, (got.state-want.state)*gammaInv)
	}
}

// TestFillNormalMatchesNorm holds every Box-Muller tier to the Norm loop
// bit for bit, with draws planted where the kernels' branch-free
// arithmetic could part from the scalar code: the redraw of a zero first
// uniform, a zero second uniform, log's reduction test at f1 == Sqrt2/2
// exactly, and cos's octant boundaries, up to 1-2^-53 where the octant
// rounds to 8. Each plant sits in every lane of an eight-lane group (and
// so of a four-lane one), the lengths end in every mix of eight-lane
// groups, a four-lane group and scalar variates, and every start offset
// moves the plant further.
func TestFillNormalMatchesNorm(t *testing.T) {
	uniform := func(v uint64) uint64 { return v << 11 } // the draw whose Float64 is v*2^-53
	type plant struct {
		what    string
		second  bool // the variate's second uniform, else its first
		outputs []uint64
	}
	plants := []plant{
		{"zero first uniform", false, []uint64{0, 2047}},
		{"zero second uniform", true, []uint64{0, 5}},
		{"f1 at Sqrt2/2", false, []uint64{uniform(0x16a09e667f3bcd - 1), uniform(0x16a09e667f3bcd), uniform(0x16a09e667f3bcd + 1)}},
		{"u2 at 1-2^-53", true, []uint64{uniform(1<<53 - 1), uniform(1<<53 - 2)}},
	}
	octants := plant{what: "u2 at k/8", second: true}
	for k := uint64(1); k < 8; k++ {
		for _, v := range []uint64{k<<50 - 1, k << 50, k<<50 + 1} {
			octants.outputs = append(octants.outputs, uniform(v))
		}
	}
	plants = append(plants, octants)

	var lengths []int
	for n := range 18 {
		lengths = append(lengths, n)
	}
	for _, r := range []int{0, 1, 3, 4, 5, 7} {
		lengths = append(lengths, 8*9+r)
	}
	EachTier(t, func(t *testing.T) {
		for _, p := range plants {
			for _, out := range p.outputs {
				for lane := range uint64(8) {
					// Variate 8+lane: the second eight-lane group when nothing precedes it.
					j := 2 * (8 + lane)
					if p.second {
						j++
					}
					seed := seedFor(j, out)
					what := fmt.Sprintf("%s (draw %#x) in lane %d", p.what, out, lane)
					for pre := range 4 {
						for off := range 4 {
							for _, n := range lengths {
								checkFill(t, what, seed, pre, off, n, 0.125)
							}
						}
					}
				}
			}
		}

		seeds := NewRNG(77)
		for i := range 64 {
			checkFill(t, "random seed", seeds.Uint64(), i%4, i/4%4, 4096+i%8, []float32{1, 0.125, 0.02, -3}[i%4])
		}
	})
}

// FuzzFillNormal checks each input on every tier the host can run; the
// tiers it cannot are named in the log.
func FuzzFillNormal(f *testing.F) {
	f.Add(uint64(1), uint16(0), float32(1))
	f.Add(uint64(2), uint16(9), float32(0.125))
	f.Add(seedFor(8, 0), uint16(64), float32(1))
	f.Add(seedFor(9, (1<<53-1)<<11), uint16(37), float32(-3))
	f.Add(seedFor(16, 0), uint16(28), float32(0.5)) // a redraw opening the second group of eight
	f.Add(uint64(5), uint16(4000), float32(math.Inf(1)))
	var run []tier
	for _, k := range tiers {
		if restore, ok := useTier(k); ok {
			restore()
			run = append(run, k)
		} else {
			f.Logf("skipping the %s tier: this host's CPU cannot run it", k.name)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, std float32) {
		for _, k := range run {
			func() {
				restore, _ := useTier(k)
				defer restore()
				checkFill(t, "fuzz on "+k.name, seed, int(n%4), int(n/4%4), int(n%4099), std)
			}()
		}
	})
}
