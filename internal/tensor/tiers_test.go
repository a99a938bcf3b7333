package tensor

import "testing"

// tier is one Box-Muller kernel a host may derive weights with: the
// AVX-512 kernel (groups of eight, then AVX2's for a last group of four),
// the AVX2 kernel, or the portable twin, the Norm loop. tiers lists them
// widest first.
type tier struct {
	name      string
	simd, bm8 bool
}

var tiers = []tier{{"avx512", true, true}, {"avx2", true, false}, {"twin", false, false}}

// EachTier runs f as a subtest on every tier, skipping — and so
// reporting — the ones this host's CPU cannot run, and logs which ran.
func EachTier(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	var ran []string
	for _, k := range tiers {
		t.Run(k.name, func(t *testing.T) {
			restore, ok := useTier(k)
			if !ok {
				t.Skipf("this host's CPU cannot run the %s tier", k.name)
			}
			defer restore()
			ran = append(ran, k.name)
			f(t)
		})
	}
	t.Logf("ran on tiers %v", ran)
}
