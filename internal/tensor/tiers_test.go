package tensor

import "testing"

// tier is one set of kernels a host may run: the AVX-512 tier (the
// projection tile, the sixteen-lane exp and the eight-lane Box-Muller,
// with the AVX2 kernels for what they leave over and for everything
// else), the AVX2 tier, or the portable twin (the Go kernels and the Norm
// loop). tiers lists them widest first.
type tier struct {
	name         string
	simd, avx512 bool
}

var tiers = []tier{{"avx512", true, true}, {"avx2", true, false}, {"twin", false, false}}

// EachTier runs f as a subtest named "host" on the kernels the CPUID
// probes selected, then as one subtest per tier, skipping — and so
// reporting — the tiers this host's CPU cannot run, and logs which ran.
func EachTier(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("host", f)
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
