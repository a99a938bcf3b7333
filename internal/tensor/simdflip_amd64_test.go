//go:build amd64

package tensor

// SetSIMDForTest switches the assembly kernels on or off (never on
// where the CPUID probe failed) and returns the previous setting, so
// tests — here and, through the external test package, over the model —
// can run the portable Go twin on an amd64 host. Tests only: nothing in
// the program selects kernels.
func SetSIMDForTest(on bool) bool {
	prev := simdOn
	simdOn = on && detectSIMD()
	return prev
}

// useTier selects k's kernels and returns a function that restores
// the previous selection; ok is false, and nothing changes, where the
// CPUID probes rule the tier out.
func useTier(k tier) (restore func(), ok bool) {
	if k.simd && !detectSIMD() || k.bm8 && !detectAVX512() {
		return nil, false
	}
	simd, bm8 := simdOn, bm8On
	simdOn, bm8On = k.simd, k.bm8
	return func() { simdOn, bm8On = simd, bm8 }, true
}

// expAsm8 replaces eight floats by their exponentials with the assembly
// exp, reached through the softmax pass with a shift of 0.
func expAsm8(blk *[8]float32) { softmaxExpFMA(&blk[0], 8, 0) }
