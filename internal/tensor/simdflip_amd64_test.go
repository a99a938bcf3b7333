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
	if k.simd && !detectSIMD() || k.avx512 && !detectAVX512() {
		return nil, false
	}
	simd, avx512 := simdOn, avx512On
	simdOn, avx512On = k.simd, k.avx512
	return func() { simdOn, avx512On = simd, avx512 }, true
}

// softmaxAsm runs the selected tier's assembly softmax pass over p (a
// positive multiple of 8 long): p[i] = exp(p[i] - max), returning the sum.
func softmaxAsm(p Vec, max float32) float32 { return softmaxExp(&p[0], len(p), max) }
