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

// expAsm8 replaces eight floats by their exponentials with the assembly
// exp, reached through the softmax pass with a shift of 0.
func expAsm8(blk *[8]float32) { softmaxExpFMA(&blk[0], 8, 0) }
