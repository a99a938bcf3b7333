//go:build !amd64

package tensor

// SetSIMDForTest is a no-op off amd64: the Go twin is all there is.
func SetSIMDForTest(bool) bool { return false }

// useTier selects the twin, the only tier there is.
func useTier(k tier) (restore func(), ok bool) {
	if k.simd {
		return nil, false
	}
	return func() {}, true
}

func softmaxAsm(Vec, float32) float32 { panic("tensor: no assembly kernels on this architecture") }
