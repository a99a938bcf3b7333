//go:build !amd64

package tensor

// SetSIMDForTest is a no-op off amd64: the Go twin is all there is.
func SetSIMDForTest(bool) bool { return false }

func expAsm8(*[8]float32) { panic("tensor: no assembly kernels on this architecture") }
