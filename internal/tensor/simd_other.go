//go:build !amd64

package tensor

// simdOn is false off amd64: every kernel runs its portable Go twin, and
// the assembly wrappers below are never reached.
const simdOn = false

func projAsm(Mat) bool { return false }

func matVecAsm(Vec, Mat, Vec, int, int) { panic("tensor: no assembly kernels on this architecture") }

func matMulTAsm(Mat, Mat, Mat, int, int) int { return 0 }

func siluMulAsm(Vec, Vec, Vec) { panic("tensor: no assembly kernels on this architecture") }

func attentionAsm(Vec, Vec, Mat, Mat, int, []int, float32, Vec) {
	panic("tensor: no assembly kernels on this architecture")
}
