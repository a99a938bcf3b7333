//go:build amd64

package quant

import "github.com/pipeinfer/pipeinfer/internal/tensor"

// Implemented in qdot_amd64.s. Each computes the full quantized-domain
// inner product of one weight row (nBlocks blocks of BlockSize values)
// against a dense f32 activation, consuming the packed integer weights
// directly — no f32 row staging.
func dotQ8FMA(scales *float32, q *int8, x *float32, nBlocks int) float32
func dotQ4FMA(scales *float32, q *uint8, x *float32, nBlocks int) float32

// Both kernels follow the tensor package's CPU feature detection, asked
// on every call, so the two packages always take the same code path.

func dotQ8Kernel(scales []float32, q []int8, x []float32) float32 {
	if tensor.SIMDAccelerated() {
		return dotQ8FMA(&scales[0], &q[0], &x[0], len(x)/BlockSize)
	}
	return dotQ8Go(scales, q, x)
}

func dotQ4Kernel(scales []float32, q []uint8, x []float32) float32 {
	if tensor.SIMDAccelerated() {
		return dotQ4FMA(&scales[0], &q[0], &x[0], len(x)/BlockSize)
	}
	return dotQ4Go(scales, q, x)
}
