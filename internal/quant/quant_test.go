package quant

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/pipeinfer/pipeinfer/internal/tensor"
)

func randMat(seed uint64, rows, cols int) tensor.Mat {
	rng := tensor.NewRNG(seed)
	m := tensor.NewMat(rows, cols)
	rng.FillNormal(m.Data, 1)
	return m
}

func maxAbs(m tensor.Mat) float64 {
	var a float64
	for _, v := range m.Data {
		if x := math.Abs(float64(v)); x > a {
			a = x
		}
	}
	return a
}

func TestF32Roundtrip(t *testing.T) {
	m := randMat(1, 8, 64)
	q := Quantize(m, F32)
	d := q.Dequantize()
	for i := range m.Data {
		if m.Data[i] != d.Data[i] {
			t.Fatalf("F32 roundtrip not exact at %d", i)
		}
	}
}

func TestQ8RoundtripError(t *testing.T) {
	m := randMat(2, 16, 128)
	q := Quantize(m, Q8)
	d := q.Dequantize()
	// Q8 error per weight is bounded by scale/2 = amax/254.
	for i := range m.Data {
		diff := math.Abs(float64(m.Data[i] - d.Data[i]))
		if diff > maxAbs(m)/127 {
			t.Fatalf("Q8 error too large at %d: %v", i, diff)
		}
	}
}

func TestQ4RoundtripError(t *testing.T) {
	m := randMat(3, 16, 128)
	q := Quantize(m, Q4)
	d := q.Dequantize()
	for i := range m.Data {
		diff := math.Abs(float64(m.Data[i] - d.Data[i]))
		if diff > maxAbs(m)/7.0+1e-6 {
			t.Fatalf("Q4 error too large at %d: %v", i, diff)
		}
	}
}

func TestQuantizedMatVecMatchesDequantized(t *testing.T) {
	for _, typ := range []Type{F32, Q8, Q4} {
		m := randMat(4, 24, 96)
		q := Quantize(m, typ)
		x := make([]float32, 96)
		tensor.NewRNG(5).FillNormal(x, 1)

		got := make([]float32, 24)
		q.MatVecQ(got, x)

		want := make([]float32, 24)
		tensor.MatVec(want, q.Dequantize(), x)

		for i := range got {
			if math.Abs(float64(got[i]-want[i])) > 1e-3 {
				t.Fatalf("%v MatVec mismatch at %d: %v vs %v", typ, i, got[i], want[i])
			}
		}
	}
}

func TestQuantizedMatVecApproximatesF32(t *testing.T) {
	m := randMat(6, 32, 256)
	x := make([]float32, 256)
	tensor.NewRNG(7).FillNormal(x, 1)

	exact := make([]float32, 32)
	tensor.MatVec(exact, m, x)

	for _, typ := range []Type{Q8, Q4} {
		q := Quantize(m, typ)
		got := make([]float32, 32)
		q.MatVecQ(got, x)
		// relative tolerance: Q4 is coarse but dot products over 256 terms
		// should still land within a few percent of the exact value's scale.
		var scale float64
		for _, v := range exact {
			scale += float64(v) * float64(v)
		}
		scale = math.Sqrt(scale / float64(len(exact)))
		tol := scale * 0.05
		if typ == Q4 {
			// 4-bit error per weight is amax/14; over 256-term dots the
			// accumulated error can reach ~half the output scale.
			tol = scale * 0.50
		}
		for i := range got {
			if math.Abs(float64(got[i]-exact[i])) > tol {
				t.Fatalf("%v deviates at %d: got %v want %v (tol %v)", typ, i, got[i], exact[i], tol)
			}
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	m := randMat(8, 4, 64)
	if got := Quantize(m, F32).Bytes(); got != 4*64*4 {
		t.Fatalf("F32 bytes: got %d", got)
	}
	// Q8: 1 byte/weight + 4 bytes per 32-weight block.
	if got := Quantize(m, Q8).Bytes(); got != 4*64+4*(4*64/32) {
		t.Fatalf("Q8 bytes: got %d", got)
	}
	// Q4: 0.5 byte/weight + 4 bytes per block.
	if got := Quantize(m, Q4).Bytes(); got != 4*64/2+4*(4*64/32) {
		t.Fatalf("Q4 bytes: got %d", got)
	}
}

func TestTypeString(t *testing.T) {
	if F32.String() != "F32" || Q8.String() != "Q8_0" || Q4.String() != "Q4_0" {
		t.Fatal("Type.String names wrong")
	}
}

func TestQuantizePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-multiple-of-block Cols")
		}
	}()
	Quantize(tensor.NewMat(2, 33), Q8)
}

func TestQ8RoundtripProperty(t *testing.T) {
	f := func(seed uint16) bool {
		m := randMat(uint64(seed)+1000, 2, 32)
		d := Quantize(m, Q8).Dequantize()
		bound := maxAbs(m) / 120 // slightly looser than scale/2 for rounding
		for i := range m.Data {
			if math.Abs(float64(m.Data[i]-d.Data[i])) > bound+1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroBlockStaysZero(t *testing.T) {
	m := tensor.NewMat(1, 32) // all zeros
	for _, typ := range []Type{Q8, Q4} {
		d := Quantize(m, typ).Dequantize()
		for i, v := range d.Data {
			if v != 0 {
				t.Fatalf("%v: zero block dequantized to %v at %d", typ, v, i)
			}
		}
	}
}

func BenchmarkQ8MatVec(b *testing.B) {
	m := randMat(9, 512, 512)
	q := Quantize(m, Q8)
	x := make([]float32, 512)
	tensor.NewRNG(10).FillNormal(x, 1)
	dst := make([]float32, 512)
	b.SetBytes(q.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.MatVecQ(dst, x)
	}
}

// TestRowStorageEqualsBlockLoop holds the row-at-a-time storage the
// weight build fills through (NewMat + QuantizeRow) to the whole-matrix
// block loop it replaced, copied here as it stood: same scales, same
// packed values, and DequantizeRow hands back what Dequantize did.
func TestRowStorageEqualsBlockLoop(t *testing.T) {
	m := randMat(11, 12, 96)
	m.Data[40] = 0 // a zero and an all-zero block exercise the inv == 0 branch
	for i := 64; i < 96; i++ {
		m.Data[i] = 0
	}
	nBlocks := m.Rows * m.Cols / BlockSize
	amaxOf := func(src []float32) float32 {
		amax := float32(0)
		for _, v := range src {
			if a := float32(math.Abs(float64(v))); a > amax {
				amax = a
			}
		}
		return amax
	}

	q8 := Quantize(m, Q8)
	for b := 0; b < nBlocks; b++ {
		src := m.Data[b*BlockSize : (b+1)*BlockSize]
		scale := amaxOf(src) / 127
		inv := float32(0)
		if scale != 0 {
			inv = 1 / scale
		}
		if q8.scales[b] != scale {
			t.Fatalf("Q8 block %d: scale %v, block loop gives %v", b, q8.scales[b], scale)
		}
		for i, v := range src {
			if want := int8(roundClamp(v*inv, -127, 127)); q8.q8[b*BlockSize+i] != want {
				t.Fatalf("Q8 block %d value %d: %d, block loop gives %d", b, i, q8.q8[b*BlockSize+i], want)
			}
		}
	}

	q4 := Quantize(m, Q4)
	for b := 0; b < nBlocks; b++ {
		src := m.Data[b*BlockSize : (b+1)*BlockSize]
		scale := amaxOf(src) / 7
		inv := float32(0)
		if scale != 0 {
			inv = 1 / scale
		}
		if q4.scales[b] != scale {
			t.Fatalf("Q4 block %d: scale %v, block loop gives %v", b, q4.scales[b], scale)
		}
		for i := 0; i < BlockSize; i += 2 {
			lo := uint8(roundClamp(src[i]*inv, -8, 7) + 8)
			hi := uint8(roundClamp(src[i+1]*inv, -8, 7) + 8)
			if got := q4.q4[(b*BlockSize+i)/2]; got != lo|hi<<4 {
				t.Fatalf("Q4 block %d pair %d: %#x, block loop gives %#x", b, i/2, got, lo|hi<<4)
			}
		}
	}

	for _, q := range []Mat{Quantize(m, F32), q8, q4} {
		d := q.Dequantize()
		for i, got := range d.Data {
			var want float32
			switch q.Typ {
			case F32:
				want = m.Data[i]
			case Q8:
				want = float32(q.q8[i]) * q.scales[i/BlockSize]
			case Q4:
				nib := q.q4[i/2] & 0x0f
				if i%2 == 1 {
					nib = q.q4[i/2] >> 4
				}
				want = (float32(nib) - 8) * q.scales[i/BlockSize]
			}
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%v weight %d dequantizes to %v, want %v", q.Typ, i, got, want)
			}
		}
	}
}
