package model

import (
	"slices"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/quant"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// dequantizedTwin rebuilds m with every weight matrix expanded to dense
// f32. Quantize -> Dequantize is exact (the rounded block values), so the
// twin holds numerically identical weights evaluated through the plain
// f32 kernels instead of the quantized-domain ones.
func dequantizedTwin(m *Model) *Model {
	deq := func(q quant.Mat) quant.Mat { return quant.Quantize(q.Dequantize(), quant.F32) }
	cfg := m.Cfg
	cfg.Quant = quant.F32
	d := &Model{Cfg: cfg}
	d.Embed = tensor.Mat{Rows: m.Embed.Rows, Cols: m.Embed.Cols, Data: slices.Clone(m.Embed.Data)}
	d.Layers = make([]Layer, len(m.Layers))
	for l, src := range m.Layers {
		d.Layers[l] = Layer{
			AttnNorm: append(tensorVec{}, src.AttnNorm...),
			Wq:       deq(src.Wq),
			Wk:       deq(src.Wk),
			Wv:       deq(src.Wv),
			Wo:       deq(src.Wo),
			FFNNorm:  append(tensorVec{}, src.FFNNorm...),
			WGate:    deq(src.WGate),
			WUp:      deq(src.WUp),
			WDown:    deq(src.WDown),
		}
	}
	d.Norm = append(tensorVec{}, m.Norm...)
	d.Output = deq(m.Output)
	return d
}

type tensorVec = []float32

// TestQuantizedGreedyMatchesDequantized is the quantized-kernel parity
// gate: for every storage format, greedy decoding through the
// quantized-domain kernels must reproduce the dequantize-then-f32 path
// token for token (the weights are identical after rounding; only the
// kernel arithmetic differs).
func TestQuantizedGreedyMatchesDequantized(t *testing.T) {
	prompt := []token.Token{token.BOS, 17, 80, 121, 44}
	const maxNew = 32
	for _, typ := range []quant.Type{quant.F32, quant.Q8, quant.Q4} {
		cfg := TinyConfig()
		cfg.Quant = typ
		m, err := New(cfg, 4242)
		if err != nil {
			t.Fatal(err)
		}
		qr := NewRunner(m, 256)
		got, err := qr.Greedy(prompt, maxNew)
		if err != nil {
			t.Fatal(err)
		}
		fr := NewRunner(dequantizedTwin(m), 256)
		want, err := fr.Greedy(prompt, maxNew)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: token %d = %d, dequantized path %d", typ, i, got[i], want[i])
			}
		}
	}
}
