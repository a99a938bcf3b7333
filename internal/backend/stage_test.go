package backend_test

import (
	"fmt"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/backend"
	"github.com/pipeinfer/pipeinfer/internal/backend/realbk"
	"github.com/pipeinfer/pipeinfer/internal/backend/simbk"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/oracle"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// TestStageChecksVisibility: a stage of either backend asserts, before its
// layers see a run, that the token at position p sees exactly p+1 cells.
// Two sequences prefill the same prompt and then decode side by side; when
// one of them has lost a prefix cell to an OpSeqRm first, the decode run
// fails the check, naming the run, the row and the positions, and
// otherwise every row of the prefills and the decode passes.
func TestStageChecksVisibility(t *testing.T) {
	const n = 8
	backends := []struct {
		name   string
		layers func(cells int) backend.Layers
	}{
		{"realbk", func(cells int) backend.Layers {
			cfg := model.TinyConfig()
			cfg.NLayers = 2
			m, err := model.New(cfg, 5)
			if err != nil {
				t.Fatal(err)
			}
			return realbk.NewWorker(m, 0, cfg.NLayers, true, true, cells)
		}},
		{"simbk", func(cells int) backend.Layers {
			return simbk.NewWorker(chancomm.New(1).Endpoint(0), cost.ClusterC().Nodes[0], cost.PairDolphinTiny.Target,
				2, oracle.New(4096, 0.7, 7), cells)
		}},
	}
	cases := []struct {
		name string
		ops  []kvcache.Op // applied after the prefills
		want string       // the decode run's panic; "" for none
	}{
		{"intact", nil, ""},
		{"prefix cell removed", []kvcache.Op{{Kind: kvcache.OpSeqRm, Src: 1, P0: 2, P1: 3}},
			fmt.Sprintf("backend: run 3 row 1 at pos %d sees %d cells, want %d", n, n, n+1)},
	}
	for _, bk := range backends {
		for _, tc := range cases {
			t.Run(bk.name+"/"+tc.name, func(t *testing.T) {
				cache := kvpage.New(kvpage.Config{Cells: 64, PageSize: 8})
				st := backend.NewStage(cache, bk.layers(cache.Size()))
				for seq := range 2 {
					prefill := &engine.RunMsg{ID: uint32(1 + seq), Kind: engine.KindPrefill}
					for p := range n {
						prefill.Tokens = append(prefill.Tokens, engine.TokenPlace{
							Tok: token.Token(token.NumSpecial + 3*p), Pos: int32(p), Seqs: kvcache.NewSeqSet(kvcache.SeqID(seq))})
					}
					if got := evalPanic(t, st, prefill); got != "" {
						t.Fatalf("prefill of sequence %d: %s", seq, got)
					}
				}
				if err := st.ApplyKV(tc.ops); err != nil {
					t.Fatal(err)
				}
				decode := &engine.RunMsg{ID: 3, Kind: engine.KindNonSpec}
				for seq := range 2 {
					decode.Tokens = append(decode.Tokens, engine.TokenPlace{
						Tok: token.NumSpecial + 1, Pos: n, Seqs: kvcache.NewSeqSet(kvcache.SeqID(seq))})
				}
				if got := evalPanic(t, st, decode); got != tc.want {
					t.Fatalf("decode panicked with %q, want %q", got, tc.want)
				}
			})
		}
	}
}

// evalPanic evaluates run on st and returns what it panicked with, or ""
// for an evaluation that completed.
func evalPanic(t *testing.T, st *backend.Stage, run *engine.RunMsg) (msg string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	if err := st.Place(run); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Eval(run, nil, func() bool { return false }); !ok {
		t.Fatalf("run %d was not evaluated", run.ID)
	}
	return ""
}
