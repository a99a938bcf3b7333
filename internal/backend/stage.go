package backend

import (
	"fmt"

	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Stage is a pipeline stage of either backend (engine.Worker): it owns the
// stage's KV cache, applies the head's cache operations in transaction
// order (§IV-C's multibuffering) and places every row of every run, as
// the head's shadow does at launch, so the two caches are replicas;
// cancellation decides only which placed rows its Layers compute. All
// staging is reused, so a steady-state decode run allocates nothing here.
type Stage struct {
	cache  *kvpage.Cache
	layers Layers
	rows   Rows
}

// Layers is the part of a stage that differs between the backends: what
// its layers do with a run's placed rows (model layers over the cells, or
// roofline charges and the oracle over them).
type Layers interface {
	// Eval evaluates the stage's layers over rows, the run's live rows as
	// the stage placed them, and returns what engine.Worker's Eval does.
	// rows is only valid during the call.
	Eval(run *engine.RunMsg, input []byte, rows *Rows, cancelled func() bool) (out []byte, wire int, ok bool)
	// MemoryBytes reports the stage's resident footprint (weights + KV).
	MemoryBytes() int64
}

// Rows are a run's live rows as its stage placed them. Row k of the
// placement is run row Live[k]: token Toks[k] at Meta[k], written to cell
// Cells[k]. Groups lists the rows' visible cells once per sequence set
// (kvpage.VisibleGroups): row g.Rows[j] sees g.Cells[:g.Lens[j]]. Result
// lists, in order, the rows k the last stage answers (RunMsg.ResultRow).
type Rows struct {
	Live   []int
	Toks   []token.Token
	Meta   []kvcache.TokenMeta
	Cells  []int
	Groups []kvpage.VisibleGroup
	Result []int
}

// NewStage builds a stage over cache, whose size the layers were built for.
func NewStage(cache *kvpage.Cache, layers Layers) *Stage {
	return &Stage{cache: cache, layers: layers}
}

// Place applies the run's KV operations and gives every row of the run a
// cell, whatever its cancellation. A tight cache is an error: the head's
// shadow, which made the same placement at launch, had room. So is a row
// whose sequence set no shard holds, which no head sends.
func (s *Stage) Place(run *engine.RunMsg) error {
	if err := s.ApplyKV(run.KVOps); err != nil {
		return err
	}
	r := &s.rows
	r.Toks, r.Meta = r.Toks[:0], r.Meta[:0]
	for _, t := range run.Tokens {
		r.Toks = append(r.Toks, t.Tok)
		r.Meta = append(r.Meta, kvcache.TokenMeta{Pos: t.Pos, Seqs: t.Seqs})
	}
	var err error
	if r.Cells, err = s.cache.PlaceRowsInto(r.Cells[:0], r.Meta); err != nil {
		return fmt.Errorf("backend: run %d cannot be placed: %w", run.ID, err)
	}
	return nil
}

// Eval evaluates the placed run (Place): it keeps the rows no cancellation
// masked, checks what each sees, picks the result rows and hands them to
// the stage's layers. A run with no live row is not evaluated.
func (s *Stage) Eval(run *engine.RunMsg, input []byte, cancelled func() bool) ([]byte, int, bool) {
	r := &s.rows
	r.Live, r.Result = r.Live[:0], r.Result[:0]
	for i := range r.Toks {
		if !run.RowDead(i) {
			k := len(r.Live)
			r.Live = append(r.Live, i)
			r.Toks[k], r.Meta[k], r.Cells[k] = r.Toks[i], r.Meta[i], r.Cells[i]
		}
	}
	n := len(r.Live)
	r.Toks, r.Meta, r.Cells = r.Toks[:n], r.Meta[:n], r.Cells[:n]
	if n == 0 {
		return nil, 0, false
	}
	r.Groups = s.cache.VisibleGroups(r.Groups, r.Meta)
	r.checkVisibility(run)
	for k, i := range r.Live {
		if run.ResultRow(i, run.DeadSessions) {
			r.Result = append(r.Result, k)
		}
	}
	return s.layers.Eval(run, input, r, cancelled)
}

// checkVisibility asserts the multibuffering visibility invariant on the
// placed rows: the token at session-local position p sees exactly p+1
// cells, its full shared prefix plus its own entry. Prefix sharing,
// promotions, eviction, page recycling and cross-session batching all
// preserve it; a violation is metadata corruption, which would otherwise
// surface only as wrong tokens.
func (r *Rows) checkVisibility(run *engine.RunMsg) {
	for _, g := range r.Groups {
		for j, k := range g.Rows {
			if got, want := g.Lens[j], int(r.Meta[k].Pos)+1; got != want {
				panic(fmt.Sprintf("backend: run %d row %d at pos %d sees %d cells, want %d",
					run.ID, r.Live[k], r.Meta[k].Pos, got, want))
			}
		}
	}
}

// ApplyKV applies pipelined cache operations to the stage's cache, or
// returns the first it cannot apply.
func (s *Stage) ApplyKV(ops []kvcache.Op) error { return s.cache.ApplyAll(ops) }

// MemoryBytes reports the layers' resident footprint.
func (s *Stage) MemoryBytes() int64 { return s.layers.MemoryBytes() }

// drained asserts a stage's end state: structurally consistent metadata
// and — every finished session having removed its whole namespace — an
// empty cache with every page back on the free list.
func (s *Stage) drained() error {
	if err := s.cache.CheckInvariants(); err != nil {
		return fmt.Errorf("KV corruption: %w", err)
	}
	if used := s.cache.Used(); used != 0 {
		return fmt.Errorf("KV leak: %d cells still occupied after serving", used)
	}
	return nil
}
