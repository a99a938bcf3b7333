package backend

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// countLayers is a stage's layers that compute nothing and record how
// many rows each evaluation was handed.
type countLayers struct{ evaluated []int }

func (l *countLayers) Eval(_ *engine.RunMsg, _ []byte, rows *Rows, _ func() bool) ([]byte, int, bool) {
	l.evaluated = append(l.evaluated, len(rows.Live))
	return nil, 0, true
}

func (*countLayers) MemoryBytes() int64 { return 0 }

// The activation markers a run frame carries past the first target stage:
// data follows, or the upstream stage skipped the run.
const (
	actSkipped byte = 0
	actData    byte = 1
)

// replicaSession is the generator's view of one session slot: its
// canonical sequence holds positions [0, n); a live speculative chain sits
// on the namespace's second id over [n, n+spec).
type replicaSession struct {
	n, spec int32
}

// TestStageReplicatesShadow: a stage's KV cache is a replica of the head's
// shadow. A seeded generator plays the head over four sessions: it keeps
// a shadow cache the way serve.Scheduler does (a run's KV ops, then every
// row placed, at launch; a KV transaction applied as it is sent) and sends
// the same stream to a stage's WorkerLoop. Runs ride one to three
// sessions, canonical rows or a speculative chain; some have row groups
// masked, some are wholly cancelled, some arrive skipped upstream, and the
// cleanup of every lost row follows as a KV transaction or in the next
// run's ops. Promotions, speculation drops, evictions and shared prefixes
// (share, map, unref) ride the stream too. After every frame the stage's
// cache must equal the shadow cell for cell, page owner for page owner
// and shard by shard, and the stage must have computed exactly the rows
// no cancellation took.
func TestStageReplicatesShadow(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		replicaRun(t, seed, 600)
	}
}

func replicaRun(t *testing.T, seed int64, steps int) {
	const (
		slots   = 4
		width   = 4 // ids per namespace: canonical, then speculative
		page    = 4
		endPos  = int32(1 << 30)
		maxRows = 3
	)
	cfg := kvpage.Config{Cells: 96, PageSize: page, ShardSeqs: width}
	shadow := kvpage.New(cfg)
	layers := &countLayers{}
	st := NewStage(kvpage.New(cfg), layers)

	// Head 0, the stage under test at rank 2 behind rank 1, which the test
	// poses as; rank 3 receives what the stage forwards.
	cl := chancomm.New(4)
	topo := engine.Topology{Head: 0, Stages: []int{1, 2, 3}}
	done := make(chan error, 1)
	go func() { done <- engine.WorkerLoop(cl.Endpoint(2), topo, st, engine.WorkerObs{}) }()
	head, up, down := cl.Endpoint(0), cl.Endpoint(1), cl.Endpoint(3)

	rng := rand.New(rand.NewSource(seed))
	sess := make([]replicaSession, slots)
	base := func(s int) kvcache.SeqID { return kvcache.SeqID(s * width) }
	var (
		pending []kvcache.Op // cleanup not sent yet
		entries []int        // registered shared-prefix entries
		entryN  = map[int]int32{}
		nextID  uint32
		nextEnt int
		wantEv  []int
		seen    = map[string]int{}
	)
	// send delivers a frame to the stage, waits until the stage has
	// forwarded it, and compares the two caches.
	send := func(what string, f []byte) {
		t.Helper()
		up.Send(2, comm.TagRun, f, len(f))
		got := make(chan struct{})
		go func() { down.Recv(2, comm.TagRun); close(got) }()
		select {
		case <-got:
		case err := <-done:
			t.Fatalf("seed %d: the stage exited at %s: %v", seed, what, err)
		}
		if err := st.cache.Diff(shadow); err != nil {
			t.Fatalf("seed %d: after %s the stage's cache is not the shadow's replica: %v", seed, what, err)
		}
		if !slices.Equal(layers.evaluated, wantEv) {
			t.Fatalf("seed %d: after %s the stage evaluated rows %v, want %v", seed, what, layers.evaluated, wantEv)
		}
		seen[what]++
	}
	apply := func(ops []kvcache.Op) {
		t.Helper()
		if err := shadow.ApplyAll(ops); err != nil {
			t.Fatalf("seed %d: the generator sent an op the shadow refuses: %v", seed, err)
		}
	}
	// sendKV is serve.Scheduler.sendKV: the shadow, then the pipeline.
	sendKV := func(what string, ops ...kvcache.Op) {
		apply(ops)
		send(what, append(kvcache.AppendOps(nil, ops), byte(engine.OpKV)))
	}
	flush := func() {
		if len(pending) > 0 {
			sendKV("cleanup", pending...)
			pending = nil
		}
	}

	for range steps {
		switch a := rng.Intn(10); {
		case a < 6: // a run
			msg := &engine.RunMsg{Kind: engine.KindNonSpec, KVOps: slices.Clone(pending)}
			type group struct {
				s    int
				rows int32
				spec bool
			}
			var groups []group
			for _, s := range rng.Perm(slots)[:1+rng.Intn(3)] {
				if sess[s].spec > 0 {
					continue
				}
				g := group{s, int32(1 + rng.Intn(maxRows)), rng.Intn(3) == 0}
				seqs := kvcache.NewSeqSet(base(s))
				if g.spec {
					// A speculative chain on the namespace's second id.
					msg.Kind, seqs = engine.KindSpec, kvcache.NewSeqSet(base(s)+1)
					msg.KVOps = append(msg.KVOps, kvcache.Op{Kind: kvcache.OpSeqCp, Src: base(s), Dst: base(s) + 1, P1: sess[s].n})
				}
				for p := range g.rows {
					msg.Tokens = append(msg.Tokens, engine.TokenPlace{Tok: token.Token(p), Pos: sess[s].n + p, Seqs: seqs})
					msg.RowSessions = append(msg.RowSessions, uint16(s))
				}
				groups = append(groups, g)
			}
			meta := make([]kvcache.TokenMeta, len(msg.Tokens))
			for i, tp := range msg.Tokens {
				meta[i] = kvcache.TokenMeta{Pos: tp.Pos, Seqs: tp.Seqs}
			}
			if len(groups) == 0 || !shadow.CanPlaceRows(meta) {
				// Nothing to launch, or no room for it: evict someone.
				flush()
				s := rng.Intn(slots)
				sess[s] = replicaSession{}
				sendKV("eviction", kvcache.Op{Kind: kvcache.OpEvictShard, Src: base(s), Dst: width})
				continue
			}
			pending = nil
			nextID++
			msg.ID, msg.Session = nextID, msg.RowSessions[0]
			if len(groups) == 1 {
				msg.RowSessions = nil
			}
			// serve.Scheduler.launch: the run's ops, then every row.
			apply(msg.KVOps)
			if _, err := shadow.PlaceRowsInto(nil, meta); err != nil {
				t.Fatalf("seed %d: shadow placement after a dry run: %v", seed, err)
			}
			var dead uint64
			act, what := actData, "run"
			switch c := rng.Intn(5); {
			case c == 0 && len(groups) > 1:
				what, dead = "masked groups", 1<<groups[rng.Intn(len(groups))].s
			case c == 1:
				what = "wholly cancelled"
				for _, g := range groups {
					dead |= 1 << g.s
				}
			case c == 2:
				what, act = "skipped upstream", actSkipped
			}
			if dead != 0 {
				head.Send(2, comm.TagCancel, engine.AppendCancelSigs(nil, engine.CancelSig{ID: msg.ID, Sessions: dead}), 12)
			}
			live := 0
			for _, g := range groups {
				switch {
				case act == actSkipped || dead&(1<<g.s) != 0:
					// The head cleans up what it cancelled.
					if g.spec {
						pending = append(pending, kvcache.Op{Kind: kvcache.OpSeqRm, Src: base(g.s) + 1, P1: endPos})
					} else {
						pending = append(pending, kvcache.Op{Kind: kvcache.OpSeqRm, Src: base(g.s), P0: sess[g.s].n, P1: endPos})
					}
				case g.spec:
					live += int(g.rows)
					sess[g.s].spec = g.rows
				default:
					live += int(g.rows)
					sess[g.s].n += g.rows
				}
			}
			if live > 0 {
				wantEv = append(wantEv, live)
			}
			send(what, append(append(msg.AppendEncode(nil), act), byte(engine.OpRun)))
			if rng.Intn(2) == 0 {
				flush()
			}
		case a == 6: // promote or drop a speculative chain
			flush()
			for _, s := range rng.Perm(slots) {
				if sess[s].spec == 0 {
					continue
				}
				if rng.Intn(2) == 0 {
					sess[s].spec = 0
					sendKV("speculation drop", kvcache.Op{Kind: kvcache.OpDropSpec, Src: base(s), Dst: width})
					break
				}
				k := int32(rng.Intn(int(sess[s].spec) + 1))
				sendKV("promotion",
					kvcache.Op{Kind: kvcache.OpSeqCp, Src: base(s) + 1, Dst: base(s), P0: sess[s].n, P1: sess[s].n + k},
					kvcache.Op{Kind: kvcache.OpSeqRm, Src: base(s) + 1, P1: endPos})
				sess[s].n += k
				sess[s].spec = 0
				break
			}
		case a == 7: // evict
			flush()
			s := rng.Intn(slots)
			sess[s] = replicaSession{}
			sendKV("eviction", kvcache.Op{Kind: kvcache.OpEvictShard, Src: base(s), Dst: width})
		case a == 8: // publish a prefix
			flush()
			s := rng.Intn(slots)
			limit := sess[s].n / page * page
			if sess[s].spec > 0 || limit == 0 || !shadow.CanShare(base(s), limit) || len(entries) == 8 {
				continue
			}
			nextEnt++
			entries, entryN[nextEnt] = append(entries, nextEnt), limit
			sendKV("share", kvcache.Op{Kind: kvcache.OpSharePrefix, Src: base(s), Dst: kvcache.SeqID(nextEnt), P1: limit})
		default: // map a prefix into an empty session, or drop one
			flush()
			if len(entries) == 0 {
				continue
			}
			k := rng.Intn(len(entries))
			e := entries[k]
			if rng.Intn(3) == 0 {
				entries = slices.Delete(entries, k, k+1)
				sendKV("unref", kvcache.Op{Kind: kvcache.OpUnrefPrefix, Dst: kvcache.SeqID(e)})
				continue
			}
			for _, s := range rng.Perm(slots) {
				if sess[s].n == 0 && sess[s].spec == 0 {
					limit := page * int32(1+rng.Intn(int(entryN[e]/page)))
					sess[s].n = limit
					sendKV("map", kvcache.Op{Kind: kvcache.OpMapShared, Src: base(s), Dst: kvcache.SeqID(e), P1: limit})
					break
				}
			}
		}
	}
	flush()
	for s := range slots {
		sendKV("eviction", kvcache.Op{Kind: kvcache.OpEvictShard, Src: base(s), Dst: width})
	}
	for _, e := range entries {
		sendKV("unref", kvcache.Op{Kind: kvcache.OpUnrefPrefix, Dst: kvcache.SeqID(e)})
	}
	if err := st.drained(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	up.Send(2, comm.TagRun, []byte{byte(engine.OpShutdown)}, 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, what := range []string{"masked groups", "wholly cancelled", "skipped upstream", "cleanup", "promotion", "speculation drop", "share", "map", "unref"} {
		if seen[what] == 0 {
			t.Errorf("seed %d: the stream held no %s", seed, what)
		}
	}
}
