// Distributed: run PipeInfer across a genuine TCP mesh — every rank owns
// its own listener and socket connections, exactly as separate machines
// would (cmd/pipeinfer-node runs the same code as separate OS processes).
// Rank 0 drafts and samples; ranks 1..N-1 hold target-model shards.
// Deterministic seeds stand in for weight-file distribution: every rank
// derives identical weights locally.
package main

import (
	"fmt"
	"log"
	"sync"

	pipeinfer "github.com/pipeinfer/pipeinfer"
	"github.com/pipeinfer/pipeinfer/internal/backend/realbk"
	"github.com/pipeinfer/pipeinfer/internal/comm/tcpcomm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
)

func main() {
	const nodes = 4
	cfg := pipeinfer.TinyModel()
	tk, err := pipeinfer.NewTokenizer(cfg.VocabSize)
	if err != nil {
		log.Fatal(err)
	}
	opts := realbk.Options{
		Nodes:      nodes,
		Strategy:   pipeinfer.PipeInfer,
		CFG:        engine.Config{MaxNew: 32},
		ModelCfg:   cfg,
		Seed:       7,
		DraftNoise: 0.01,
		Prompt:     tk.Encode("Distributed speculative inference over TCP sockets"),
	}

	ref, err := realbk.ReferenceGreedy(opts, 32)
	if err != nil {
		log.Fatal(err)
	}

	// One listener and one socket per peer for every rank, on loopback.
	eps, err := tcpcomm.DialLoopback(nodes, tcpcomm.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TCP mesh of %d ranks up on loopback\n", nodes)
	outcomes := make([]realbk.Outcome, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for rank, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ep.Close()
			outcomes[rank], errs[rank] = realbk.RunRank(ep, opts)
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			log.Fatalf("rank %d: %v", rank, err)
		}
	}

	out := outcomes[0]
	match := true
	for i := range ref {
		if out.Tokens[i] != ref[i] {
			match = false
			break
		}
	}
	fmt.Printf("\ngenerated %d tokens at %.1f tok/s over TCP (acceptance %.0f%%, %d/%d runs cancelled)\n",
		out.Stats.Generated, out.Stats.Speed(), out.Stats.AcceptanceRate()*100,
		out.Stats.RunsCancelled, out.Stats.RunsLaunched)
	if match {
		fmt.Println("output identical to the single-model greedy reference — lossless across the wire")
	} else {
		log.Fatal("output mismatch!")
	}
}
