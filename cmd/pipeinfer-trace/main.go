// Command pipeinfer-trace runs one simulated generation with full
// timeline recording and prints the Fig 3-style pipeline timeline: run
// launches, per-stage evaluation spans, cancellations, acceptances — plus
// per-node utilisation, reproducing the utilisation analysis of §IV-B.
//
// With -flight it instead converts a binary flight-recorder dump (written
// automatically by pipeinfer-serve / pipeinfer-node on watchdog failure
// or breaker trip via -flight-dump) into Chrome trace-event JSON, ready
// for chrome://tracing or https://ui.perfetto.dev.
//
// Usage:
//
//	pipeinfer-trace -nodes 4 -tokens 12
//	pipeinfer-trace -strategy speculative -acceptance 0.5
//	pipeinfer-trace -flight flight.bin -o flight.json
package main

import (
	"flag"
	"fmt"
	"os"

	pipeinfer "github.com/pipeinfer/pipeinfer"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

func main() {
	var (
		strategyName = flag.String("strategy", "pipeinfer", "iterative | speculative | pipeinfer")
		nodes        = flag.Int("nodes", 4, "cluster nodes")
		tokens       = flag.Int("tokens", 12, "tokens to generate")
		acceptance   = flag.Float64("acceptance", 0.79, "draft/target acceptance rate")
		promptLen    = flag.Int("prompt", 16, "prompt length")

		flightIn  = flag.String("flight", "", "convert this binary flight-recorder dump to Chrome trace-event JSON instead of simulating")
		flightOut = flag.String("o", "", "with -flight, write the JSON here (default stdout)")
	)
	flag.Parse()

	if *flightIn != "" {
		if err := convertFlight(*flightIn, *flightOut); err != nil {
			fmt.Fprintln(os.Stderr, "pipeinfer-trace:", err)
			os.Exit(1)
		}
		return
	}

	strategies := map[string]pipeinfer.Strategy{
		"iterative":   pipeinfer.Iterative,
		"speculative": pipeinfer.Speculative,
		"pipeinfer":   pipeinfer.PipeInfer,
	}
	s, ok := strategies[*strategyName]
	if !ok {
		fmt.Fprintf(os.Stderr, "pipeinfer-trace: unknown strategy %q\n", *strategyName)
		os.Exit(1)
	}

	tr := pipeinfer.NewTrace()
	pair := cost.PairDolphinTiny
	pair.Acceptance = *acceptance
	out, err := pipeinfer.Simulate(pipeinfer.SimulateOptions{
		Cluster:   pipeinfer.ClusterC().Take(*nodes),
		Pair:      pair,
		Strategy:  s,
		CFG:       engine.Config{MaxNew: *tokens},
		PromptLen: *promptLen,
		Seed:      7,
		Trace:     tr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipeinfer-trace:", err)
		os.Exit(1)
	}

	fmt.Printf("strategy=%s nodes=%d tokens=%d acceptance=%.0f%%\n\n",
		*strategyName, *nodes, *tokens, *acceptance*100)
	timeline := tr.Dump("")
	fmt.Println(timeline.Render(func(k uint8) string { return engine.RunKind(k).String() }))

	fmt.Printf("generated %d tokens at %.2f tok/s (TTFT %v, ITL %v)\n",
		out.Stats.Generated, out.Stats.Speed(), out.Stats.TTFT(), out.Stats.ITL())
	fmt.Printf("runs launched=%d cancelled=%d superfluous=%d\n\n",
		out.Stats.RunsLaunched, out.Stats.RunsCancelled, out.Stats.Superfluous)

	fmt.Println("per-node utilisation over the generation window:")
	util := timeline.Utilisation(out.Stats.Done)
	for _, n := range timeline.Nodes {
		if u, ok := util[n.Name]; ok {
			fmt.Printf("  %-8s %5.1f%%\n", n.Name, u*100)
		}
	}
}

// convertFlight reads a binary flight dump and writes it as Chrome
// trace-event JSON (stdout when outPath is empty). The dump summary —
// trigger reason, per-node event counts — goes to stderr so the JSON
// stream stays clean for piping.
func convertFlight(inPath, outPath string) error {
	f, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	dump, err := trace.ReadFlightDump(f)
	if err != nil {
		return fmt.Errorf("%s: %w", inPath, err)
	}

	fmt.Fprintf(os.Stderr, "flight dump: %q — %d events across %d rings\n",
		dump.Reason, dump.Len(), len(dump.Nodes))
	for _, n := range dump.Nodes {
		fmt.Fprintf(os.Stderr, "  %-8s %d events\n", n.Name, len(n.Events))
	}

	blob, err := dump.ChromeTrace()
	if err != nil {
		return err
	}
	if outPath == "" {
		_, err = os.Stdout.Write(append(blob, '\n'))
		return err
	}
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes) — open in chrome://tracing or ui.perfetto.dev\n",
		outPath, len(blob))
	return nil
}
