// Command bench is the repository's performance lab: five long-run
// serving workloads driven through the public entry points only
// (realbk.Serve, realbk.ServeRank over tcpcomm, simbk.Run and the
// layers' exported functions), eight end-to-end metrics computed per rep
// and reported as medians across reps, and a traced pass that attributes
// the time to layers from outside. See README.md for the glossary.
//
//	bench --workload decode_tcp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// procStart anchors setup_s at process start (package initialisation is
// the earliest instant the program can observe).
var procStart = time.Now()

const (
	// setUps is how many cold set-ups a measured run's setup_s is the
	// median of: its own and setUps-1 more, each in a fresh process
	// (-setup-only), so every sample is process start -> ready and work
	// moved into package initialisation shows.
	setUps = 3
	// warmDeadline bounds a warm-up rep, which has no earlier rep to
	// derive a deadline from.
	warmDeadline = 30 * time.Second
	// deadlineMult x the slowest warm-up rep bounds every later rep;
	// deadlineFloor keeps one scheduling hiccup on a shared box from
	// failing a 70 ms rep.
	deadlineMult  = 10
	deadlineFloor = 2 * time.Second
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Uint64("seed", 1, "workload seed: prompts are a pure function of (workload, seed)")
		seconds   = flag.Float64("seconds", 10, "length of the timed phase")
		traced    = flag.Int("trace", 0, "0: measured pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		list      = flag.Bool("list", false, "print the workloads and why each exists")
		spec      = flag.Bool("spec", false, "print BENCHMARK.json as this program defines it")
		selfcheck = flag.Bool("selfcheck", false, "run the full suite -runs times (seeds 1..runs, or --seed throughout when given) and print each metric's run-to-run spread beside its bound")
		runs      = flag.Int("runs", 5, "suite repetitions for -selfcheck")
		outDir    = flag.String("out", "bench/out", "directory the traced pass writes its Chrome trace JSON to")
		setupOnly = flag.Bool("setup-only", false, "set up, print the set-up time in seconds and exit (a measured run starts itself this way for its extra setup_s samples)")
	)
	flag.Parse()

	switch {
	case *list:
		for _, w := range workloads() {
			fmt.Printf("%-16s %s\n", w.name, w.why)
		}
		return
	case *spec:
		printSpec(int(*seconds))
		return
	case *selfcheck:
		fixed := false // an explicit --seed fixes the inputs; otherwise seed = repetition
		flag.Visit(func(f *flag.Flag) { fixed = fixed || f.Name == "seed" })
		os.Exit(selfCheck(*runs, *seconds, *seed, fixed))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (try -list)\n", *name)
		os.Exit(2)
	}
	// Three rank goroutines already outnumber the box's two cores: kernel
	// fan-out on top costs a third of the throughput and doubles the
	// run-to-run spread.
	tensor.SetParallelism(1)

	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	if *setupOnly {
		fmt.Println(b.setUp().Seconds())
		return
	}
	var res result
	if *traced == 0 {
		res = b.measured()
	} else {
		res = b.traced(*outDir)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("requests: attempted %d, succeeded %d, failed %d\n", res.Attempted, res.Attempted-res.Failed, res.Failed)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one workload run in one process.
type bench struct {
	w      workload
	seed   uint64
	budget time.Duration

	sets     [][]serve.Request
	refs     [][][]token.Token
	clock    *tokenClock
	deadline time.Duration

	attempted, failed int
	reps              int
	served            engine.Stats // summed over reps: what the mechanism check reads
}

// fail reports a run that cannot continue — a rep past its deadline or a
// set-up error — with the configuration that produced it, and exits
// non-zero without printing a result line.
func (b *bench) fail(err error) {
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\nconfig: tcp=%v sets=%d warm=%d options=%+v\n",
		b.w.name, b.seed, err, b.w.tcp, b.w.sets, b.w.warm, b.w.serveOptions(nil))
	os.Exit(1)
}

// count folds a rep into the run's request accounting.
func (b *bench) count(r rep, n int) {
	b.attempted += n
	b.failed += r.failed
	b.reps++
	b.served.Proposed += r.stats.Proposed
	b.served.RunsCancelled += r.stats.RunsCancelled
	b.served.PrefixHits += r.stats.PrefixHits
	b.served.Preemptions += r.stats.Preemptions
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: rep failed %d/%d requests: %s\n", b.w.name, r.failed, n, r.why)
	}
}

// rep serves set i mod sets under the current deadline.
func (b *bench) rep(i int, h hooks) rep {
	s := i % len(b.sets)
	r, err := withDeadline(b.deadline, func() rep {
		return runRep(b.w, b.sets[s], b.refs[s], b.clock, h)
	})
	if err != nil {
		b.fail(fmt.Errorf("%w (%v): its %d requests count as failed", err, b.deadline, len(b.sets[s])))
	}
	b.count(r, len(b.sets[s]))
	return r
}

// setUp does everything a run needs before its first timed rep: derive
// the requests from the seed, compute their serial references, and serve
// W warm-up reps (transport bring-up included). It returns the time from
// process start to that point and arms the rep deadline from the slowest
// warm-up.
func (b *bench) setUp() time.Duration {
	b.sets = b.w.requestSets(b.seed)
	refs, err := references(b.w, b.sets)
	if err != nil {
		b.fail(err)
	}
	b.refs = refs
	b.clock = newTokenClock(len(b.sets[0]), b.w.maxNew)
	b.deadline = warmDeadline
	var slowest time.Duration
	for i := 0; i < b.w.warm; i++ {
		if r := b.rep(i, nil); r.wall > slowest {
			slowest = r.wall
		}
	}
	b.deadline = max(deadlineMult*slowest, deadlineFloor)
	return time.Since(procStart)
}

// coldSetUp runs one more set-up of the same workload and seed in a
// fresh process and returns its setup time in seconds.
func (b *bench) coldSetUp() float64 {
	exe, err := os.Executable()
	if err != nil {
		b.fail(err)
	}
	cmd := exec.Command(exe, "--workload", b.w.name, "--seed", fmt.Sprint(b.seed), "-setup-only")
	cmd.Stderr = os.Stderr // a failing child says why
	out, err := cmd.Output()
	if err != nil {
		b.fail(fmt.Errorf("set-up in a fresh process: %w", err))
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		b.fail(fmt.Errorf("set-up in a fresh process printed %q: %w", out, err))
	}
	return s
}

// timed runs reps until the budget is spent, always finishing a whole
// cycle through the request sets so every set weighs the same.
func (b *bench) timed(budget time.Duration, one func(i int) rep) []rep {
	var reps []rep
	start := time.Now()
	for i := 0; i%len(b.sets) != 0 || time.Since(start) < budget; i++ {
		reps = append(reps, one(i))
	}
	return reps
}

// measured is the pass end-to-end metrics come from: nothing wrapped,
// telemetry off.
func (b *bench) measured() result {
	setups := []float64{b.setUp().Seconds()}
	runtime.GC()

	start := time.Now()
	reps := b.timed(b.budget, func(i int) rep { return b.rep(i, nil) })
	phase := time.Since(start)
	hwm := peakRSSMiB()
	for len(setups) < setUps {
		setups = append(setups, b.coldSetUp())
	}

	m := e2eMetrics(reps, len(b.sets))
	m["mem_mb"] = hwm
	m["setup_s"] = median(setups)

	fmt.Printf("workload %s seed %d: %d timed reps in %.2fs; W=%d warm-up reps; set-up in this and %d fresh processes: %.4v s\n",
		b.w.name, b.seed, len(reps), phase.Seconds(), b.w.warm, setUps-1, setups)
	return b.result(endToEnd, m)
}

// tokS is the throughput statistic: per-rep tokens per second, median
// across reps.
func tokS(reps []rep, sets int) float64 {
	return groupStat(reps, sets, func(g []rep) float64 {
		per := make([]float64, len(g))
		for i, r := range g {
			per[i] = float64(r.tokens) / r.wall.Seconds()
		}
		return median(per)
	})
}

// e2eMetrics computes the latency and throughput statistics: each per
// rep, then the median across reps (groupStat/repPercentile).
func e2eMetrics(reps []rep, sets int) map[string]float64 {
	ttft := make([][]float64, len(reps))
	for i, r := range reps {
		ttft[i] = r.ttftMS
	}
	gaps := func(p float64) func([]rep) float64 {
		return func(g []rep) float64 {
			per := make([][]float64, len(g))
			for i, r := range g {
				per[i] = r.gapsMS
			}
			return repPercentile(per, p)
		}
	}
	return map[string]float64{
		"tok_s": tokS(reps, sets),
		// Time to first token does not depend on which set a rep served
		// (same prompt lengths), so reps are not grouped.
		"ttft_p50_ms": repPercentile(ttft, 0.50),
		"ttft_p90_ms": repPercentile(ttft, 0.90),
		"itl_p50_ms":  groupStat(reps, sets, gaps(0.50)),
		"itl_p95_ms":  groupStat(reps, sets, gaps(0.95)),
		"cpu_s_per_ktok": groupStat(reps, sets, func(g []rep) float64 {
			per := make([]float64, len(g))
			for i, r := range g {
				per[i] = r.cpuS / (float64(r.tokens) / 1000)
			}
			return median(per)
		}),
	}
}

// result prints every metric of defs by name and unit and packs them
// into the result line. A metric the pass did not produce is a bug in
// the harness, not a zero.
func (b *bench) result(defs []metricDef, m map[string]float64) result {
	if b.w.mechanism != nil {
		if err := b.w.mechanism(b.served, b.reps); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: mechanism not exercised, every request counts as failed: %v\n", b.w.name, err)
			b.failed = b.attempted
		}
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s was not measured\n", b.w.name, d.Name)
			res.Correct = false
			v = 0
		}
		fmt.Printf("%-28s %14.6g %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res
}
