package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// selfCheck measures the instrument itself: it runs the full suite
// `runs` times back to back — one child process per workload run — and
// prints, per workload x end-to-end metric, how far the runs of the same
// code disagree, beside the bound. The seed is the suite repetition, as
// in the acceptance driver's procedure, unless fixed is set, which
// holds every run to `seed` and so leaves out what the inputs add. Two
// figures are printed: range = (max-min)/median, which must stay at or
// below 0.6 x bound, and iqr = the interquartile range over the median,
// which the driver computes and which should stay below a third of the
// bound. It returns the process exit code: 1 when a run failed or a
// cell's range is over.
func selfCheck(runs int, seconds float64, seed uint64, fixed bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	ws := workloads()
	values := make(map[string]map[string][]float64, len(ws)) // workload -> metric -> one value per run
	for _, w := range ws {
		values[w.name] = make(map[string][]float64)
	}
	for run := 1; run <= runs; run++ {
		if !fixed {
			seed = uint64(run)
		}
		for _, w := range ws {
			cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr // a failing child says why
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %s seed %d: %v\n%s", w.name, seed, err, out)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %s seed %d: bad result line %q (%v)\n", w.name, seed, lines[len(lines)-1], err)
				return 1
			}
			for name, mv := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], mv.Value)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d %s done\n", run, runs, w.name)
		}
	}

	fmt.Printf("host: nproc=%d cpu=%q %s\n", runtime.NumCPU(), cpuModel(), runtime.Version())
	seeds := fmt.Sprintf("seeds 1..%d", runs)
	if fixed {
		seeds = fmt.Sprintf("seed %d throughout", seed)
	}
	fmt.Printf("%d suite runs, %.0f s timed phase each, %s\n\n", runs, seconds, seeds)
	fmt.Printf("| workload | metric | median | range/median | iqr/median | bound | range / bound | iqr / bound |\n|---|---|---|---|---|---|---|---|\n")
	code := 0
	for _, w := range ws {
		for _, d := range endToEnd {
			xs := values[w.name][d.Name]
			rng, iqr := spread(xs)
			mark := ""
			if rng > 0.6*d.Bound {
				mark = " OVER"
				code = 1
			}
			fmt.Printf("| %s | %s | %.5g %s | %.3f | %.3f | %.2f | %.2f%s | %.2f |\n",
				w.name, d.Name, median(xs), d.Unit, rng, iqr, d.Bound, rng/d.Bound, mark, iqr/d.Bound)
		}
	}
	fmt.Printf("\nvalues per run:\n")
	for _, w := range ws {
		for _, d := range endToEnd {
			fmt.Printf("%s %s %.5g\n", w.name, d.Name, values[w.name][d.Name])
		}
	}
	return code
}

// cpuModel is the host fingerprint's CPU line.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
