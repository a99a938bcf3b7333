package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// metricDef names one reported quantity. BENCHMARK.json carries the same
// names, units, directions and bounds; TestBenchmarkJSONMatches holds
// the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated relative worsening
}

// endToEnd is what a caller of Serve sees; the same eight on every
// workload. The bound is the regression gate on unpaired medians, and
// the acceptance procedure refuses a bound narrower than the spread of
// ten runs of unchanged code, so the host sets it, not the issue's
// 0.05-0.10: one bound serves all five workloads, and each is three
// times the widest interquartile spread any workload showed over ten
// runs on the 2-core shared host, capped at the contract's 0.25
// (README.md, "Noise self-check": one seed run repeatedly spreads as far
// as many seeds, and episodes of minutes slow the whole box by 5-10 %).
// A difference smaller than the bound is resolved by alternating pairs
// of runs, not by the gate.
var endToEnd = []metricDef{
	{"tok_s", "tok/s", "higher", 0.20},
	{"ttft_p50_ms", "ms", "lower", 0.20},
	{"ttft_p90_ms", "ms", "lower", 0.25},
	{"itl_p50_ms", "ms", "lower", 0.25},
	{"itl_p95_ms", "ms", "lower", 0.25},
	{"cpu_s_per_ktok", "s", "lower", 0.23},
	{"mem_mb", "MiB", "lower", 0.13},
	{"setup_s", "s", "lower", 0.25},
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// printSpec writes BENCHMARK.json from the program's own tables, so the
// contract file cannot drift from what a run prints.
func printSpec(runSeconds int) {
	type workloadSpec struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricDef    `json:"end_to_end"`
		PerLayer   []metricDef    `json:"per_layer"` // Bound is zero, so omitted
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads() {
		spec.Workloads = append(spec.Workloads, workloadSpec{w.name, w.why})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	fmt.Println(string(out))
}
