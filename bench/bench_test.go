package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func seq(lo, hi int) []float64 {
	var out []float64
	for i := lo; i <= hi; i++ {
		out = append(out, float64(i))
	}
	return out
}

func TestPercentileKnownSamples(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{seq(1, 5), 0.5, 3},
		{seq(1, 4), 0.5, 2.5},
		{seq(1, 11), 0.9, 10},
		{seq(1, 11), 0.95, 10.5},
		{[]float64{7}, 0.9, 7},
		{[]float64{5, 1, 3}, 0.5, 3}, // unsorted input
	} {
		if got := percentile(tc.xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample must be NaN, not a number")
	}
}

func TestRepPercentileMedianAcrossReps(t *testing.T) {
	// Three reps of 11 samples: per-rep p90 is 10, 20, 1000 — the median
	// across reps ignores the one disturbed rep, where the pooled p90
	// (33 samples) would not.
	reps := [][]float64{seq(1, 11), seq(11, 21), seq(991, 1001)}
	if got := repPercentile(reps, 0.9); !near(got, 20) {
		t.Errorf("per-rep p90, median across reps = %v, want 20", got)
	}
	// One TTFT per rep: fewer than minRepSamples, so the reps are pooled.
	solo := [][]float64{{3}, {1}, {2}, {5}, {4}}
	if got := repPercentile(solo, 0.5); !near(got, 3) {
		t.Errorf("pooled p50 = %v, want 3", got)
	}
	if got := repPercentile(solo, 0.9); !near(got, 4.6) {
		t.Errorf("pooled p90 = %v, want 4.6", got)
	}
}

func TestGroupStatPerSetMedianThenMean(t *testing.T) {
	// Reps alternate between two request sets: set 0 yields 10, 12, 11
	// and set 1 yields 100, 300, 200. Median per set (11, 200), then the
	// mean across sets.
	reps := []float64{10, 100, 12, 300, 11, 200}
	if got := groupStat(reps, 2, median); !near(got, 105.5) {
		t.Errorf("groupStat = %v, want 105.5", got)
	}
	if got := groupStat(reps, 1, median); !near(got, 56) {
		t.Errorf("one set: groupStat = %v, want the plain median 56", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	rng, iqr := spread(seq(1, 10))
	if !near(rng, 9/5.5) || !near(iqr, 5.5/5.5) {
		t.Errorf("spread = (%v, %v), want (%v, 1)", rng, iqr, 9/5.5)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	if _, iqr := spread([]float64{16, 1, 4, 2, 8}); !near(iqr, 10.5/4) {
		t.Errorf("iqr/median = %v, want %v", iqr, 10.5/4)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{name: "busy", start: 0, end: 100 * us, parent: -1},
		{name: "send", start: 10 * us, end: 20 * us, parent: 0},
		{name: "send", start: 30 * us, end: 50 * us, parent: 0},
		{name: "recv_wait", start: 100 * us, end: 140 * us, parent: -1},
		{name: "busy", start: 140 * us, end: 150 * us, parent: -1},
		{name: "send", start: 145 * us, end: 160 * us, parent: 4}, // overruns its parent: only the overlap counts
	}
	want := []time.Duration{70 * us, 10 * us, 20 * us, 40 * us, 5 * us, 15 * us}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestTracedEndpointTransparent drives a wrapped two-rank cluster from
// two goroutines (run under -race): payloads must arrive byte for byte,
// the Waiter capability must survive wrapping, and the spans must
// alternate busy / recv_wait with sends parented to busy spans.
func TestTracedEndpointTransparent(t *testing.T) {
	const rounds = 200
	c := chancomm.New(2)
	var traces [2]rankTrace
	t0 := time.Now()
	eps := [2]comm.Endpoint{}
	for r := range eps {
		traces[r].begin(t0)
		eps[r] = traceEndpoint(c.Endpoint(r), &traces[r])
	}
	if _, ok := eps[0].(comm.Waiter); !ok {
		t.Fatal("wrapping dropped the comm.Waiter capability")
	}

	rng := tensor.NewRNG(5)
	payloads := make([][]byte, rounds)
	total := 0
	for i := range payloads {
		payloads[i] = make([]byte, 1+rng.Intn(300))
		for j := range payloads[i] {
			payloads[i][j] = byte(rng.Intn(256))
		}
		total += len(payloads[i])
	}
	done := make(chan struct{})
	go func() { // rank 1 echoes on the result stream
		defer close(done)
		for i := 0; i < rounds; i++ {
			p := eps[1].Recv(0, comm.TagActivation)
			eps[1].Send(0, comm.TagResult, p, 0)
		}
	}()
	for i, p := range payloads {
		eps[0].Send(1, comm.TagActivation, p, 0)
		if !eps[0].(comm.Waiter).WaitRecv(1, comm.TagResult, 10*time.Second) {
			t.Fatalf("round %d: echo never arrived", i)
		}
		if got := eps[0].Recv(1, comm.TagResult); !bytes.Equal(got, p) {
			t.Fatalf("round %d: payload changed in flight", i)
		}
	}
	<-done

	for r := range traces {
		tr := &traces[r]
		tr.closeBusy(time.Since(t0))
		if tr.sends != rounds || tr.bytes != total {
			t.Errorf("rank %d: counted %d sends / %d bytes, want %d / %d", r, tr.sends, tr.bytes, rounds, total)
		}
		var blocked time.Duration
		prev := ""
		for _, s := range tr.spans {
			switch s.name {
			case "send":
				if s.parent < 0 || tr.spans[s.parent].name != "busy" {
					t.Fatalf("rank %d: send span not parented to a busy span", r)
				}
				continue
			case "recv_wait":
				blocked += s.dur()
			}
			if s.name == prev {
				t.Fatalf("rank %d: two %s spans in a row", r, s.name)
			}
			prev = s.name
		}
		if blocked != tr.blocked {
			t.Errorf("rank %d: recv_wait spans sum to %v, blocked total is %v", r, blocked, tr.blocked)
		}
	}
}

func TestEveryInternalPackageMapped(t *testing.T) {
	dirs, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		b, ok := layerOf[d.Name()]
		if !ok {
			t.Errorf("internal/%s has no cpu_share bucket: add it to layerOf", d.Name())
		} else if !slices.Contains(cpuBuckets, b) {
			t.Errorf("internal/%s maps to %q, which is not a cpu_share name", d.Name(), b)
		}
		sym := modulePath + "internal/" + d.Name() + ".F"
		if got := bucketOfFunc(sym); got != b {
			t.Errorf("bucketOfFunc(%q) = %q, want %q", sym, got, b)
		}
	}
	for sym, want := range map[string]string{
		modulePath + "internal/comm/tcpcomm.(*Endpoint).Send":        "comm",
		modulePath + "internal/backend/realbk.(*Worker).evalBatched": "engine",
		modulePath + "internal/tensor.dotAVX2":                       "tensor",
		"github.com/pipeinfer/pipeinfer.Serve":                       "other",
		"main.(*tokenClock).onToken":                                 "other",
		"runtime.futex":                                              "go_runtime",
		"internal/runtime/atomic.(*Uint32).Load":                     "go_runtime",
		"sync.(*Mutex).Lock":                                         "go_runtime",
		"internal/poll.(*FD).Write":                                  "go_net",
		"syscall.Syscall":                                            "go_net",
		"net.(*conn).Read":                                           "go_net",
		"slices.SortFunc[go.shape.int]":                              frameLibrary,
	} {
		if got := bucketOfFunc(sym); got != want {
			t.Errorf("bucketOfFunc(%q) = %q, want %q", sym, got, want)
		}
	}
	// A library leaf is charged to the first frame above it that has a
	// bucket; a stack with none lands in other.
	if got := bucketOfStack([]string{"sort.insertionSort", "sort.Sort", modulePath + "internal/kvpage.(*Cache).VisibleCells"}); got != "kvpage" {
		t.Errorf("library leaf under kvpage charged to %q", got)
	}
	if got := bucketOfStack([]string{"math.Exp"}); got != "other" {
		t.Errorf("orphan library leaf charged to %q, want other", got)
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	check := func(shares map[string]float64) {
		t.Helper()
		sum := 0.0
		for b, s := range shares {
			if !slices.Contains(cpuBuckets, b) {
				t.Errorf("share for unknown bucket %q", b)
			}
			sum += s
		}
		if len(shares) != len(cpuBuckets) || math.Abs(sum-1) > 0.001 {
			t.Errorf("%d shares sum to %v, want %d summing to 1", len(shares), sum, len(cpuBuckets))
		}
	}
	check(sharesOf([]weightedStack{
		{funcs: []string{modulePath + "internal/tensor.Dot"}, weight: 30},
		{funcs: []string{"runtime.mallocgc", modulePath + "internal/serve.(*Scheduler).Step"}, weight: 20},
		{funcs: []string{"math.Exp", modulePath + "internal/model.(*Model).attend"}, weight: 50},
	}))
	check(sharesOf(nil))

	// A real profile, through the protobuf reader.
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 150*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 || len(stacks[0].funcs) == 0 || x == 0 {
		t.Fatalf("decoded %d samples from a 150 ms busy loop", len(stacks))
	}
	check(sharesOf(stacks))
}

func TestRequestSetsPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads() {
		a, b, c := w.requestSets(7), w.requestSets(7), w.requestSets(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different requests", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same requests", w.name)
		}
		if len(a) != w.sets {
			t.Errorf("%s: %d request sets, want %d", w.name, len(a), w.sets)
		}
		for s := range a {
			for i := range a[s] {
				// Prompt lengths, and so the work in a rep, do not depend
				// on the seed.
				if len(a[s][i].Prompt) != len(c[s][i].Prompt) || a[s][i].MaxNew != w.maxNew {
					t.Errorf("%s: set %d request %d shape depends on the seed", w.name, s, i)
				}
			}
		}
	}
}

func TestDeadlineFailsAStuckRep(t *testing.T) {
	stuck := make(chan struct{})
	defer close(stuck)
	_, err := withDeadline(20*time.Millisecond, func() rep { <-stuck; return rep{} })
	if err != errDeadline {
		t.Fatalf("stuck rep returned %v, want errDeadline", err)
	}
	r, err := withDeadline(time.Second, func() rep { return rep{tokens: 3} })
	if err != nil || r.tokens != 3 {
		t.Fatalf("prompt rep returned (%+v, %v)", r, err)
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the program to the
// same workload and metric names, units, directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n prog %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n prog %+v", spec.PerLayer, perLayer)
	}
}
