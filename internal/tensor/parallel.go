package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the per-call concurrency of ParallelRange. It defaults
// to GOMAXPROCS and may be lowered (e.g. to 1 for deterministic profiling
// or allocation tests) via SetParallelism.
var maxWorkers atomic.Int32

func init() {
	maxWorkers.Store(int32(runtime.GOMAXPROCS(0)))
}

// SetParallelism bounds the number of concurrent chunks used for tensor
// kernels. n < 1 resets to GOMAXPROCS. It returns the previous setting.
//
// With parallelism 1 every kernel runs inline on the calling goroutine and
// performs no heap allocation, which is what TestDecodeStepAllocs relies
// on; with parallelism > 1 chunks are executed by a persistent worker pool
// that is started once and lives for the process lifetime (no per-call
// goroutine spawns).
func SetParallelism(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(maxWorkers.Swap(int32(n)))
}

// minChunk is the smallest per-chunk row count worth handing to another
// goroutine: below this, pool handoff overhead dominates the kernel.
const minChunk = 64

// chunkJob is one contiguous [lo, hi) slice of a ParallelRange call,
// executed by a pool worker.
type chunkJob struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	poolOnce sync.Once
	poolJobs chan chunkJob
)

// startPool launches the persistent kernel worker pool: GOMAXPROCS-1
// long-lived goroutines parked on a shared work channel (the caller of
// ParallelRange always executes one chunk itself, so pool workers only
// need to cover the remaining cores). The pool is shared by every
// concurrent kernel call in the process; workers never block on anything
// but the channel, so concurrent ParallelRange calls from multiple
// pipeline ranks simply interleave their chunks.
func startPool() {
	n := runtime.GOMAXPROCS(0) - 1
	if n < 1 {
		n = 1
	}
	poolJobs = make(chan chunkJob, 8*n)
	for i := 0; i < n; i++ {
		go func() {
			for j := range poolJobs {
				j.fn(j.lo, j.hi)
				j.wg.Done()
			}
		}()
	}
}

// ParallelActive reports whether ParallelRange would fan out for an
// n-element range under the current parallelism setting. Kernels use it to
// keep a closure-free (and therefore allocation-free) serial fast path.
func ParallelActive(n int) bool {
	return int(maxWorkers.Load()) > 1 && n >= 2*minChunk
}

// ParallelRange splits [0, n) into contiguous chunks and invokes fn on
// each chunk concurrently, using the persistent worker pool. The final
// chunk runs on the calling goroutine. Small ranges (or parallelism 1) run
// entirely inline.
//
// fn must not itself call ParallelRange: chunks execute on pool workers,
// and nested fan-out from a worker could starve the pool.
func ParallelRange(n int, fn func(lo, hi int)) {
	if !ParallelActive(n) {
		fn(0, n)
		return
	}
	poolOnce.Do(startPool)
	workers := int(maxWorkers.Load())
	chunks := (n + minChunk - 1) / minChunk
	if chunks > workers {
		chunks = workers
	}
	per := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	lo := 0
	for ; lo+per < n; lo += per {
		wg.Add(1)
		poolJobs <- chunkJob{fn: fn, lo: lo, hi: lo + per, wg: &wg}
	}
	fn(lo, n)
	wg.Wait()
}
