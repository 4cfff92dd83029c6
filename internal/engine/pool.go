package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// PoolStats is the telemetry of one ForEach or Pull call.
type PoolStats struct {
	// Workers is the number of workers actually used.
	Workers int
	// Wall is the elapsed time of the whole call.
	Wall time.Duration
	// Busy is the summed time workers spent inside the item function; with
	// perfectly parallel work Busy approaches Workers * Wall.
	Busy time.Duration
	// Panics counts items whose function panicked past its own recovery
	// (those items get the zero result; the pool never crashes).
	Panics int
}

// Utilization is Busy / (Workers * Wall) in [0,1]: how much of the pool's
// capacity the run kept busy.
func (s PoolStats) Utilization() float64 {
	if s.Workers <= 0 || s.Wall <= 0 {
		return 0
	}
	u := float64(s.Busy) / (float64(s.Workers) * float64(s.Wall))
	if u > 1 {
		u = 1
	}
	return u
}

// ForEach calls f(i) for every i in [0, n) on a bounded worker pool.
// Callers write each outcome straight into row i of slices they own, so
// the pool allocates no result slice and keeps input order for free.
// Workers are clamped to [1, n]; a single worker runs inline with no
// goroutines, so sequential callers pay no scheduling cost. A panic
// escaping f leaves row i as f left it and is counted in
// PoolStats.Panics — one misbehaving item never takes down the pool
// (callers wanting a richer verdict should recover inside f, e.g. via
// Attempt).
func ForEach(n, workers int, f func(i int)) PoolStats {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return PoolStats{Workers: 0}
	}
	start := time.Now()
	var busy time.Duration
	var panics int
	if workers == 1 {
		for i := 0; i < n; i++ {
			d, ok := runIndex(f, i)
			busy += d
			if !ok {
				panics++
			}
		}
	} else {
		busy, panics = forEachParallel(n, workers, f)
	}
	return PoolStats{Workers: workers, Wall: time.Since(start), Busy: busy, Panics: panics}
}

// forEachParallel is ForEach's pool of `workers` goroutines, fed the
// indices over a channel. The sequential path stays out of it, so its
// counters and channel cost nothing when one worker runs inline.
func forEachParallel(n, workers int, f func(i int)) (time.Duration, int) {
	var busy, panics atomic.Int64
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				d, ok := runIndex(f, i)
				busy.Add(int64(d))
				if !ok {
					panics.Add(1)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return time.Duration(busy.Load()), int(panics.Load())
}

// runIndex calls f(i), recovering a panic that escapes it. It returns
// the time f took and whether it returned without panicking.
func runIndex(f func(i int), i int) (d time.Duration, ok bool) {
	t0 := time.Now()
	defer func() {
		d = time.Since(t0)
		ok = recover() == nil
	}()
	f(i)
	return
}

// Pull is the pull-based counterpart of ForEach for callers whose work list
// is dynamic: a pool of workers repeatedly asks next for a task until it
// reports no more work. next is called with the worker index and must be
// safe for concurrent use — it is the scheduler (a shared queue, a
// work-stealing heap); returning ok=false retires the asking worker. A
// panic escaping a task is counted in PoolStats.Panics and does not kill
// its worker. Returns each worker's wall time (pool start to that
// worker's retirement) alongside the pool telemetry. A single worker
// runs inline with no goroutines.
func Pull(workers int, next func(worker int) (task func(), ok bool)) ([]time.Duration, PoolStats) {
	if workers < 1 {
		workers = 1
	}
	walls := make([]time.Duration, workers)
	var busy, panics atomic.Int64
	start := time.Now()
	runTask := func(task func()) {
		t0 := time.Now()
		defer func() {
			busy.Add(int64(time.Since(t0)))
			if r := recover(); r != nil {
				panics.Add(1)
			}
		}()
		task()
	}
	worker := func(w int) {
		for {
			task, ok := next(w)
			if !ok {
				break
			}
			runTask(task)
		}
		walls[w] = time.Since(start)
	}
	if workers == 1 {
		worker(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				worker(w)
			}(w)
		}
		wg.Wait()
	}
	return walls, PoolStats{
		Workers: workers,
		Wall:    time.Since(start),
		Busy:    time.Duration(busy.Load()),
		Panics:  int(panics.Load()),
	}
}
