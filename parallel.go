package eclipse

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel design-space sweep engine.
//
// Every point of a parameter sweep (cache size, bus width, coupling
// grain, ...) is an independent cycle-accurate simulation on its own
// *sim.Kernel, so sweeps are embarrassingly parallel: the engine below
// fans the points out over a bounded worker pool while keeping results
// order-preserving and errors deterministic. Individual kernels are
// single-threaded and are never shared across goroutines (enforced by
// `go test -race`); only the point slots of the results slice are written
// concurrently, each by exactly one worker.

// SweepWorkers bounds the number of simulations the sweep runners execute
// concurrently. It defaults to runtime.NumCPU(). Set it to 1 to force
// sequential execution (useful for debugging or reproducing a failure in
// isolation); values <= 0 also mean NumCPU. It must not be changed while
// a sweep is running.
var SweepWorkers = runtime.NumCPU()

// ParallelMap runs fn(i, items[i]) for every item on a worker pool of at
// most `workers` goroutines (<=0 means runtime.NumCPU()) and returns the
// results in input order.
//
// Cancellation is first-error-wins with deterministic reporting: when a
// point fails, no *new* points are started, in-flight points run to
// completion, and the error returned is the one from the lowest-index
// failing point — independent of goroutine timing. (Items are handed out
// in index order, so every index below a failing one has already been
// dispatched and finishes; the minimum over recorded errors is therefore
// stable across runs and worker counts.)
func ParallelMap[T, R any](items []T, workers int, fn func(i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	if n == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, n)
	var (
		next   atomic.Int64 // next index to dispatch
		failed atomic.Bool  // set on first error: stop dispatching
		wg     sync.WaitGroup
		errs   = make([]error, n)
	)
	results := make([]R, n)
	next.Store(-1)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				r, err := fn(i, items[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runSweep is the shared harness of the SweepPoint-producing runners:
// it maps each parameter through one simulation on the SweepWorkers pool.
func runSweep[T any](params []T, point func(T) (SweepPoint, error)) ([]SweepPoint, error) {
	return ParallelMap(params, SweepWorkers, func(_ int, p T) (SweepPoint, error) {
		return point(p)
	})
}
