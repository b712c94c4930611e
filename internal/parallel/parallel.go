// Package parallel is the bounded worker pool behind the labeling
// pipeline: workload collection, feature-snapshot labeling, and the
// experiments suite all fan their (environment × query) work out through
// it.
//
// Every helper here is deterministic by construction: tasks are identified
// by index, results land in index-addressed slots, and reductions happen
// in index order after the pool drains. Combined with the engine's
// explicit noise sequencing (engine.Executor.ExecuteSeq), this makes the
// labeling pipeline produce bit-identical output at any worker count —
// the regression guarantee tested in workload's determinism test.
//
// The process-wide default worker count is GOMAXPROCS; cmd/qcfe-bench
// exposes it as -workers. A count of 1 short-circuits to a plain loop, so
// single-core machines pay no goroutine overhead.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// defaultWorkers overrides the process-wide default when positive.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default worker count used when a
// call site passes workers <= 0. Passing n <= 0 restores the GOMAXPROCS
// default.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the process-wide default worker count.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Workers resolves a requested worker count: n itself when positive,
// otherwise the process default.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return DefaultWorkers()
}

// ForEach runs fn(i) for every i in [0, n) on at most `workers` goroutines
// (<= 0 selects the process default). It returns when every call has
// finished. fn must write its result into caller-owned, index-i state —
// that is what keeps the fan-in deterministic.
func ForEach(n, workers int, fn func(i int)) {
	ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with a worker identity: fn(w, i) runs task i on
// worker w, where w is in [0, Workers(workers)). Callers use w to maintain
// per-goroutine state (e.g. one engine.Executor per worker) without locks.
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	ForEachWorkerCtx(context.Background(), n, workers, fn)
}

// WorkerPanic is the value ForEachWorkerCtx re-panics with on the calling
// goroutine when fn panicked on a pool worker: the worker's panic value
// and its stack at the time of the panic.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", p.Value, p.Stack)
}

// Unwrap returns the panic value when it is an error.
func (p *WorkerPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// ForEachWorkerCtx is ForEachWorker with cooperative cancellation: every
// worker checks ctx before claiming each task and stops claiming once ctx
// is cancelled. Tasks already running are allowed to finish — fn is never
// interrupted mid-call — so when ForEachWorkerCtx returns, no fn is still
// executing. It returns ctx's error when cancellation kept at least the
// task claim loop from completing, nil when every task ran.
//
// A panic in fn never escapes on a pool goroutine, where no caller could
// recover it: the first one is captured as a *WorkerPanic, the workers
// stop claiming tasks, and once the pool has drained ForEachWorkerCtx
// re-panics with it on the calling goroutine, so the caller's own recover
// (net/http's, say) sees it. With one worker fn runs on the calling
// goroutine and its panic propagates as is.
func ForEachWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}
	var next atomic.Int64
	var panicked atomic.Pointer[WorkerPanic]
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &WorkerPanic{Value: r, Stack: debug.Stack()})
				}
			}()
			for ctx.Err() == nil && panicked.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(g)
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	if int(next.Load()) < n {
		return ctx.Err()
	}
	return nil
}

// ForEachCtx is ForEach with cooperative cancellation (see
// ForEachWorkerCtx for the exact semantics).
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	return ForEachWorkerCtx(ctx, n, workers, func(_, i int) { fn(i) })
}

// Map runs fn for every index and returns the results in index order. If
// any call fails, Map returns the error of the lowest failing index (after
// every call has finished), so the reported failure does not depend on
// scheduling.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), n, workers, fn)
}

// MapCtx is Map with cooperative cancellation: workers stop claiming
// tasks once ctx is cancelled and MapCtx returns an error. A task error
// (lowest failing index) takes precedence over the cancellation error,
// so error reporting stays deterministic.
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ctxErr := ForEachWorkerCtx(ctx, n, workers, func(_, i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return out, nil
}

// Do runs every task function concurrently on the pool and returns the
// error of the lowest failing index. It is Map for heterogeneous jobs —
// the experiments suite uses it to run independent figure/table runners
// side by side.
func Do(workers int, tasks ...func() error) error {
	return DoCtx(context.Background(), workers, tasks...)
}

// DoCtx is Do with cooperative cancellation: tasks not yet started when
// ctx is cancelled never start, and DoCtx then returns ctx's error
// (unless an earlier-indexed task failed first).
func DoCtx(ctx context.Context, workers int, tasks ...func() error) error {
	_, err := MapCtx(ctx, len(tasks), workers, func(i int) (struct{}, error) {
		return struct{}{}, tasks[i]()
	})
	return err
}
