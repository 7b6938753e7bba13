// Package parallel is the repository's deterministic fan-out layer: a
// dependency-free bounded worker pool with order-preserving Map/MapSettle
// combinators, first-error cancellation, and panic capture.
//
// Every headline experiment in this reproduction is an embarrassingly
// parallel outer loop — one datacenter per cloud provider (Table I), one
// seeded world per sweep point (Fig. 3), one container per fleet scan.
// This package fans those loops out across cores under a strict
// determinism contract:
//
//   - Inputs are dispatched by index from a single atomic cursor; outputs
//     are written to the result slot of the same index, so the output order
//     is always the input order regardless of completion order.
//   - Reductions over Map results must iterate the returned slice in order
//     (never accumulate inside workers), which keeps floating-point sums
//     bit-identical to the serial loop.
//   - Tasks must be share-nothing (their own world, their own RNG seeded
//     from the task index) or read-only over frozen state; see
//     ARCHITECTURE.md's "Concurrency & determinism contract".
//
// Under that contract, Map(1, …) and Map(8, …) produce byte-identical
// results — a property the differential tests in internal/experiments
// enforce for the paper's tables and figures.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxWorkers caps the pool size to keep goroutine fan-out bounded even on
// very wide hosts; sweeps in this repository have at most a few dozen
// independent tasks.
const MaxWorkers = 64

// Workers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0) (the -j default in the cmd/ binaries), and the
// result is clamped to [1, MaxWorkers].
func Workers(requested int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > MaxWorkers {
		w = MaxWorkers
	}
	// A pool wider than the scheduler can never run two tasks at once: on a
	// GOMAXPROCS=1 host every extra worker is pure fan-out overhead
	// (goroutine startup, cursor contention), which is how the "parallel"
	// benchmarks regressed below their serial twins on 1-CPU runners.
	// Degrade to the serial fast path; the determinism contract makes the
	// output byte-identical either way.
	if w > 1 && runtime.GOMAXPROCS(0) == 1 {
		w = 1
	}
	return w
}

// clampToTasks additionally bounds the pool by the number of tasks; a pool
// larger than the task count only burns goroutine startup.
func clampToTasks(workers, tasks int) int {
	w := Workers(workers)
	if tasks < 1 {
		return 1
	}
	if w > tasks {
		w = tasks
	}
	return w
}

// PanicError converts a worker panic into an ordinary error carrying the
// originating task index and the captured stack, so a panicking sweep point
// fails the sweep instead of crashing the process.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// call invokes fn(i, item) with panic capture.
func call[T, R any](i int, item T, fn func(int, T) (R, error)) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Index: i, Value: p, Stack: stack()}
		}
	}()
	return fn(i, item)
}

// stack returns the current goroutine's stack trace.
func stack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}

// Map applies fn to every item on a bounded worker pool and returns the
// results in input order. Serial execution (workers == 1) runs in the
// calling goroutine with no pool at all, so the serial path is exactly the
// plain loop it replaces.
//
// On failure, Map cancels: tasks not yet dispatched are skipped, already
// running tasks complete, and the returned error is the failing error with
// the lowest task index among those that ran (with cancellation, *which*
// tasks ran can depend on scheduling; under the share-nothing contract each
// task's own error is deterministic). Results are discarded on error.
func Map[T, R any](workers int, items []T, fn func(int, T) (R, error)) ([]R, error) {
	n := len(items)
	if n == 0 {
		return []R{}, nil
	}
	w := clampToTasks(workers, n)
	out := make([]R, n)
	if w == 1 {
		for i, item := range items {
			r, err := call(i, item, fn)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				r, err := call(i, items[i], fn)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// MapSettle applies fn to every item with no cancellation: all tasks run to
// completion (panics included, converted to *PanicError), and the per-index
// error slice reports each task's outcome. Use it for sweeps where one
// broken world must not kill the others — e.g. the six-cloud Table I
// inspection returning partial results with the failing provider marked.
func MapSettle[T, R any](workers int, items []T, fn func(int, T) (R, error)) ([]R, []error) {
	n := len(items)
	out := make([]R, n)
	errs := make([]error, n)
	if n == 0 {
		return out, errs
	}
	w := clampToTasks(workers, n)
	if w == 1 {
		for i, item := range items {
			out[i], errs[i] = call(i, item, fn)
		}
		return out, errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = call(i, items[i], fn)
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// FirstError returns the lowest-index non-nil error of a MapSettle error
// slice, or nil when every task succeeded.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
