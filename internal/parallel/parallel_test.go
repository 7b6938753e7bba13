package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapPreservesInputOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 8, 100} {
		out, err := Map(workers, items, func(i, v int) (string, error) {
			return fmt.Sprintf("%d->%d", i, v*v), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != len(items) {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, s := range out {
			if want := fmt.Sprintf("%d->%d", i, i*i); s != want {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, s, want)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	items := make([]float64, 257)
	for i := range items {
		items[i] = float64(i) * 0.1
	}
	run := func(workers int) []float64 {
		out, err := Map(workers, items, func(i int, v float64) (float64, error) {
			return v*v + float64(i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, w := range []int{2, 7, 16} {
		par := run(w)
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("workers=%d: out[%d] = %v, want %v", w, i, par[i], serial[i])
			}
		}
	}
}

func TestMapErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 4} {
		out, err := Map(workers, items, func(i, v int) (int, error) {
			if v == 3 {
				return 0, fmt.Errorf("task %d: %w", v, boom)
			}
			return v, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if out != nil {
			t.Fatalf("workers=%d: results must be discarded on error", workers)
		}
	}
}

func TestMapCancelsAfterFirstError(t *testing.T) {
	// With one worker, dispatch is strictly in order: the error at index 2
	// must prevent every later task from running at all.
	var ran atomic.Int64
	_, err := Map(1, []int{0, 1, 2, 3, 4, 5}, func(i, v int) (int, error) {
		ran.Add(1)
		if i == 2 {
			return 0, errors.New("stop")
		}
		return v, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("ran %d tasks after cancellation, want 3", got)
	}
}

func TestMapPanicCapture(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, []int{0, 1, 2}, func(i, v int) (int, error) {
			if i == 1 {
				panic("kaboom")
			}
			return v, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 1 {
			t.Fatalf("workers=%d: panic index = %d, want 1", workers, pe.Index)
		}
		if !strings.Contains(pe.Error(), "kaboom") {
			t.Fatalf("workers=%d: panic error %q lacks value", workers, pe.Error())
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic error lacks stack", workers)
		}
	}
}

func TestMapSettleRunsEverythingAndMarksFailures(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5}
	for _, workers := range []int{1, 3} {
		var ran atomic.Int64
		out, errs := MapSettle(workers, items, func(i, v int) (int, error) {
			ran.Add(1)
			if v%2 == 1 {
				return 0, fmt.Errorf("odd %d", v)
			}
			if v == 4 {
				panic("four")
			}
			return v * 10, nil
		})
		if got := ran.Load(); got != int64(len(items)) {
			t.Fatalf("workers=%d: ran %d of %d tasks", workers, got, len(items))
		}
		for i, v := range items {
			switch {
			case v == 4:
				var pe *PanicError
				if !errors.As(errs[i], &pe) {
					t.Fatalf("workers=%d: errs[%d] = %v, want panic error", workers, i, errs[i])
				}
			case v%2 == 1:
				if errs[i] == nil {
					t.Fatalf("workers=%d: errs[%d] = nil, want error", workers, i)
				}
			default:
				if errs[i] != nil || out[i] != v*10 {
					t.Fatalf("workers=%d: out[%d]=%d errs[%d]=%v", workers, i, out[i], i, errs[i])
				}
			}
		}
		if err := FirstError(errs); err == nil || !strings.Contains(err.Error(), "odd 1") {
			t.Fatalf("workers=%d: FirstError = %v, want lowest-index failure", workers, err)
		}
	}
	if err := FirstError([]error{nil, nil}); err != nil {
		t.Fatalf("FirstError over successes = %v", err)
	}
}

func TestWorkersClamping(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	// On a GOMAXPROCS=1 host every multi-worker request degrades to the
	// serial fast path (no concurrency is possible, only fan-out overhead).
	wantWide := func(n int) int {
		if runtime.GOMAXPROCS(0) == 1 {
			return 1
		}
		return n
	}
	if got := Workers(5); got != wantWide(5) {
		t.Fatalf("Workers(5) = %d, want %d", got, wantWide(5))
	}
	if got := Workers(10 * MaxWorkers); got != wantWide(MaxWorkers) {
		t.Fatalf("Workers(big) = %d, want cap %d", got, wantWide(MaxWorkers))
	}
	if got := clampToTasks(16, 3); got != wantWide(3) {
		t.Fatalf("clampToTasks(16,3) = %d, want %d", got, wantWide(3))
	}
	if got := clampToTasks(2, 0); got != 1 {
		t.Fatalf("clampToTasks(2,0) = %d, want 1", got)
	}
}

func TestMapEmptyInput(t *testing.T) {
	out, err := Map(8, nil, func(i int, v struct{}) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: out=%v err=%v", out, err)
	}
}
