package parallel

import "context"

// Context-aware variants of the pool combinators. They obey the same
// determinism contract as their plain counterparts — a context that is
// never cancelled changes nothing about dispatch order or results — and
// add one property the long-running service layer (cmd/leaksd) needs:
// cancelling the context stops the pool from *dispatching* further tasks.
// Tasks already running finish their current item (worlds are
// share-nothing; there is no safe way to abort one mid-tick), so a
// cancelled sweep returns promptly after at most `workers` in-flight
// items complete, instead of orphaning a six-cloud inspection behind a
// dead HTTP client.
//
// Cancellation is reported as ctx.Err() (wrapped task errors win if a
// task failed first). Results computed before cancellation are discarded
// by MapCtx (matching Map's error semantics) and kept by MapSettleCtx
// with per-index ctx.Err() entries for the never-dispatched tail.

// MapCtx is Map with cooperative cancellation: before each task is
// dispatched the context is polled, and a cancelled context stops
// dispatch. fn receives the context so long tasks can poll it themselves.
func MapCtx[T, R any](ctx context.Context, workers int, items []T, fn func(context.Context, int, T) (R, error)) ([]R, error) {
	out, err := Map(workers, items, func(i int, item T) (R, error) {
		if cerr := ctx.Err(); cerr != nil {
			var zero R
			return zero, cerr
		}
		return fn(ctx, i, item)
	})
	if err != nil {
		// Prefer the context error when cancellation raced a task error:
		// callers branch on errors.Is(err, context.Canceled) to distinguish
		// an aborted sweep from a broken one.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	return out, nil
}

// MapSettleCtx is MapSettle with cooperative cancellation: tasks
// dispatched before cancellation run to completion and keep their
// results; tasks reached after cancellation are skipped with ctx.Err()
// recorded at their index. Unlike MapSettle there *is* a way to stop the
// sweep early — but never a way to lose a finished task's result.
func MapSettleCtx[T, R any](ctx context.Context, workers int, items []T, fn func(context.Context, int, T) (R, error)) ([]R, []error) {
	return MapSettle(workers, items, func(i int, item T) (R, error) {
		if cerr := ctx.Err(); cerr != nil {
			var zero R
			return zero, cerr
		}
		return fn(ctx, i, item)
	})
}
