package parallel

import (
	"context"
	"runtime"
	"runtime/debug"

	"ligra/internal/faultinject"
)

// The context-aware primitives mirror their plain counterparts with two
// contract changes that make the runtime servable:
//
//   - Cooperative cancellation: ctx is checked once per dispatched chunk,
//     so a loop over billions of iterations returns within one chunk
//     (at most `grain` iterations per worker) of ctx being cancelled.
//     The returned error is ctx.Err() (context.Canceled or
//     context.DeadlineExceeded). Iterations already started complete;
//     none are started after cancellation is observed.
//   - Panic containment: a panic in any worker is captured, the other
//     workers stop claiming chunks, and the panic is returned as a
//     *PanicError instead of re-panicking.
//
// A nil ctx disables the cancellation checks (it behaves like
// context.Background()) but keeps the panic-to-error conversion.
//
// The context can additionally carry a per-call worker cap (WithProcs):
// every primitive here sizes its worker pool by CtxProcs(ctx) instead of
// the process-wide Procs().

// ForCtx is the context-aware For.
func ForCtx(ctx context.Context, n int, body func(i int)) error {
	return ForGrainCtx(ctx, n, 0, body)
}

// ForGrainCtx is the context-aware ForGrain.
func ForGrainCtx(ctx context.Context, n, grain int, body func(i int)) error {
	return ForRangeGrainCtx(ctx, n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRangeCtx is the context-aware ForRange.
func ForRangeCtx(ctx context.Context, n int, body func(lo, hi int)) error {
	return ForRangeGrainCtx(ctx, n, 0, body)
}

// ForRangeGrainCtx is the context-aware ForRangeGrain.
func ForRangeGrainCtx(ctx context.Context, n, grain int, body func(lo, hi int)) error {
	return forChunks(ctx, n, grain, body, nil)
}

// forChunks is the engine behind every parallel loop in the package. Work
// is dispatched onto the persistent worker pool (see pool.go) — no
// goroutines are spawned per call — unless the loop runs inline: procs ==
// 1, a single chunk, or an auto-grain loop small enough for the sequential
// cutoff. Exactly one of rng and wk is non-nil: wk also receives the
// worker and chunk indices. An inline rng loop without a ctx runs as the
// single chunk [0, n).
func forChunks(ctx context.Context, n, grain int, rng func(lo, hi int), wk func(worker, chunk, lo, hi int)) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if n <= 0 {
		return nil
	}
	procs := CtxProcs(ctx)
	auto := grain <= 0
	if auto {
		grain = defaultGrain(n, procs)
	}
	chunks := (n + grain - 1) / grain
	if procs == 1 || chunks == 1 || (auto && n <= seqCutoff) {
		schedStats.inlineRuns.Add(1)
		if procs > 1 && chunks > 1 {
			schedStats.cutoffRuns.Add(1)
		}
		if rng != nil && ctx == nil {
			// No cancellation to observe: run as one chunk, preserving the
			// plain primitives' zero per-chunk overhead.
			grain, chunks = n, 1
		}
		return forSeq(ctx, n, grain, chunks, rng, wk)
	}
	if wk == nil {
		wk = func(_, _, lo, hi int) { rng(lo, hi) }
	}
	return runParallel(ctx, n, grain, chunks, procs, wk)
}

// forSeq runs every chunk of forChunks' loop on the calling goroutine as
// worker 0, still honouring chunk granularity for cancellation checks and
// the fault-injection hook.
func forSeq(ctx context.Context, n, grain, chunks int, rng func(lo, hi int), wk func(worker, chunk, lo, hi int)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	// Yield between chunks on a single-P runtime, the same rule as the
	// pool's chunk loop (job.yield): there the goroutine that cancels the
	// context (a deadline timer, a signal handler) would otherwise wait
	// ~10ms for the runtime's forced preemption. With more Ps it runs
	// beside the loop, and a yield per chunk only costs time.
	yield := ctx != nil && runtime.GOMAXPROCS(0) == 1
	for c := 0; c < chunks; c++ {
		if ctx != nil {
			if yield && c > 0 {
				runtime.Gosched()
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		faultinject.OnChunk()
		lo := c * grain
		hi := min(lo+grain, n)
		if wk != nil {
			wk(0, c, lo, hi)
		} else {
			rng(lo, hi)
		}
	}
	// Match the parallel path, which reports ctx.Err() after the workers
	// drain: a cancellation raised inside the final (or only) chunk is
	// still surfaced.
	return ctxErr(ctx)
}

// DoCtx is the context-aware Do: thunks observed after cancellation are
// skipped (already-running ones complete), and a panic in any thunk is
// returned as a *PanicError. Thunks are dispatched onto the persistent
// worker pool; the caller always executes at least the first one.
func DoCtx(ctx context.Context, thunks ...func()) error {
	if len(thunks) == 0 {
		return ctxErr(ctx)
	}
	procs := CtxProcs(ctx)
	if procs == 1 || len(thunks) == 1 {
		schedStats.inlineRuns.Add(1)
		var box panicBox
		for _, t := range thunks {
			func() {
				defer box.capture()
				if box.stopped.Load() || (ctx != nil && ctx.Err() != nil) {
					return
				}
				t()
			}()
		}
		if box.err != nil {
			return box.err
		}
		return ctxErr(ctx)
	}
	// One chunk per thunk; the pool's chunk loop provides the stop-on-
	// panic and skip-after-cancellation semantics.
	return runParallel(ctx, len(thunks), 1, len(thunks), procs, func(_, c, _, _ int) {
		thunks[c]()
	})
}

// FillCtx is the context-aware Fill.
func FillCtx[T any](ctx context.Context, s []T, v T) error {
	return ForRangeCtx(ctx, len(s), func(lo, hi int) {
		sub := s[lo:hi]
		for i := range sub {
			sub[i] = v
		}
	})
}

// ReduceCtx is the context-aware Reduce.
func ReduceCtx[T any](ctx context.Context, n int, id T, fn func(i int) T, combine func(a, b T) T) (T, error) {
	if n <= 0 {
		return id, ctxErr(ctx)
	}
	blocks := numBlocks(n)
	partial := make([]T, blocks)
	err := ForGrainCtx(ctx, blocks, 1, func(b int) {
		lo, hi := blockBounds(n, blocks, b)
		acc := id
		for i := lo; i < hi; i++ {
			acc = combine(acc, fn(i))
		}
		partial[b] = acc
	})
	if err != nil {
		return id, err
	}
	acc := id
	for _, p := range partial {
		acc = combine(acc, p)
	}
	return acc, nil
}

// SumFuncCtx is the context-aware SumFunc.
func SumFuncCtx[T Number](ctx context.Context, n int, fn func(i int) T) (T, error) {
	var zero T
	return ReduceCtx(ctx, n, zero, fn, func(a, b T) T { return a + b })
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
