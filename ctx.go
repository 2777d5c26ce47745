package ligra

import (
	"context"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/parallel"
)

// Cancellation-aware API. Every *Ctx function accepts a context.Context
// (nil is treated as context.Background()) that is observed cooperatively
// at chunk granularity inside parallel loops: a cancelled or expired
// context stops the computation within roughly one chunk of parallel
// work. Interrupted algorithms return their partial result — each result
// type documents what "partial" means — together with a *RoundError that
// wraps the cause, so errors.Is(err, context.DeadlineExceeded) and
// friends see through it.
//
// Worker panics inside any parallel region are captured and surface as a
// *PanicError: the non-ctx entry points re-panic with it, the *Ctx entry
// points return it as an error.

type (
	// PanicError is a panic captured inside a parallel worker, carrying
	// the original panic value and stack.
	PanicError = parallel.PanicError
	// RoundError wraps an interruption error with the algorithm name and
	// the round it was interrupted after; Unwrap exposes the cause.
	RoundError = algo.RoundError
)

// EdgeMapCtx is EdgeMap with cooperative cancellation; it returns a nil
// frontier and an error if the traversal was interrupted or a worker
// panicked. A nil ctx behaves like context.Background().
func EdgeMapCtx(ctx context.Context, g View, u *VertexSubset, f EdgeFuncs, opts Options) (*VertexSubset, error) {
	return core.EdgeMapCtx(ctx, g, u, f, opts)
}

// WithParallelism returns a context that caps the worker goroutines used
// by every *Ctx entry point run under it at p, letting concurrent
// computations share one machine with different worker budgets. The
// effective count is min(p, Parallelism()).
func WithParallelism(ctx context.Context, p int) context.Context {
	return parallel.WithProcs(ctx, p)
}

// VertexMapCtx is VertexMap with cooperative cancellation.
func VertexMapCtx(ctx context.Context, u *VertexSubset, fn func(v uint32)) error {
	return core.VertexMapCtx(ctx, u, fn)
}

// BFSCtx is BFS with cooperative cancellation; Parents is a valid
// partial BFS forest on interruption.
func BFSCtx(ctx context.Context, g View, source uint32, opts Options) (*BFSResult, error) {
	return algo.BFSCtx(ctx, g, source, opts)
}

// BFSLevelsCtx is BFSLevels with cooperative cancellation.
func BFSLevelsCtx(ctx context.Context, g View, source uint32, opts Options) ([]int32, error) {
	return algo.BFSLevelsCtx(ctx, g, source, opts)
}

// BCCtx is BC with cooperative cancellation.
func BCCtx(ctx context.Context, g View, source uint32, opts Options) (*BCResult, error) {
	return algo.BCCtx(ctx, g, source, opts)
}

// BCApproxCtx is BCApprox with cooperative cancellation; the estimator is
// rescaled over the sources that completed.
func BCApproxCtx(ctx context.Context, g View, k int, seed uint64, opts Options) (*BCApproxResult, error) {
	return algo.BCApproxCtx(ctx, g, k, seed, opts)
}

// RadiiCtx is Radii with cooperative cancellation; estimates remain
// valid lower bounds on interruption.
func RadiiCtx(ctx context.Context, g View, opts RadiiOptions) (*RadiiResult, error) {
	return algo.RadiiCtx(ctx, g, opts)
}

// RadiiMultiCtx is RadiiMulti with cooperative cancellation.
func RadiiMultiCtx(ctx context.Context, g View, k int, seed uint64, opts Options) (*RadiiResult, error) {
	return algo.RadiiMultiCtx(ctx, g, k, seed, opts)
}

// ConnectedComponentsCtx is ConnectedComponents with cooperative
// cancellation; Labels form a valid coarsening on interruption.
func ConnectedComponentsCtx(ctx context.Context, g View, opts Options) (*CCResult, error) {
	return algo.ConnectedComponentsCtx(ctx, g, opts)
}

// PageRankCtx is PageRank with cooperative cancellation; Ranks are those
// of the last fully completed iteration on interruption.
func PageRankCtx(ctx context.Context, g View, opts PageRankOptions) (*PageRankResult, error) {
	return algo.PageRankCtx(ctx, g, opts)
}

// PageRankDeltaCtx is PageRankDelta with cooperative cancellation.
func PageRankDeltaCtx(ctx context.Context, g View, opts PageRankOptions, delta float64) (*PageRankResult, error) {
	return algo.PageRankDeltaCtx(ctx, g, opts, delta)
}

// BellmanFordCtx is BellmanFord with cooperative cancellation; Dist holds
// valid distance upper bounds on interruption.
func BellmanFordCtx(ctx context.Context, g View, source uint32, opts Options) (*SSSPResult, error) {
	return algo.BellmanFordCtx(ctx, g, source, opts)
}

// DeltaSteppingCtx is DeltaStepping with cooperative cancellation; Dist
// holds valid distance upper bounds on interruption.
func DeltaSteppingCtx(ctx context.Context, g View, source uint32, delta int64, opts Options) (*DeltaSteppingResult, error) {
	return algo.DeltaSteppingCtx(ctx, g, source, delta, opts)
}

// KCoreCtx is KCore with cooperative cancellation; Coreness is exact for
// already-peeled vertices on interruption.
func KCoreCtx(ctx context.Context, g View, opts Options) (*KCoreResult, error) {
	return algo.KCoreCtx(ctx, g, opts)
}

// KCoreJulienneCtx is KCoreJulienne with cooperative cancellation.
func KCoreJulienneCtx(ctx context.Context, g View, opts Options) (*KCoreResult, error) {
	return algo.KCoreJulienneCtx(ctx, g, opts)
}

// MISCtx is MIS with cooperative cancellation; InSet is a valid (possibly
// not yet maximal) independent set on interruption.
func MISCtx(ctx context.Context, g View, seed uint64, opts Options) (*MISResult, error) {
	return algo.MISCtx(ctx, g, seed, opts)
}

// SCCCtx is SCC with cooperative cancellation; Labels is exact for
// components finished before the interruption.
func SCCCtx(ctx context.Context, g View, opts Options) (*SCCResult, error) {
	return algo.SCCCtx(ctx, g, opts)
}

// TwoPassEccentricityCtx is TwoPassEccentricity with cooperative
// cancellation.
func TwoPassEccentricityCtx(ctx context.Context, g View, k int, seed uint64, opts Options) (*EccentricityResult, error) {
	return algo.TwoPassEccentricityCtx(ctx, g, k, seed, opts)
}
