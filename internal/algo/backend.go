package algo

import (
	"context"
	"fmt"

	"ligra/internal/graph"
	"ligra/internal/parallel"
	"ligra/internal/spmv"
)

// This file is the execution-backend abstraction: the three algorithms
// that have GraphBLAS-style semiring kernels (internal/spmv) can run via
// edgeMap or via SpMV, selected per run by Params.Backend. Both backends
// produce bit-identical results (enforced by internal/spmv's property
// tests), which is why the backend is excluded from Params.Canonical —
// a cached result from either backend answers a query for the other.

// Backend names accepted by Params.Backend.
const (
	// BackendEdgeMap is the frontier-based edgeMap execution the paper
	// describes; every algorithm supports it. It is the default.
	BackendEdgeMap = "edgemap"
	// BackendSpMV executes via the semiring kernels in internal/spmv;
	// only the algorithms with kernels (SpMVKernels) accept it.
	BackendSpMV = "spmv"
	// BackendAuto picks per algorithm and graph shape: see ResolveBackend.
	BackendAuto = "auto"
)

// spmvKernels names the algorithms with an spmv kernel.
var spmvKernels = map[string]bool{"bfs": true, "pagerank": true, "triangles": true}

// HasSpMVKernel reports whether the named algorithm can execute on the
// spmv backend.
func HasSpMVKernel(name string) bool { return spmvKernels[name] }

// ResolveBackend maps Params.Backend to the backend a run of the named
// algorithm on g will execute on:
//
//   - "" or "edgemap": edgeMap, always.
//   - "spmv": the semiring kernel; an error if the algorithm has none.
//   - "auto": edgemap for algorithms without a kernel; otherwise the
//     shape rule measured by `ligra-bench -experiment spmv` (see
//     docs/PERFORMANCE.md): spmv whenever the view exposes raw CSR
//     arrays, edgemap otherwise. The scale-16 race has every kernel
//     winning on CSR — PageRank ~3.5x, triangles ~2x, and BFS by
//     15-17% even on the low-degree high-diameter 3d-grid, where the
//     word-walk push beats sparse edgeMap's frontier-array build.
//     Compressed / mapped / snapshot views reach the kernels through
//     neighbor iterators, where spmv has no gather advantage over
//     edgeMap's tuned decode paths, so they stay on edgemap.
//
// Anything else is an error (same wording contract as Params.Validate).
func ResolveBackend(name string, g graph.View, p Params) (string, error) {
	switch p.Backend {
	case "", BackendEdgeMap:
		return BackendEdgeMap, nil
	case BackendSpMV:
		if !HasSpMVKernel(name) {
			return "", fmt.Errorf("algorithm %q has no spmv kernel (backends: bfs, pagerank, triangles)", name)
		}
		return BackendSpMV, nil
	case BackendAuto:
		if !HasSpMVKernel(name) {
			return BackendEdgeMap, nil
		}
		return autoBackend(name, g), nil
	default:
		return "", fmt.Errorf("unknown backend %q (have edgemap | spmv | auto)", p.Backend)
	}
}

func autoBackend(name string, g graph.View) string {
	if _, isCSR := g.(*graph.Graph); !isCSR {
		return BackendEdgeMap
	}
	return BackendSpMV
}

// backendCtx applies the per-call proc lease of the EdgeMap options, the
// one EdgeMap extra meaningful to both backends, mirroring what core's
// edgeMap does internally with the same Options.
func backendCtx(ctx context.Context, p Params) context.Context {
	if p.EdgeMap.Procs > 0 {
		ctx = parallel.WithProcs(ctx, p.EdgeMap.Procs)
	}
	return ctx
}

// spmvBFSRun executes the bfs runner on the spmv backend. Mode and
// Threshold keep their edgeMap meaning (per-round direction forcing and
// dense-switch threshold); "dense-forward" degrades to the pull kernel,
// which is the closest spmv realization.
func spmvBFSRun(ctx context.Context, g graph.View, p Params) (RunResult, error) {
	o := p.EdgeMapOptions()
	res, err := spmv.BFSLevels(backendCtx(ctx, p), g, p.Source, spmv.BFSOptions{
		Mode:      o.Mode,
		Threshold: o.Threshold,
	})
	if res == nil {
		return RunResult{}, err
	}
	return RunResult{
		Summary: fmt.Sprintf("BFS from %d: visited %d vertices in %d rounds", p.Source, res.Visited, res.Rounds),
		Details: map[string]any{"source": p.Source, "visited": res.Visited, "rounds": res.Rounds, "backend": BackendSpMV},
	}, roundErr("bfs", res.Rounds, err)
}

// spmvPageRankRun executes the pagerank runner on the spmv backend with
// the same defaults as the edgeMap path.
func spmvPageRankRun(ctx context.Context, g graph.View, p Params) (RunResult, error) {
	d := DefaultPageRankOptions()
	res, err := spmv.PageRank(backendCtx(ctx, p), g, spmv.PageRankOptions{
		Damping:       d.Damping,
		Epsilon:       d.Epsilon,
		MaxIterations: d.MaxIterations,
	})
	return RunResult{
		Summary: fmt.Sprintf("PageRank: %d iterations, final L1 change %.3g", res.Iterations, res.Err),
		Details: map[string]any{"iterations": res.Iterations, "l1_change": res.Err, "backend": BackendSpMV},
	}, roundErr("pagerank", res.Iterations, err)
}

// spmvTrianglesRun executes the triangles runner on the spmv backend.
func spmvTrianglesRun(ctx context.Context, g graph.View, p Params) (RunResult, error) {
	count, err := spmv.TriangleCount(backendCtx(ctx, p), g)
	return RunResult{
		Summary: fmt.Sprintf("Triangles: %d", count),
		Details: map[string]any{"triangles": count, "backend": BackendSpMV},
	}, roundErr("triangles", 0, err)
}
