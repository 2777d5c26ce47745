// Package algo implements the six applications of the Ligra paper (§5) —
// breadth-first search, betweenness centrality, graph radii estimation,
// connected components, PageRank (and PageRank-Delta), and Bellman-Ford —
// plus three extension algorithms from the same research line (k-core
// decomposition, maximal independent set, and triangle counting). Every
// algorithm is expressed against the core.EdgeMap / core.VertexMap
// interface exactly as in the paper, and accepts a core.Options so the
// benchmark harness can force sparse/dense modes and sweep thresholds.
package algo

import (
	"context"
	"sync/atomic"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// BFSResult carries the output of a breadth-first search.
type BFSResult struct {
	// Parents[v] is the BFS-tree parent of v, the source for the source
	// itself, and core.None for unreachable vertices.
	Parents []uint32
	// Rounds is the number of edgeMap rounds (the BFS depth reached).
	Rounds int
	// Visited is the number of reachable vertices (including the source).
	Visited int
}

// BFS runs the paper's breadth-first search (Figure 1/§5.1): the frontier
// expands one level per round; Update claims unvisited destinations with a
// compare-and-swap on the parent array.
func BFS(g graph.View, source uint32, opts core.Options) *BFSResult {
	res, err := BFSCtx(nil, g, source, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// BFSCtx is BFS with cooperative cancellation: ctx (nil = background) is
// observed at chunk granularity inside every round. On interruption it
// returns the partial result — Parents holds a valid BFS forest over all
// vertices claimed so far — together with a *RoundError wrapping the
// cause.
func BFSCtx(ctx context.Context, g graph.View, source uint32, opts core.Options) (*BFSResult, error) {
	n := g.NumVertices()
	parents := make([]uint32, n)
	parallel.Fill(parents, core.None)
	parents[source] = source

	funcs := core.EdgeFuncs{
		// Dense (pull): single writer per destination, plain store.
		Update: func(s, d uint32, _ int32) bool {
			if parents[d] == core.None {
				parents[d] = s
				return true
			}
			return false
		},
		// Sparse (push): CAS claims the parent exactly once.
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			return atomic.CompareAndSwapUint32(&parents[d], core.None, s)
		},
		// Atomic load: sparse workers CAS parents[d] concurrently with
		// other workers' Cond pre-checks on the same destination.
		Cond: func(d uint32) bool { return atomic.LoadUint32(&parents[d]) == core.None },
	}

	// A destination is claimed at most once per round (the CAS / None check
	// is idempotent), so a dense round may stop scanning a vertex's
	// in-edges after the first successful claim.
	opts.DenseEarlyExit = true

	frontier := core.NewSingle(n, source)
	visited := 1
	rounds := 0
	for !frontier.IsEmpty() {
		next, err := core.EdgeMapCtx(ctx, g, frontier, funcs, opts)
		if err != nil {
			return &BFSResult{Parents: parents, Rounds: rounds, Visited: visited},
				roundErr("bfs", rounds, err)
		}
		frontier = next
		visited += frontier.Size()
		if frontier.Size() > 0 {
			rounds++
		}
	}
	return &BFSResult{Parents: parents, Rounds: rounds, Visited: visited}, nil
}

// BFSLevels derives per-vertex BFS levels (distance in edges from the
// source; -1 for unreachable) by rerunning the traversal with a level
// counter. It shares BFS's edgeMap structure and exists because several
// experiments report level-by-level behaviour.
func BFSLevels(g graph.View, source uint32, opts core.Options) []int32 {
	levels, err := BFSLevelsCtx(nil, g, source, opts)
	if err != nil {
		panic(err)
	}
	return levels
}

// BFSLevelsCtx is BFSLevels with cooperative cancellation. On
// interruption the returned slice holds correct levels for every vertex
// reached in completed rounds (-1 elsewhere) alongside a *RoundError.
func BFSLevelsCtx(ctx context.Context, g graph.View, source uint32, opts core.Options) ([]int32, error) {
	levels := make([]int32, g.NumVertices())
	parallel.Fill(levels, int32(-1))
	levels[source] = 0
	rounds, err := levelRounds(ctx, g, source, levels, opts)
	return levels, roundErr("bfs-levels", rounds, err)
}

// levelRounds is the level BFS shared by BFSLevelsCtx and one-root
// ClusterBFS sweeps. levels (-1 everywhere but levels[source] = 0) is the
// claim word: the first update to reach a vertex stores the round, so
// Cond and dense early exit apply exactly as in BFS, and opts picks the
// direction as usual. It returns the number of edgeMap rounds completed
// (on a clean finish, one more than the largest level, as the last round
// finds nothing); on interruption every non-negative level is a genuine
// BFS distance.
func levelRounds(ctx context.Context, g graph.View, source uint32, levels []int32, opts core.Options) (int, error) {
	round := int32(0)
	funcs := core.EdgeFuncs{
		Update: func(_, d uint32, _ int32) bool {
			if levels[d] == -1 {
				levels[d] = round
				return true
			}
			return false
		},
		UpdateAtomic: func(_, d uint32, _ int32) bool {
			return atomic.CompareAndSwapInt32(&levels[d], -1, round)
		},
		// Atomic load: sparse workers CAS levels[d] concurrently with
		// other workers' Cond pre-checks on the same destination.
		Cond: func(d uint32) bool { return atomic.LoadInt32(&levels[d]) == -1 },
	}
	// Same claim-once structure as BFS: dense rounds may early-exit.
	opts.DenseEarlyExit = true
	frontier := core.NewSingle(len(levels), source)
	for !frontier.IsEmpty() {
		round++
		next, err := core.EdgeMapCtx(ctx, g, frontier, funcs, opts)
		if err != nil {
			return int(round - 1), err
		}
		frontier = next
	}
	return int(round), nil
}
