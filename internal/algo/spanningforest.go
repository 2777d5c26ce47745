package algo

import (
	"sync/atomic"

	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// ForestResult carries a spanning forest.
type ForestResult struct {
	// Edges are the forest edges (Src = parent, Dst = child); there are
	// exactly NumVertices - Components of them.
	Edges []graph.Edge
	// Roots are the forest roots, one per connected component.
	Roots []uint32
}

// SpanningForest computes a spanning forest of a symmetric graph with
// BFS waves started from every still-unvisited vertex, gathering the
// discovered (parent -> child) tree edges through EdgeMapData — the
// data-carrying frontier interface of the Ligra lineage (vertexSubsetData
// / edgeMapData). All components are processed, so the result spans the
// whole graph.
func SpanningForest(g graph.View, opts core.Options) *ForestResult {
	n := g.NumVertices()
	parents := make([]uint32, n)
	parallel.Fill(parents, core.None)

	funcs := core.EdgeDataFuncs[uint32]{
		Update: func(s, d uint32, _ int32) (uint32, bool) {
			if parents[d] == core.None {
				parents[d] = s
				return s, true
			}
			return 0, false
		},
		UpdateAtomic: func(s, d uint32, _ int32) (uint32, bool) {
			if atomic.CompareAndSwapUint32(&parents[d], core.None, s) {
				return s, true
			}
			return 0, false
		},
		Cond: func(d uint32) bool { return atomic.LoadUint32(&parents[d]) == core.None },
	}

	var forest []graph.Edge
	var roots []uint32
	for start := uint32(0); int(start) < n; start++ {
		if parents[start] != core.None {
			continue
		}
		parents[start] = start
		roots = append(roots, start)
		frontier := core.NewSingle(n, start)
		for !frontier.IsEmpty() {
			out := core.EdgeMapData(g, frontier, funcs, opts)
			for _, p := range out.Pairs() {
				forest = append(forest, graph.Edge{Src: p.Val, Dst: p.V})
			}
			frontier = out.Subset()
		}
	}
	return &ForestResult{Edges: forest, Roots: roots}
}
