package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"ligra/internal/delta"
	"ligra/internal/graph"
	"ligra/internal/seq"
)

// oracle is what the output checks need from a graph, computed with the
// sequential algorithms of internal/seq outside the measured window.
type oracle struct {
	n          int
	labels     []uint32 // component label (minimum member ID) per vertex
	compSize   []int32  // component size, indexed by label
	components int
	giant      []uint32 // members of the largest component: the source pool
}

func newOracle(g graph.View) *oracle {
	n := g.NumVertices()
	o := &oracle{n: n, labels: seq.ConnectedComponents(g), compSize: make([]int32, n)}
	for _, l := range o.labels {
		if o.compSize[l] == 0 {
			o.components++
		}
		o.compSize[l]++
	}
	var big uint32
	for v := range o.compSize {
		if o.compSize[v] > o.compSize[big] {
			big = uint32(v)
		}
	}
	o.giant = make([]uint32, 0, o.compSize[big])
	for v, l := range o.labels {
		if l == big {
			o.giant = append(o.giant, uint32(v))
		}
	}
	return o
}

func (o *oracle) sameComponent(u, v uint32) bool { return o.labels[u] == o.labels[v] }

func (o *oracle) sizeOf(v uint32) int { return int(o.compSize[o.labels[v]]) }

// exact is the answer the sequential oracles give for one query, for the
// fields the server's reply reports.
type exact struct {
	rounds    int     // bfs: deepest BFS level
	distance  int64   // reach: BFS distance to the target, -1 if unreachable
	distances []int64 // landmarks
	maxScore  float64 // bc: largest dependency score
}

// exactFor computes the exact answer for q on g.
func exactFor(g graph.View, q *op) *exact {
	switch q.algo {
	case "bfs", "reach", "landmarks":
		levels := seq.BFSLevels(g, q.source)
		e := &exact{distance: int64(levels[q.target])}
		for _, l := range levels {
			e.rounds = max(e.rounds, int(l))
		}
		for _, l := range q.landmarks {
			e.distances = append(e.distances, int64(levels[l]))
		}
		return e
	case "bc":
		e := &exact{}
		for _, s := range seq.BC(g, q.source) {
			e.maxScore = max(e.maxScore, s)
		}
		return e
	}
	return nil
}

// updatePlan draws edge inserts and deletes that leave every snapshot
// version with the base graph's connected components, so the component
// oracle checks every answer at every version:
//   - an insert joins two vertices of the giant component that are not
//     yet adjacent;
//   - a delete removes an edge (u, v) joined by a bypass path of two or
//     three edges that are never deleted, so u and v stay connected.
//
// No edge is touched twice, so the graph after any set of commits is the
// base minus the deletes plus the inserts they contain, in any order.
type updatePlan struct {
	inserts, deletes [][2]uint32
}

func edgeKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func adjacent(g *graph.Graph, u, v uint32) bool {
	row, _ := g.OutEdgesSlice(u)
	_, ok := slices.BinarySearch(row, v)
	return ok
}

func planUpdates(g *graph.Graph, o *oracle, rng *rand.Rand, inserts, deletes int) (*updatePlan, error) {
	used := map[uint64]bool{}      // inserted or deleted
	protected := map[uint64]bool{} // a bypass of some deleted edge
	p := &updatePlan{}
	pick := func() uint32 { return o.giant[rng.IntN(len(o.giant))] }
	for tries := 0; len(p.inserts) < inserts; tries++ {
		if tries > 100*inserts {
			return nil, fmt.Errorf("could not draw %d edge inserts", inserts)
		}
		u, v := pick(), pick()
		if u == v || used[edgeKey(u, v)] || adjacent(g, u, v) {
			continue
		}
		used[edgeKey(u, v)] = true
		p.inserts = append(p.inserts, [2]uint32{u, v})
	}
	for tries := 0; len(p.deletes) < deletes; tries++ {
		if tries > 100*deletes {
			return nil, fmt.Errorf("could not draw %d edge deletes", deletes)
		}
		u := pick()
		row, _ := g.OutEdgesSlice(u)
		if len(row) < 2 {
			continue
		}
		v := row[rng.IntN(len(row))]
		k := edgeKey(u, v)
		if used[k] || protected[k] {
			continue
		}
		path, ok := bypass(g, u, v, used)
		if !ok {
			continue
		}
		used[k] = true
		for i := 1; i < len(path); i++ {
			protected[edgeKey(path[i-1], path[i])] = true
		}
		p.deletes = append(p.deletes, [2]uint32{u, v})
	}
	return p, nil
}

// bypass finds a path u, ..., v of two or three edges, none deleted and
// none the edge (u, v) itself: through a common neighbour (a triangle)
// or, on triangle-free graphs such as the grid, across a 4-cycle.
func bypass(g *graph.Graph, u, v uint32, used map[uint64]bool) ([]uint32, bool) {
	a, _ := g.OutEdgesSlice(u)
	b, _ := g.OutEdgesSlice(v)
	free := func(x, y uint32) bool { return !used[edgeKey(x, y)] && edgeKey(x, y) != edgeKey(u, v) }
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if w := a[i]; free(u, w) && free(w, v) {
				return []uint32{u, w, v}, true
			}
			i++
			j++
		}
	}
	if len(a)*len(b) > 1<<14 {
		return nil, false // hubs: a 3-edge search would dominate the plan
	}
	for _, x := range a {
		if x == v || !free(u, x) {
			continue
		}
		for _, y := range b {
			if y != u && y != x && free(y, v) && free(x, y) && adjacent(g, x, y) {
				return []uint32{u, x, y, v}, true
			}
		}
	}
	return nil, false
}

// requests splits the plan into update requests of perReq ops each,
// alternating inserts and deletes. On a weighted graph an insert carries
// the hash weight the graph's own edges were given.
func (p *updatePlan) requests(perReq int, weighted bool) [][]delta.EdgeOp {
	var all []delta.EdgeOp
	weight := graph.HashWeight(maxWeight)
	for i := 0; i < max(len(p.inserts), len(p.deletes)); i++ {
		if i < len(p.inserts) {
			u, v := p.inserts[i][0], p.inserts[i][1]
			op := delta.EdgeOp{Src: u, Dst: v}
			if weighted {
				op.Weight = weight(u, v, 0)
			}
			all = append(all, op)
		}
		if i < len(p.deletes) {
			all = append(all, delta.EdgeOp{Src: p.deletes[i][0], Dst: p.deletes[i][1], Del: true})
		}
	}
	var out [][]delta.EdgeOp
	for len(all) > 0 {
		k := min(perReq, len(all))
		out = append(out, all[:k:k])
		all = all[k:]
	}
	return out
}

// apply returns the base graph with every insert and delete of the plan
// applied: the graph every snapshot converges to once all commits land.
func (p *updatePlan) apply(g *graph.Graph) (*graph.Graph, error) {
	del := make(map[uint64]bool, len(p.deletes))
	for _, e := range p.deletes {
		del[edgeKey(e[0], e[1])] = true
	}
	n := g.NumVertices()
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		row, _ := g.OutEdgesSlice(uint32(u))
		for _, v := range row {
			if uint32(u) < v && !del[edgeKey(uint32(u), v)] {
				edges = append(edges, graph.Edge{Src: uint32(u), Dst: v})
			}
		}
	}
	for _, e := range p.inserts {
		edges = append(edges, graph.Edge{Src: e[0], Dst: e[1]})
	}
	out, err := graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true, RemoveSelfLoops: true, RemoveDuplicates: true})
	if err != nil {
		return nil, err
	}
	if g.Weighted() {
		out = out.AddWeights(graph.HashWeight(maxWeight))
	}
	return out, nil
}
