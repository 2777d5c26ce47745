package algo

import (
	"math/rand"
	"testing"

	"ligra/internal/compress"
	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/seq"
)

func TestMaximalMatchingValid(t *testing.T) {
	for _, gname := range []string{"rmat", "grid3d", "path", "star", "tree", "er-sparse"} {
		g := testGraphs(t)[gname]
		res := MaximalMatching(g, 7)
		const none = ^uint32(0)
		n := g.NumVertices()
		matchedEdges := 0
		for v := uint32(0); int(v) < n; v++ {
			p := res.Partner[v]
			if p == none {
				continue
			}
			// Symmetry of the matching.
			if res.Partner[p] != v {
				t.Fatalf("%s: partner asymmetry: %d->%d->%d", gname, v, p, res.Partner[p])
			}
			// Matched pairs must be actual edges.
			found := false
			g.OutNeighbors(v, func(d uint32, _ int32) bool {
				if d == p {
					found = true
					return false
				}
				return true
			})
			if !found {
				t.Fatalf("%s: matched pair (%d, %d) is not an edge", gname, v, p)
			}
			if p > v {
				matchedEdges++
			}
		}
		if matchedEdges != res.Size {
			t.Errorf("%s: Size = %d, counted %d", gname, res.Size, matchedEdges)
		}
		// Maximality: no edge with both endpoints unmatched.
		for v := uint32(0); int(v) < n; v++ {
			if res.Partner[v] != none {
				continue
			}
			g.OutNeighbors(v, func(d uint32, _ int32) bool {
				if d != v && res.Partner[d] == none {
					t.Fatalf("%s: edge (%d, %d) has both endpoints unmatched", gname, v, d)
				}
				return true
			})
		}
	}
}

func TestMaximalMatchingKnownSizes(t *testing.T) {
	// Path of 2: exactly one matched edge.
	p2, _ := gen.Path(2)
	if res := MaximalMatching(p2, 1); res.Size != 1 {
		t.Errorf("P2 matching size %d, want 1", res.Size)
	}
	// Star: exactly one edge can match.
	st, _ := gen.Star(20)
	if res := MaximalMatching(st, 1); res.Size != 1 {
		t.Errorf("star matching size %d, want 1", res.Size)
	}
	// Complete graph K6: perfect matching of size 3 is maximal, and any
	// maximal matching in K6 has size >= 2; greedy yields 3 or 2.
	k6, _ := gen.Complete(6)
	if res := MaximalMatching(k6, 1); res.Size < 2 || res.Size > 3 {
		t.Errorf("K6 matching size %d", res.Size)
	}
}

func TestColoringProper(t *testing.T) {
	for _, gname := range []string{"rmat", "grid3d", "path", "star", "tree", "er-sparse"} {
		g := testGraphs(t)[gname]
		res := Coloring(g, 3, core.Options{})
		maxDeg := 0
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			if d := g.OutDegree(v); d > maxDeg {
				maxDeg = d
			}
			if res.Colors[v] < 0 {
				t.Fatalf("%s: vertex %d uncolored", gname, v)
			}
			g.OutNeighbors(v, func(d uint32, _ int32) bool {
				if d != v && res.Colors[d] == res.Colors[v] {
					t.Fatalf("%s: adjacent %d and %d share color %d", gname, v, d, res.Colors[v])
				}
				return true
			})
		}
		if res.NumColors > maxDeg+1 {
			t.Errorf("%s: %d colors exceeds maxdeg+1 = %d", gname, res.NumColors, maxDeg+1)
		}
	}
}

func TestColoringKnownCounts(t *testing.T) {
	// Bipartite path: greedy with any order uses at most 2 colors... greedy
	// can use 2 (never 3 on a path processed in any priority order? greedy
	// on a path can use 3 in adversarial orders, but <= maxdeg+1 = 3).
	p, _ := gen.Path(50)
	res := Coloring(p, 5, core.Options{})
	if res.NumColors > 3 {
		t.Errorf("path colored with %d colors", res.NumColors)
	}
	// Complete graph needs exactly n colors.
	k5, _ := gen.Complete(5)
	res = Coloring(k5, 5, core.Options{})
	if res.NumColors != 5 {
		t.Errorf("K5 colored with %d colors, want 5", res.NumColors)
	}
}

func TestColoringDeterministic(t *testing.T) {
	g := testGraphs(t)["rmat"]
	a := Coloring(g, 42, core.Options{})
	b := Coloring(g, 42, core.Options{Mode: core.ForceSparse})
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatalf("coloring not internally deterministic at vertex %d", v)
		}
	}
}

func TestSCCMatchesTarjan(t *testing.T) {
	// Hand-built: two 3-cycles joined by a one-way edge, plus a loner.
	g, err := graph.FromEdges(7, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 2, Dst: 3},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.SCC(g)
	got := SCC(g, core.Options{})
	for v := range want {
		if got.Labels[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, got.Labels[v], want[v])
		}
	}
	if got.Components != 3 {
		t.Errorf("Components = %d, want 3 (two cycles + loner)", got.Components)
	}
}

func TestSCCRandomizedAgainstTarjan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(120)
		m := rng.Intn(4 * n)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n))}
		}
		g, err := graph.FromEdges(n, edges, graph.BuildOptions{RemoveSelfLoops: true, RemoveDuplicates: true})
		if err != nil {
			t.Fatal(err)
		}
		want := seq.SCC(g)
		got := SCC(g, core.Options{})
		for v := range want {
			if got.Labels[v] != want[v] {
				t.Fatalf("trial %d: label[%d] = %d, want %d", trial, v, got.Labels[v], want[v])
			}
		}
	}
}

func TestSCCDirectedRMAT(t *testing.T) {
	g, err := gen.RMATDirected(8, 4, gen.PBBSRMAT, 12)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.SCC(g)
	got := SCC(g, core.Options{})
	for v := range want {
		if got.Labels[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, got.Labels[v], want[v])
		}
	}
}

func TestSCCOnSymmetricEqualsCC(t *testing.T) {
	// On an undirected graph SCCs are the connected components.
	g := testGraphs(t)["er-sparse"]
	want := seq.ConnectedComponents(g)
	got := SCC(g, core.Options{})
	for v := range want {
		if got.Labels[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, got.Labels[v], want[v])
		}
	}
}

func TestKCoreJulienneMatchesPeeling(t *testing.T) {
	for gname, g := range testGraphs(t) {
		if !g.Symmetric() {
			continue
		}
		a := KCore(g, core.Options{})
		b := KCoreJulienne(g, core.Options{})
		if a.MaxCore != b.MaxCore {
			t.Fatalf("%s: MaxCore %d vs %d", gname, a.MaxCore, b.MaxCore)
		}
		for v := range a.Coreness {
			if a.Coreness[v] != b.Coreness[v] {
				t.Fatalf("%s: coreness[%d] = %d vs %d", gname, v, a.Coreness[v], b.Coreness[v])
			}
		}
	}
}

func TestKCoreJulienneKnownValues(t *testing.T) {
	k5, _ := gen.Complete(5)
	res := KCoreJulienne(k5, core.Options{})
	for v, c := range res.Coreness {
		if c != 4 {
			t.Errorf("K5 coreness[%d] = %d, want 4", v, c)
		}
	}
	st, _ := gen.Star(10)
	res = KCoreJulienne(st, core.Options{})
	for v, c := range res.Coreness {
		if c != 1 {
			t.Errorf("star coreness[%d] = %d, want 1", v, c)
		}
	}
}

// TestSpanningForestProperties runs SpanningForest in every mode on every
// symmetric test graph and on its compressed copy, and checks the forest
// against seq.ConnectedComponents: n - #components edges, all in the
// graph, and one root per component that every vertex reaches by
// following its parent edges.
func TestSpanningForestProperties(t *testing.T) {
	for gname, g := range testGraphs(t) {
		if !g.Symmetric() {
			continue
		}
		c, err := compress.Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		label := seq.ConnectedComponents(g)
		comps := map[uint32]bool{}
		for _, l := range label {
			comps[l] = true
		}
		n := g.NumVertices()
		for _, view := range []struct {
			name string
			g    graph.View
		}{{"csr", g}, {"compressed", c}} {
			for _, mode := range []struct {
				name string
				mode core.Mode
			}{{"auto", core.Auto}, {"sparse", core.ForceSparse}, {"dense", core.ForceDense}} {
				name := gname + "/" + view.name + "/" + mode.name
				res := SpanningForest(view.g, core.Options{Mode: mode.mode})
				if len(res.Edges) != n-len(comps) {
					t.Fatalf("%s: %d forest edges, want %d", name, len(res.Edges), n-len(comps))
				}
				if len(res.Roots) != len(comps) {
					t.Fatalf("%s: %d roots, want %d", name, len(res.Roots), len(comps))
				}
				parent := make([]uint32, n)
				for v := range parent {
					parent[v] = core.None
				}
				for _, e := range res.Edges {
					if parent[e.Dst] != core.None {
						t.Fatalf("%s: vertex %d has two parents", name, e.Dst)
					}
					parent[e.Dst] = e.Src
					found := false
					g.OutNeighbors(e.Src, func(d uint32, _ int32) bool {
						found = d == e.Dst
						return !found
					})
					if !found {
						t.Fatalf("%s: forest edge %d->%d not in graph", name, e.Src, e.Dst)
					}
				}
				rootOf := map[uint32]uint32{} // component label -> root
				for _, r := range res.Roots {
					if parent[r] != core.None {
						t.Fatalf("%s: root %d has a parent", name, r)
					}
					if _, dup := rootOf[label[r]]; dup {
						t.Fatalf("%s: two roots in component %d", name, label[r])
					}
					rootOf[label[r]] = r
				}
				for v := uint32(0); int(v) < n; v++ {
					// n-1 parent steps reach any root; more means a cycle.
					u := v
					for steps := 0; parent[u] != core.None && steps < n; steps++ {
						u = parent[u]
					}
					if u != rootOf[label[v]] {
						t.Fatalf("%s: vertex %d climbs to %d, want its component's root %d",
							name, v, u, rootOf[label[v]])
					}
				}
			}
		}
	}
}
