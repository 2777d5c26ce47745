package core

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"ligra/internal/graph"
)

func TestDataSubsetBasics(t *testing.T) {
	ds := NewDataSubset(10, []Pair[int]{{V: 3, Val: 30}, {V: 7, Val: 70}})
	if ds.Size() != 2 || ds.IsEmpty() || ds.UniverseSize() != 10 {
		t.Fatal("basics wrong")
	}
	sub := ds.Subset()
	if sub.Size() != 2 || !sub.Contains(3) || !sub.Contains(7) {
		t.Error("Subset() wrong")
	}
	sum := make([]int, 10)
	ds.ForEach(func(v uint32, val int) { sum[v] = val })
	if sum[3] != 30 || sum[7] != 70 {
		t.Error("ForEach wrong")
	}
	empty := NewDataSubset[int](5, nil)
	if !empty.IsEmpty() || empty.Pairs() == nil {
		t.Error("empty DataSubset wrong")
	}
}

func TestEdgeMapDataMatchesOracleAcrossModes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(120)
		g := randomGraph(t, rng, n, rng.Intn(4*n), rng.Intn(2) == 0)
		u := randomSubset(rng, n)

		// Payload: the weight of the winning edge into d; winners are
		// claimed exactly once via a flags array so the no-dedup contract
		// holds.
		runWith := func(opts Options) map[uint32]int32 {
			claimed := make([]uint32, n)
			f := EdgeDataFuncs[int32]{
				UpdateAtomic: func(s, d uint32, w int32) (int32, bool) {
					if atomic.CompareAndSwapUint32(&claimed[d], 0, 1) {
						return w, true
					}
					return 0, false
				},
			}
			out := EdgeMapData(g, u.Clone(), f, opts)
			m := map[uint32]int32{}
			for _, p := range out.Pairs() {
				if _, dup := m[p.V]; dup {
					t.Fatalf("duplicate vertex %d in data output", p.V)
				}
				m[p.V] = p.Val
			}
			return m
		}

		// Oracle: set of reachable destinations (values are
		// traversal-order dependent, so compare keys only, plus check
		// every value is a legal in-edge weight of its vertex).
		wantKeys := map[uint32]bool{}
		u.ForEachSeq(func(s uint32) {
			g.OutNeighbors(s, func(d uint32, _ int32) bool {
				wantKeys[d] = true
				return true
			})
		})
		legalW := func(d uint32, w int32) bool {
			ok := false
			g.InNeighbors(d, func(s uint32, ww int32) bool {
				if ww == w && u.Contains(s) {
					ok = true
					return false
				}
				return true
			})
			return ok
		}
		for _, tc := range []struct {
			name string
			opts Options
		}{
			{"sparse", Options{Mode: ForceSparse}},
			{"dense", Options{Mode: ForceDense}},
			{"auto", Options{}},
		} {
			got := runWith(tc.opts)
			if len(got) != len(wantKeys) {
				t.Fatalf("trial %d %s: %d outputs, want %d", trial, tc.name, len(got), len(wantKeys))
			}
			for v, w := range got {
				if !wantKeys[v] {
					t.Fatalf("trial %d %s: unexpected vertex %d", trial, tc.name, v)
				}
				if !legalW(v, w) {
					t.Fatalf("trial %d %s: vertex %d carries weight %d not on any frontier in-edge",
						trial, tc.name, v, w)
				}
			}
		}
	}
}

func TestEdgeMapDataRemoveDuplicates(t *testing.T) {
	// Updates that always win produce duplicates in sparse mode; dedup
	// keeps exactly one pair per vertex.
	g, err := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 1, Dst: 3},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u := NewSparse(4, []uint32{0, 1})
	f := EdgeDataFuncs[uint32]{
		UpdateAtomic: func(s, d uint32, _ int32) (uint32, bool) { return s, true },
	}
	out := EdgeMapData(g, u, f, Options{Mode: ForceSparse, RemoveDuplicates: true})
	// Pairs come in frontier edge order and dedup keeps the first
	// claimant: 0->2 wins over 1->2.
	want := []Pair[uint32]{{V: 2, Val: 0}, {V: 3, Val: 1}}
	if got := out.Pairs(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("dedup output = %v, want %v", got, want)
	}
}

func TestEdgeMapDataEmptyFrontier(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1}}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := EdgeMapData(g, NewEmpty(2), EdgeDataFuncs[int]{
		UpdateAtomic: func(_, _ uint32, _ int32) (int, bool) { t.Error("called"); return 0, true },
	}, Options{})
	if !out.IsEmpty() {
		t.Error("nonempty output")
	}
}

func TestEdgeMapDataValuesSortStable(t *testing.T) {
	// Values must correspond to their vertices after sorting pairs.
	g, err := graph.FromEdges(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := EdgeDataFuncs[uint32]{
		UpdateAtomic: func(_, d uint32, _ int32) (uint32, bool) { return d * 10, true },
	}
	out := EdgeMapData(g, NewSingle(5, 0), f, Options{Mode: ForceSparse})
	pairs := append([]Pair[uint32](nil), out.Pairs()...)
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].V < pairs[j].V })
	for i, p := range pairs {
		if p.V != uint32(i+1) || p.Val != p.V*10 {
			t.Fatalf("pair %d = %+v", i, p)
		}
	}
}
