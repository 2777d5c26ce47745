package algo

import (
	"context"
	"errors"
	"testing"

	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/parallel"
)

// clusterSources picks k deterministic pseudo-random sources (with
// occasional repeats filtered out by the caller when it wants distinct).
func clusterSources(n, k int, seed uint64) []uint32 {
	out := make([]uint32, k)
	for i := range out {
		out[i] = uint32(hashU64(seed, uint64(i)) % uint64(n))
	}
	return out
}

// TestClusterBFSMatchesSingleSourceBFS is the batching subsystem's core
// property: one bit-parallel sweep over K sources must report, per
// source, exactly what K independent single-source BFS runs report —
// levels, reachability, reach counts, and depth.
func TestClusterBFSMatchesSingleSourceBFS(t *testing.T) {
	for gname, g := range testGraphs(t) {
		n := g.NumVertices()
		for _, k := range []int{1, 3, 17, 64} {
			sources := clusterSources(n, k, uint64(k)*7+3)
			probes := clusterSources(n, 5, 99)
			for mname, opts := range modes {
				res, err := ClusterBFSCtx(nil, g, sources, ClusterBFSOptions{
					EdgeMap:    opts,
					WantLevels: true,
					Probes:     probes,
				})
				if err != nil {
					t.Fatalf("%s/%s k=%d: %v", gname, mname, k, err)
				}
				for i, s := range sources {
					want, err := BFSLevelsCtx(nil, g, s, opts)
					if err != nil {
						t.Fatalf("%s/%s: bfs oracle: %v", gname, mname, err)
					}
					var reached int64
					var depth int32
					for v := 0; v < n; v++ {
						got := res.Levels[i*n+v]
						if got != want[v] {
							t.Fatalf("%s/%s k=%d src[%d]=%d vertex %d: level %d, bfs says %d",
								gname, mname, k, i, s, v, got, want[v])
						}
						bit := res.Visit[v]>>uint(i)&1 == 1
						if bit != (want[v] >= 0) {
							t.Fatalf("%s/%s src[%d]=%d vertex %d: visit bit %v but level %d",
								gname, mname, i, s, v, bit, want[v])
						}
						if want[v] >= 0 {
							reached++
							if want[v] > depth {
								depth = want[v]
							}
						}
					}
					if res.Reached[i] != reached {
						t.Fatalf("%s/%s src[%d]=%d: Reached=%d want %d", gname, mname, i, s, res.Reached[i], reached)
					}
					if res.Depth[i] != depth {
						t.Fatalf("%s/%s src[%d]=%d: Depth=%d want %d", gname, mname, i, s, res.Depth[i], depth)
					}
					for j, p := range probes {
						if res.ProbeLevels[j][i] != want[p] {
							t.Fatalf("%s/%s src[%d]=%d probe %d: %d want %d",
								gname, mname, i, s, p, res.ProbeLevels[j][i], want[p])
						}
						if res.LevelTo(i, p) != want[p] {
							t.Fatalf("%s/%s: LevelTo disagrees with oracle at probe %d", gname, mname, p)
						}
					}
				}
				// MaxLevel[v] must be the max over sources of d(s, v).
				for v := 0; v < n; v++ {
					want := int32(-1)
					for i := range sources {
						if l := res.Levels[i*n+v]; l > want {
							want = l
						}
					}
					if res.MaxLevel[v] != want {
						t.Fatalf("%s/%s vertex %d: MaxLevel=%d want %d", gname, mname, v, res.MaxLevel[v], want)
					}
				}
			}
		}
	}
}

// TestClusterBFSProbesWithoutLevels checks the memory-smart serving path:
// probe rows recorded without the full level matrix match a WantLevels
// run, and LevelTo answers for sources and probes only.
func TestClusterBFSProbesWithoutLevels(t *testing.T) {
	g := testGraphs(t)["rmat"]
	n := g.NumVertices()
	sources := clusterSources(n, 32, 5)
	probes := clusterSources(n, 7, 11)
	probes = append(probes, probes[0], sources[3]) // duplicate probe + source-as-probe
	lean, err := ClusterBFSCtx(nil, g, sources, ClusterBFSOptions{Probes: probes})
	if err != nil {
		t.Fatal(err)
	}
	if lean.Levels != nil {
		t.Fatal("Levels allocated without WantLevels")
	}
	full, err := ClusterBFSCtx(nil, g, sources, ClusterBFSOptions{WantLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	for j, p := range probes {
		for i := range sources {
			if lean.ProbeLevels[j][i] != full.Levels[i*n+int(p)] {
				t.Fatalf("probe %d src %d: %d want %d", p, i, lean.ProbeLevels[j][i], full.Levels[i*n+int(p)])
			}
		}
	}
	for i, s := range sources {
		if lean.LevelTo(i, s) != 0 {
			t.Fatalf("LevelTo(src %d, itself) = %d", i, lean.LevelTo(i, s))
		}
	}
}

// TestClusterBFSDuplicateSources: duplicated sources each get their own
// bit and identical per-source outputs.
func TestClusterBFSDuplicateSources(t *testing.T) {
	g := testGraphs(t)["grid3d"]
	n := g.NumVertices()
	sources := []uint32{5, 5, 17, 5}
	res, err := ClusterBFSCtx(nil, g, sources, ClusterBFSOptions{WantLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if res.Levels[0*n+v] != res.Levels[1*n+v] || res.Levels[0*n+v] != res.Levels[3*n+v] {
			t.Fatalf("duplicate sources disagree at vertex %d", v)
		}
	}
	if res.Reached[0] != res.Reached[1] || res.Depth[0] != res.Depth[3] {
		t.Fatal("duplicate sources disagree on aggregates")
	}
	// Both bits must be set wherever 5 reaches.
	for v := 0; v < n; v++ {
		b := res.Visit[v]
		if (b>>0&1) != (b>>1&1) || (b>>0&1) != (b>>3&1) {
			t.Fatalf("duplicate source bits diverge at vertex %d: %b", v, b)
		}
	}
}

// TestClusterBFSLimits: source count and range violations are typed
// errors, not panics; the empty sweep is trivial.
func TestClusterBFSLimits(t *testing.T) {
	g := testGraphs(t)["path"]
	n := g.NumVertices()
	if _, err := ClusterBFSCtx(nil, g, make([]uint32, 65), ClusterBFSOptions{}); err == nil {
		t.Fatal("65 sources accepted")
	}
	if _, err := ClusterBFSCtx(nil, g, []uint32{uint32(n)}, ClusterBFSOptions{}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	res, err := ClusterBFSCtx(nil, g, nil, ClusterBFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != -1 || len(res.Sources) != 0 {
		t.Fatalf("empty sweep: rounds=%d sources=%d", res.Rounds, len(res.Sources))
	}
}

// TestClusterBFSCancel: a pre-cancelled context interrupts the sweep with
// a *RoundError wrapping context.Canceled, and the partial result is
// safe: sources keep level 0, everything else is -1 or a genuine level.
func TestClusterBFSCancel(t *testing.T) {
	g := testGraphs(t)["rmat"]
	sources := clusterSources(g.NumVertices(), 8, 21)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ClusterBFSCtx(ctx, g, sources, ClusterBFSOptions{WantLevels: true})
	var re *RoundError
	if !errors.As(err, &re) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want RoundError wrapping Canceled, got %v", err)
	}
	if re.Algo != "cluster-bfs" {
		t.Fatalf("algo name %q", re.Algo)
	}
	full, err := ClusterBFSCtx(nil, g, sources, ClusterBFSOptions{WantLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	for i := range sources {
		for v := 0; v < n; v++ {
			got := res.Levels[i*n+v]
			if got >= 0 && got != full.Levels[i*n+v] {
				t.Fatalf("partial level lies: src %d vertex %d: %d vs %d", i, v, got, full.Levels[i*n+v])
			}
		}
	}
}

// TestClusterBFSStatsCounted: the sweep goes through edgeMap, so the
// process-wide traversal counters must move.
func TestClusterBFSStatsCounted(t *testing.T) {
	g := testGraphs(t)["rmat"]
	before := core.SnapshotStats()
	_, err := ClusterBFSCtx(nil, g, clusterSources(g.NumVertices(), 16, 1), ClusterBFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	delta := core.SnapshotStats().Sub(before)
	if delta.Calls == 0 || delta.EdgesScanned == 0 {
		t.Fatalf("traversal stats did not move: %+v", delta)
	}
}

// TestClusterBFSHonoursProcsLease: a sweep run under a one-worker lease
// stays on the calling goroutine end to end — set-up, rounds and the
// closing aggregation alike — for one root and for sixteen. The pool
// size is forced above one so that a pass ignoring the lease would
// dispatch. Not parallel: it reads process-wide scheduler counters.
func TestClusterBFSHonoursProcsLease(t *testing.T) {
	g, err := gen.RMAT(12, 8, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.SetProcs(parallel.SetProcs(4))
	ctx := parallel.WithProcs(context.Background(), 1)
	for _, k := range []int{1, 16} {
		sources := clusterSources(g.NumVertices(), k, 3)
		before := parallel.SchedulerSnapshot()
		if _, err := ClusterBFSCtx(ctx, g, sources, ClusterBFSOptions{}); err != nil {
			t.Fatal(err)
		}
		if d := parallel.SchedulerSnapshot().Sub(before).Dispatches; d != 0 {
			t.Fatalf("k=%d: %d pool dispatches under a one-worker lease", k, d)
		}
	}
}
