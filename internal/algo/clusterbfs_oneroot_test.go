// One-root ClusterBFS sweeps (every source the same vertex) run as plain
// direction-optimizing BFS. These tests hold that path to the sequential
// oracle on every view backend. They live in package algo_test because
// the delta-store snapshot view comes from internal/delta, which imports
// internal/algo.
package algo_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ligra/internal/algo"
	"ligra/internal/compress"
	"ligra/internal/core"
	"ligra/internal/delta"
	"ligra/internal/faultinject"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/seq"
)

var oneRootModes = map[string]core.Options{
	"auto":          {},
	"sparse":        {Mode: core.ForceSparse},
	"dense":         {Mode: core.ForceDense},
	"dense-forward": {Mode: core.ForceDense, DenseForward: true},
}

// oneRootViews builds every backend view of g: the heap CSR, the
// in-memory compressed graph, a memory-mapped compressed file, and a
// delta-store snapshot with one applied update batch.
func oneRootViews(t *testing.T, g *graph.Graph) map[string]graph.View {
	t.Helper()
	views := map[string]graph.View{"heap": g}
	c, err := compress.Compress(g)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	views["compressed"] = c
	path := filepath.Join(t.TempDir(), "g.ligragc")
	if err := compress.WriteCompressedFile(path, c); err != nil {
		t.Fatalf("write compressed: %v", err)
	}
	mapped, err := compress.OpenMapped(path)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { mapped.Close() })
	views["mmap"] = mapped

	store := delta.NewStore(g, delta.Config{})
	t.Cleanup(store.Release)
	n := uint32(g.NumVertices())
	ops := []delta.EdgeOp{{Src: 1, Dst: n - 2}, {Src: 3, Dst: n - 5}}
	// Delete one existing edge so the snapshot is not purely additive.
	g.OutNeighbors(0, func(d uint32, _ int32) bool {
		ops = append(ops, delta.EdgeOp{Src: 0, Dst: d, Del: true})
		return false
	})
	if _, err := store.Update(context.Background(), ops); err != nil {
		t.Fatalf("delta update: %v", err)
	}
	pin, err := store.Acquire()
	if err != nil {
		t.Fatalf("delta acquire: %v", err)
	}
	t.Cleanup(pin.Release)
	views["snapshot"] = pin.View()
	return views
}

// checkOneRoot holds a one-root sweep to the oracle levels want. A
// complete sweep must match everywhere; a partial one may leave entries
// unreached (-1, no visit bit) but every recorded level must be exact.
func checkOneRoot(t *testing.T, name string, res *algo.ClusterBFSResult, probes []uint32, want []int32, complete bool) {
	t.Helper()
	k := len(res.Sources)
	agrees := func(got, want int32) bool {
		return got == want || (!complete && got == -1)
	}
	var reached int64
	var depth int32
	for v, w := range want {
		if w >= 0 {
			reached++
			depth = max(depth, w)
		}
		if !agrees(res.MaxLevel[v], w) {
			t.Fatalf("%s vertex %d: MaxLevel %d, oracle %d", name, v, res.MaxLevel[v], w)
		}
		for i := 0; i < k; i++ {
			if res.Levels != nil && !agrees(res.Levels[i*len(want)+v], w) {
				t.Fatalf("%s src[%d] vertex %d: level %d, oracle %d", name, i, v, res.Levels[i*len(want)+v], w)
			}
			bit := res.Visit[v]>>uint(i)&1 == 1
			if (bit && w < 0) || (!bit && w >= 0 && complete) {
				t.Fatalf("%s src[%d] vertex %d: visit bit %v, oracle level %d", name, i, v, bit, w)
			}
		}
		if res.Visit[v]>>uint(k) != 0 {
			t.Fatalf("%s vertex %d: visit word %b has bits beyond %d sources", name, v, res.Visit[v], k)
		}
	}
	for i := 0; i < k; i++ {
		for j, p := range probes {
			if !agrees(res.ProbeLevels[j][i], want[p]) || res.LevelTo(i, p) != res.ProbeLevels[j][i] {
				t.Fatalf("%s src[%d] probe %d: %d (LevelTo %d), oracle %d",
					name, i, p, res.ProbeLevels[j][i], res.LevelTo(i, p), want[p])
			}
		}
		if complete && (res.Reached[i] != reached || res.Depth[i] != depth) {
			t.Fatalf("%s src[%d]: Reached=%d Depth=%d, oracle %d and %d", name, i, res.Reached[i], res.Depth[i], reached, depth)
		}
		if res.Reached[i] > reached || res.Depth[i] > depth {
			t.Fatalf("%s src[%d]: partial Reached=%d Depth=%d beyond oracle %d and %d", name, i, res.Reached[i], res.Depth[i], reached, depth)
		}
	}
	if complete && res.Rounds != int(depth) {
		t.Fatalf("%s: Rounds=%d, oracle depth %d", name, res.Rounds, depth)
	}
}

// runOneRoot sweeps g from {s} and {s,s,s}, once recording probes and
// once the full level matrix, in every traversal mode, and checks each
// result against the sequential oracle.
func runOneRoot(t *testing.T, name string, g graph.View, s uint32, probes []uint32) {
	t.Helper()
	want := seq.BFSLevels(g, s)
	for mname, em := range oneRootModes {
		for _, sources := range [][]uint32{{s}, {s, s, s}} {
			for _, levels := range []bool{false, true} {
				opts := algo.ClusterBFSOptions{EdgeMap: em, WantLevels: levels, Probes: probes}
				if levels {
					opts.Probes = nil
				}
				label := fmt.Sprintf("%s/%s src=%v levels=%v", name, mname, sources, levels)
				res, err := algo.ClusterBFSCtx(nil, g, sources, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkOneRoot(t, label, res, opts.Probes, want, true)
			}
		}
	}
}

// TestClusterBFSOneRootMatchesOracle covers the heap, compressed, mmap
// and delta-snapshot views of a symmetric rMat, a 3-D grid and a directed
// rMat.
func TestClusterBFSOneRootMatchesOracle(t *testing.T) {
	rmat, err := gen.RMAT(10, 8, gen.PBBSRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid3D(8)
	if err != nil {
		t.Fatal(err)
	}
	directed, err := gen.RMATDirected(9, 6, gen.PBBSRMAT, 4)
	if err != nil {
		t.Fatal(err)
	}
	for gname, g := range map[string]*graph.Graph{"rmat": rmat, "grid3d": grid, "rmat-directed": directed} {
		n := uint32(g.NumVertices())
		for vname, v := range oneRootViews(t, g) {
			for _, s := range []uint32{1, n / 3} {
				probes := []uint32{s, 0, n - 1, n / 2, 0}
				runOneRoot(t, gname+"/"+vname, v, s, probes)
			}
		}
	}
}

// TestClusterBFSOneRootDegenerate: a single vertex, an isolated source,
// and self-loops.
func TestClusterBFSOneRootDegenerate(t *testing.T) {
	build := func(n int, edges []graph.Edge) *graph.Graph {
		g, err := graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true, RemoveDuplicates: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	single := build(1, nil)
	isolated := build(6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	loops := build(4, []graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 1, Dst: 1}, {Src: 1, Dst: 2}})
	runOneRoot(t, "single", single, 0, []uint32{0})
	runOneRoot(t, "isolated", isolated, 5, []uint32{5, 0})
	runOneRoot(t, "self-loops", loops, 0, []uint32{2, 3})
	runOneRoot(t, "self-loops", loops, 1, []uint32{0, 1})
}

// TestClusterBFSOneRootCancelMidSweep interrupts one-root sweeps after
// three completed rounds: the *RoundError reports them, and every level
// the partial result records is the oracle's.
func TestClusterBFSOneRootCancelMidSweep(t *testing.T) {
	g, err := gen.Path(200)
	if err != nil {
		t.Fatal(err)
	}
	const s = 100
	want := seq.BFSLevels(g, s)
	probes := []uint32{s, 101, 103, 150}
	for _, sources := range [][]uint32{{s}, {s, s, s}} {
		ctx, disarm := faultinject.CancelOnRound(context.Background(), 4)
		res, err := algo.ClusterBFSCtx(ctx, g, sources, algo.ClusterBFSOptions{WantLevels: true, Probes: probes})
		disarm()
		var re *algo.RoundError
		if !errors.As(err, &re) || !errors.Is(err, context.Canceled) || re.Algo != "cluster-bfs" {
			t.Fatalf("sources %v: want a cluster-bfs RoundError wrapping Canceled, got %v", sources, err)
		}
		if re.Round != 3 || res.Rounds != 3 {
			t.Fatalf("sources %v: RoundError.Round=%d Rounds=%d, want 3 completed rounds", sources, re.Round, res.Rounds)
		}
		claimed := 0
		for _, l := range res.MaxLevel {
			if l >= 0 {
				claimed++
			}
		}
		if claimed < 7 || claimed == g.NumVertices() {
			t.Fatalf("sources %v: %d vertices claimed, want three rounds' worth", sources, claimed)
		}
		checkOneRoot(t, fmt.Sprintf("cancel src=%v", sources), res, probes, want, false)
		// The aggregates cover exactly the completed rounds: levels 0-3
		// on either side of s, whatever the aborted round had claimed.
		for i := range sources {
			if res.Reached[i] != 7 || res.Depth[i] != 3 {
				t.Fatalf("sources %v: src[%d] Reached=%d Depth=%d, want 7 and 3", sources, i, res.Reached[i], res.Depth[i])
			}
		}
	}
}

// errAfter is a context whose Err reports cancellation from its n-th
// call on, so an interruption can land inside a round, after part of the
// round's claims.
type errAfter struct {
	context.Context
	n atomic.Int64
}

func (c *errAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestClusterBFSOneRootCancelMidRound interrupts one-root sweeps at a
// spread of cancellation checks, from the first to past the last. A partial result covers exactly its
// completed rounds, whatever the aborted round had already claimed.
func TestClusterBFSOneRootCancelMidRound(t *testing.T) {
	g, err := gen.Grid3D(20)
	if err != nil {
		t.Fatal(err)
	}
	const s = 4321
	want := seq.BFSLevels(g, s)
	probes := []uint32{s, 0, 7999}
	midRound := false
	for checks := int64(0); ; checks += 1 + checks/4 {
		ctx := &errAfter{Context: context.Background()}
		ctx.n.Store(checks)
		sources := []uint32{s, s}
		res, err := algo.ClusterBFSCtx(ctx, g, sources, algo.ClusterBFSOptions{WantLevels: true, Probes: probes})
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after %d checks: %v", checks, err)
		}
		label := fmt.Sprintf("after %d checks", checks)
		checkOneRoot(t, label, res, probes, want, false)
		var covered int64
		for v, w := range want {
			if w >= 0 && w <= int32(res.Rounds) {
				covered++
			}
			midRound = midRound || res.MaxLevel[v] > int32(res.Rounds)
		}
		for i := range sources {
			if res.Reached[i] != covered || res.Depth[i] != int32(res.Rounds) {
				t.Fatalf("%s: src[%d] Reached=%d Depth=%d, want %d and %d for %d completed rounds",
					label, i, res.Reached[i], res.Depth[i], covered, res.Rounds, res.Rounds)
			}
		}
	}
	if !midRound {
		t.Fatal("no interruption landed inside a round; the test graph is too small to exercise it")
	}
}

// TestClusterBFSOneRootCostsOneBFS: a one-root sweep makes exactly the
// edgeMap rounds BFSLevels makes — same directions, same frontier
// out-degrees — so the caller's Mode and DenseForward are honoured and
// no forward-dense round is forced.
func TestClusterBFSOneRootCostsOneBFS(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.PBBSRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	for mname, em := range oneRootModes {
		before := core.SnapshotStats()
		if _, err := algo.BFSLevelsCtx(nil, g, 1, em); err != nil {
			t.Fatal(err)
		}
		mid := core.SnapshotStats()
		if _, err := algo.ClusterBFSCtx(nil, g, []uint32{1, 1}, algo.ClusterBFSOptions{EdgeMap: em}); err != nil {
			t.Fatal(err)
		}
		bfs, sweep := mid.Sub(before), core.SnapshotStats().Sub(mid)
		if sweep.Calls != bfs.Calls || sweep.Sparse != bfs.Sparse || sweep.Dense != bfs.Dense ||
			sweep.DenseForward != bfs.DenseForward || sweep.EdgesScanned != bfs.EdgesScanned {
			t.Fatalf("%s: one-root sweep %+v, bfs %+v", mname, sweep, bfs)
		}
	}
}
