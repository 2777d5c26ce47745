package core

import (
	"context"

	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// Pair is one (vertex, payload) element of a data-carrying frontier.
type Pair[T any] struct {
	V   uint32
	Val T
}

// DataSubset is Ligra's vertexSubsetData: a frontier whose members carry
// a per-vertex payload produced by the traversal that built it (e.g. the
// parent that discovered a vertex, or its new tentative distance).
type DataSubset[T any] struct {
	n     int
	pairs []Pair[T]
}

// NewDataSubset wraps (vertex, value) pairs over a universe of n vertices
// (takes ownership; vertices must be unique).
func NewDataSubset[T any](n int, pairs []Pair[T]) *DataSubset[T] {
	if pairs == nil {
		pairs = []Pair[T]{}
	}
	return &DataSubset[T]{n: n, pairs: pairs}
}

// UniverseSize returns the vertex ID space size.
func (ds *DataSubset[T]) UniverseSize() int { return ds.n }

// Size returns the number of members.
func (ds *DataSubset[T]) Size() int { return len(ds.pairs) }

// IsEmpty reports whether the subset is empty.
func (ds *DataSubset[T]) IsEmpty() bool { return len(ds.pairs) == 0 }

// Pairs exposes the member pairs; callers must not mutate.
func (ds *DataSubset[T]) Pairs() []Pair[T] { return ds.pairs }

// Subset drops the payloads, yielding a plain VertexSubset for the next
// traversal round.
func (ds *DataSubset[T]) Subset() *VertexSubset {
	ids := parallel.MapNew(len(ds.pairs), func(i int) uint32 { return ds.pairs[i].V })
	return NewSparse(ds.n, ids)
}

// ForEach applies fn to every (vertex, value) member in parallel.
func (ds *DataSubset[T]) ForEach(fn func(v uint32, val T)) {
	parallel.For(len(ds.pairs), func(i int) { fn(ds.pairs[i].V, ds.pairs[i].Val) })
}

// EdgeDataFuncs is the data-producing analogue of EdgeFuncs: updates
// return the payload for the destination along with the usual "joins the
// output frontier" flag. The exactly-once contract is the same as
// EdgeMap's — at most one update per destination may return true, or
// RemoveDuplicates must be set (an arbitrary winning pair is then kept).
type EdgeDataFuncs[T any] struct {
	// UpdateAtomic is used in sparse (push) traversals.
	UpdateAtomic func(s, d uint32, w int32) (T, bool)
	// Update is the non-atomic variant for dense (pull) traversals; nil
	// falls back to UpdateAtomic.
	Update func(s, d uint32, w int32) (T, bool)
	// Cond gates destinations exactly as in EdgeFuncs.
	Cond func(d uint32) bool
}

// EdgeMapData is Ligra's edgeMapData: like EdgeMap, but the output
// frontier carries per-vertex payloads returned by the update functions.
// The traversal strategy selection matches EdgeMap. A worker panic
// propagates as a panic whose value is a *parallel.PanicError; use
// EdgeMapDataCtx for cooperative cancellation.
func EdgeMapData[T any](g graph.View, u *VertexSubset, f EdgeDataFuncs[T], opts Options) *DataSubset[T] {
	out, err := EdgeMapDataCtx(nil, g, u, f, opts)
	if err != nil {
		panic(err)
	}
	return out
}

// EdgeMapDataCtx is EdgeMapData with cooperative cancellation and panic
// containment, mirroring EdgeMapCtx's contract: ctx (nil = background) is
// observed at chunk granularity. On interruption it returns
// (nil, ctx.Err()); updates already applied are not rolled back. A worker
// panic is returned as a *parallel.PanicError.
func EdgeMapDataCtx[T any](ctx context.Context, g graph.View, u *VertexSubset, f EdgeDataFuncs[T], opts Options) (*DataSubset[T], error) {
	// Dense rounds always pull: there is no write-based data variant.
	opts.DenseForward = false
	r, err := beginRound(ctx, g, u, opts)
	if err != nil {
		return nil, err
	}
	var out *DataSubset[T]
	inline := false
	switch {
	case u.IsEmpty():
		out = NewDataSubset[T](g.NumVertices(), nil)
	case r.dense:
		out, err = edgeMapDataDense(r.ctx, g, u, f, opts)
	default:
		out, inline, err = edgeMapDataSparse(r.ctx, g, u, f, opts)
	}
	if err != nil {
		return nil, err
	}
	r.end(out.Size(), inline)
	return out, nil
}

// edgeMapDataSparse pushes over the frontier's out-edges, gathering the
// winning (d, value) pairs in frontier edge order through pushChunks, the
// same output machinery as edgeMapSparse.
func edgeMapDataSparse[T any](ctx context.Context, g graph.View, u *VertexSubset, f EdgeDataFuncs[T], opts Options) (*DataSubset[T], bool, error) {
	n := g.NumVertices()
	ids := u.ToSparse()
	update := f.UpdateAtomic
	if update == nil {
		update = f.Update
	}
	cond := f.Cond
	pairs, inline, err := pushChunks(ctx, len(ids), func(lo, hi int, buf []Pair[T]) []Pair[T] {
		for i := lo; i < hi; i++ {
			s := ids[i]
			g.OutNeighbors(s, func(d uint32, w int32) bool {
				if cond == nil || cond(d) {
					if val, ok := update(s, d, w); ok {
						buf = append(buf, Pair[T]{V: d, Val: val})
					}
				}
				return true
			})
		}
		return buf
	})
	if err != nil {
		return nil, false, err
	}
	if opts.RemoveDuplicates && len(pairs) > 1 {
		pairs = dedupPairs(n, pairs)
	}
	return NewDataSubset(n, pairs), inline, nil
}

// dedupPairs keeps one pair per vertex (the first claimant) using the
// same pooled CAS scratch as removeDuplicates.
func dedupPairs[T any](n int, pairs []Pair[T]) []Pair[T] {
	ids := parallel.MapNew(len(pairs), func(i int) uint32 { return pairs[i].V })
	kept := removeDuplicates(n, ids)
	// removeDuplicates preserves relative order, so walk both lists.
	out := make([]Pair[T], 0, len(kept))
	j := 0
	for _, p := range pairs {
		if j < len(kept) && p.V == kept[j] {
			out = append(out, p)
			j++
		}
	}
	return out
}

// edgeMapDataDense pulls over in-edges; each destination has a single
// writer, so its winning value is recorded without synchronization.
func edgeMapDataDense[T any](ctx context.Context, g graph.View, u *VertexSubset, f EdgeDataFuncs[T], opts Options) (*DataSubset[T], error) {
	n := g.NumVertices()
	ud := u.ToDense()
	update := f.Update
	if update == nil {
		update = f.UpdateAtomic
	}
	cond := f.Cond

	values := make([]T, n)
	won := make([]uint32, n) // 0/1 flags; one writer per d
	err := parallel.ForCtx(ctx, n, func(di int) {
		d := uint32(di)
		if cond != nil && !cond(d) {
			return
		}
		g.InNeighbors(d, func(s uint32, w int32) bool {
			if ud.Get(int(s)) {
				if val, ok := update(s, d, w); ok {
					values[di] = val
					won[di] = 1
				}
				if cond != nil && !cond(d) {
					return false
				}
			}
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	idx := parallel.PackIndex[uint32](n, func(i int) bool { return won[i] == 1 })
	pairs := parallel.MapNew(len(idx), func(i int) Pair[T] {
		return Pair[T]{V: idx[i], Val: values[idx[i]]}
	})
	return NewDataSubset(n, pairs), nil
}
