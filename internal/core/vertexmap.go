package core

import (
	"context"

	"ligra/internal/bitset"
	"ligra/internal/parallel"
)

// VertexMap applies fn to every vertex in u, in parallel (Ligra's vertexMap
// without output).
//
// Small rounds take the scheduler's sequential cutoff automatically: the
// loops behind ForEach/ForEachCtx are auto-grain, so a frontier at or
// below the parallel package's cutoff runs inline on the calling
// goroutine with zero dispatch. Such rounds are visible in the
// scheduler's inline-run counter; TraversalStats.SeqRounds counts only
// edgeMap's inline sparse rounds.
func VertexMap(u *VertexSubset, fn func(v uint32)) {
	u.ForEach(fn)
}

// VertexMapCtx is VertexMap with cooperative cancellation and panic
// containment: ctx (nil = background) is checked at chunk granularity and
// its error returned; a panic in fn is returned as a
// *parallel.PanicError. Vertices already mapped when the call aborts keep
// their effects.
func VertexMapCtx(ctx context.Context, u *VertexSubset, fn func(v uint32)) error {
	return u.ForEachCtx(ctx, fn)
}

// VertexFilter applies pred to every vertex of u and returns the subset of
// vertices for which it returned true (Ligra's vertexMap returning a
// vertexSubset). The output representation matches the input's.
func VertexFilter(u *VertexSubset, pred func(v uint32) bool) *VertexSubset {
	n := u.UniverseSize()
	if u.HasSparse() {
		ids := u.ToSparse()
		out := parallel.Filter(ids, func(v uint32) bool { return pred(v) })
		return NewSparse(n, out)
	}
	ud := u.ToDense()
	out := bitset.New(n)
	count := parallel.CountFunc(n, func(i int) bool {
		if ud.Get(i) && pred(uint32(i)) {
			out.SetAtomic(i)
			return true
		}
		return false
	})
	return &VertexSubset{n: n, size: count, dense: out}
}

// Union returns the set union of a and b (over the same universe).
func Union(a, b *VertexSubset) *VertexSubset {
	if a.UniverseSize() != b.UniverseSize() {
		panic("core: Union universe mismatch")
	}
	n := a.UniverseSize()
	ad, bd := a.ToDense(), b.ToDense()
	out := bitset.New(n)
	count := parallel.CountFunc(n, func(i int) bool {
		if ad.Get(i) || bd.Get(i) {
			out.SetAtomic(i)
			return true
		}
		return false
	})
	return &VertexSubset{n: n, size: count, dense: out}
}

// Intersect returns the set intersection of a and b.
func Intersect(a, b *VertexSubset) *VertexSubset {
	if a.UniverseSize() != b.UniverseSize() {
		panic("core: Intersect universe mismatch")
	}
	n := a.UniverseSize()
	ad, bd := a.ToDense(), b.ToDense()
	out := bitset.New(n)
	count := parallel.CountFunc(n, func(i int) bool {
		if ad.Get(i) && bd.Get(i) {
			out.SetAtomic(i)
			return true
		}
		return false
	})
	return &VertexSubset{n: n, size: count, dense: out}
}

// Difference returns a \ b.
func Difference(a, b *VertexSubset) *VertexSubset {
	if a.UniverseSize() != b.UniverseSize() {
		panic("core: Difference universe mismatch")
	}
	n := a.UniverseSize()
	ad, bd := a.ToDense(), b.ToDense()
	out := bitset.New(n)
	count := parallel.CountFunc(n, func(i int) bool {
		if ad.Get(i) && !bd.Get(i) {
			out.SetAtomic(i)
			return true
		}
		return false
	})
	return &VertexSubset{n: n, size: count, dense: out}
}
