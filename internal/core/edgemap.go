package core

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"ligra/internal/bitset"
	"ligra/internal/faultinject"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// EdgeFuncs bundles the per-edge application logic passed to EdgeMap,
// corresponding to Ligra's F (update / updateAtomic) and C (cond):
//
//   - UpdateAtomic(s, d, w) is applied to edge (s, d) when multiple sources
//     may update the same destination concurrently (sparse push and dense-
//     forward traversals). It must use atomic primitives and return true if
//     d should join the output frontier. Exactly-once membership is the
//     application's responsibility (e.g. CAS or priority-update "winner"
//     semantics); otherwise set RemoveDuplicates.
//   - Update(s, d, w) is the cheaper non-atomic variant used by dense
//     (pull) traversals, where the framework guarantees a single writer per
//     destination. If nil, UpdateAtomic is used everywhere.
//   - Cond(d) gates destinations: edges into d with Cond(d) false are
//     skipped, and a dense traversal stops scanning d's in-edges as soon as
//     Cond(d) turns false (Ligra's early exit). Nil means "always true".
//
// For unweighted graphs w is 1.
type EdgeFuncs struct {
	Update       func(s, d uint32, w int32) bool
	UpdateAtomic func(s, d uint32, w int32) bool
	Cond         func(d uint32) bool
}

// Mode forces a traversal strategy, overriding the size heuristic.
type Mode int

const (
	// Auto applies the |U| + outDegrees(U) > threshold heuristic.
	Auto Mode = iota
	// ForceSparse always uses the sparse (push) traversal.
	ForceSparse
	// ForceDense always uses the dense (pull) traversal.
	ForceDense
)

// Options tunes a single EdgeMap call.
type Options struct {
	// Mode selects Auto (default) or a forced representation.
	Mode Mode
	// Threshold overrides the dense-switch threshold; 0 selects the
	// paper's default of |E|/20.
	Threshold int64
	// DenseForward selects the write-based dense traversal (loop over
	// sources, push over out-edges) instead of the default read-based
	// (pull) one when the dense representation is chosen.
	DenseForward bool
	// RemoveDuplicates deduplicates the sparse output frontier. Needed
	// when UpdateAtomic may return true more than once per destination.
	RemoveDuplicates bool
	// NoOutput skips constructing the output frontier (Ligra's no_output
	// flag); EdgeMap returns an empty subset.
	NoOutput bool
	// DenseEarlyExit lets the dense (pull) traversal stop scanning a
	// destination's in-edges after its first successful update. That is
	// sound only when updates are idempotent membership claims — any
	// later successful update for the same destination must be fully
	// redundant, side effects included. BFS-style visited/parent CAS
	// claims qualify; priority updates (writeMin labels or distances) do
	// NOT, because later updates refine the value. Algorithms opt in
	// explicitly; the flag is independent of RemoveDuplicates, which only
	// promises that duplicate *membership* is collapsed.
	DenseEarlyExit bool
	// Trace, when non-nil, records one entry per EdgeMap call for the
	// frontier-trace experiments.
	Trace *Trace
	// Procs, when positive, caps the number of worker goroutines used by
	// every parallel loop of this call at min(Procs, the process-wide
	// setting). It is how a server grants each query a bounded share of
	// the machine (see parallel.WithProcs); 0 inherits the cap already on
	// the context, if any.
	Procs int
}

// DefaultThresholdDenominator is the paper's frontier-size switch constant:
// edgeMap goes dense when |U| + outDegrees(U) > |E|/20.
const DefaultThresholdDenominator = 20

// TraceEntry records one EdgeMap invocation for the fig-frontier
// experiment.
type TraceEntry struct {
	Round        int
	FrontierSize int
	OutDegrees   int64
	Dense        bool
	DenseForward bool
	OutputSize   int
	Duration     time.Duration
}

// Trace accumulates TraceEntries across EdgeMap calls.
type Trace struct {
	Entries []TraceEntry
}

// scratchPool recycles the per-call deduplication arrays so iterative
// algorithms (e.g. Bellman-Ford's O(diameter) rounds) do not allocate an
// O(n) slice per round. Invariant: every pooled slice is all-None.
var scratchPool sync.Pool

func getScratch(n int) []uint32 {
	if s, ok := scratchPool.Get().([]uint32); ok && len(s) >= n {
		return s
	}
	s := make([]uint32, n)
	for i := range s {
		s[i] = None
	}
	return s
}

func putScratch(s []uint32) { scratchPool.Put(s) }

// EdgeMap applies f to every edge (s, d) with s in u and Cond(d) true, and
// returns the subset of destinations for which an update returned true.
// The traversal is sparse (push over out-edges of u) or dense (pull over
// in-edges of all vertices) according to the frontier-size heuristic; see
// Options to force a mode or tune the threshold.
//
// A worker panic propagates as a panic whose value is a
// *parallel.PanicError. Use EdgeMapCtx for cooperative cancellation.
func EdgeMap(g graph.View, u *VertexSubset, f EdgeFuncs, opts Options) *VertexSubset {
	out, err := EdgeMapCtx(nil, g, u, f, opts)
	if err != nil {
		// Without a context the only possible error is a contained worker
		// panic; surface it as the panic the non-ctx API promises.
		panic(err)
	}
	return out
}

// EdgeMapCtx is EdgeMap with cooperative cancellation and panic
// containment. ctx is the cancellation context (nil behaves like
// context.Background()). Cancellation is observed at chunk granularity:
// the traversal stops dispatching work within one chunk and returns
// (nil, ctx.Err()). Updates already applied when the traversal aborts are
// NOT rolled back — per-vertex state mutated by f keeps all completed
// writes, which is what gives algorithms their partial results. A panic
// in a worker is returned as a *parallel.PanicError instead of panicking.
func EdgeMapCtx(ctx context.Context, g graph.View, u *VertexSubset, f EdgeFuncs, opts Options) (*VertexSubset, error) {
	if u.UniverseSize() != g.NumVertices() {
		panic("core: EdgeMap frontier universe does not match graph")
	}
	faultinject.OnRound()
	if opts.Procs > 0 {
		ctx = parallel.WithProcs(ctx, opts.Procs)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	// The paper's |U| + outDegrees(U) > threshold decision (threshold 0 =
	// |E|/20), overridden by Options.Mode. An empty frontier is a sparse
	// round with nothing to do.
	var outDeg int64
	var err error
	dense := false
	if !u.IsEmpty() {
		threshold := opts.Threshold
		if threshold <= 0 {
			threshold = g.NumEdges() / DefaultThresholdDenominator
		}
		outDeg, err = frontierOutDegrees(ctx, g, u, threshold-int64(u.Size()))
		if err != nil {
			return nil, err
		}
		dense = opts.Mode == ForceDense ||
			(opts.Mode != ForceSparse && int64(u.Size())+outDeg > threshold)
	}
	fwd := dense && opts.DenseForward
	var out *VertexSubset
	inline := false
	switch {
	case u.IsEmpty():
		out = NewEmpty(g.NumVertices())
	case fwd:
		out, err = edgeMapDenseForward(ctx, g, u, f, opts)
	case dense:
		out, err = edgeMapDense(ctx, g, u, f, opts)
	default:
		out, inline, err = edgeMapSparse(ctx, g, u, f, opts)
	}
	if err != nil {
		return nil, err
	}
	globalStats.record(u.Size(), outDeg, dense, fwd, inline, out.Size())
	if tr := opts.Trace; tr != nil {
		tr.Entries = append(tr.Entries, TraceEntry{
			Round:        len(tr.Entries),
			FrontierSize: u.Size(),
			OutDegrees:   outDeg,
			Dense:        dense,
			DenseForward: fwd,
			OutputSize:   out.Size(),
			Duration:     time.Since(start),
		})
	}
	return out, nil
}

// Block sizes for the capped degree sum: small enough that the scan stops
// within one or two blocks of crossing the threshold, large enough that a
// full scan dispatches only a handful of chunks.
const (
	outDegGrainIDs   = 4096 // sparse frontier: vertex IDs per block
	outDegGrainWords = 64   // dense frontier: 64-bit words (4096 bits) per block
)

// frontierOutDegrees computes the total out-degree of the frontier, the
// quantity the paper's switch heuristic compares against |E|/20.
//
// The caller only needs to know whether the sum exceeds stopAfter, so the
// scan short-circuits: once the running sum passes stopAfter, remaining
// blocks are skipped and the returned value is a partial sum that is
// guaranteed to exceed stopAfter. Pass a negative stopAfter to force the
// short-circuit immediately, or math.MaxInt64 for an exact total.
func frontierOutDegrees(ctx context.Context, g graph.View, u *VertexSubset, stopAfter int64) (int64, error) {
	if u.Size() == u.UniverseSize() {
		// Full frontier (the first round of most algorithms): the sum of all
		// out-degrees is the edge count, no scan needed.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		return g.NumEdges(), nil
	}
	var sum atomic.Int64
	if u.HasSparse() {
		ids := u.ToSparse()
		blocks := (len(ids) + outDegGrainIDs - 1) / outDegGrainIDs
		err := parallel.ForGrainCtx(ctx, blocks, 1, func(b int) {
			if sum.Load() > stopAfter {
				return
			}
			lo := b * outDegGrainIDs
			hi := min(lo+outDegGrainIDs, len(ids))
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(g.OutDegree(ids[i]))
			}
			sum.Add(local)
		})
		return sum.Load(), err
	}
	// Dense: walk the frontier bitset a word at a time, skipping empty
	// words, instead of testing all n bits individually.
	words := u.ToDense().Words()
	blocks := (len(words) + outDegGrainWords - 1) / outDegGrainWords
	err := parallel.ForGrainCtx(ctx, blocks, 1, func(b int) {
		if sum.Load() > stopAfter {
			return
		}
		var local int64
		for wi := b * outDegGrainWords; wi < min((b+1)*outDegGrainWords, len(words)); wi++ {
			w := words[wi]
			if w == 0 {
				continue
			}
			base := uint32(wi * 64)
			for w != 0 {
				local += int64(g.OutDegree(base + uint32(bits.TrailingZeros64(w))))
				w &= w - 1
			}
		}
		sum.Add(local)
	})
	return sum.Load(), err
}

// sparseSeg records where one chunk's output landed inside a worker's
// local buffer, so the chunks can be reassembled in input order.
type sparseSeg struct {
	chunk, start, end int
}

// sparseWorkerBuf is one worker's private output accumulation for the
// sparse traversal. Workers only ever touch their own entry, so appends
// are contention-free; the trailing pad keeps neighbouring workers' slice
// headers on different cache lines.
type sparseWorkerBuf struct {
	out  []uint32
	segs []sparseSeg
	_    [16]byte
}

// pushChunks runs the chunks of [0, n) through body, which appends the
// outputs of frontier positions [lo, hi) to buf and returns it. Outputs
// land in per-worker buffers (no shared cursor, no atomics, no
// degree-sized scratch with sentinel holes) and are concatenated afterward
// in chunk order, so the result is every output in frontier edge order at
// the cost of writing only the successes. inline reports that the whole
// loop ran on the calling goroutine: a one-proc lease or a single chunk.
func pushChunks(ctx context.Context, n int, body func(lo, hi int, buf []uint32) []uint32) (out []uint32, inline bool, err error) {
	procs := parallel.CtxProcs(ctx)
	grain := parallel.AutoGrainCtx(ctx, n)
	nchunks := (n + grain - 1) / grain
	workers := make([]sparseWorkerBuf, procs)
	segLen := make([]int64, nchunks)
	err = parallel.ForWorkerChunksCtx(ctx, n, grain, func(wk, c, lo, hi int) {
		wb := &workers[wk]
		start := len(wb.out)
		wb.out = body(lo, hi, wb.out)
		wb.segs = append(wb.segs, sparseSeg{chunk: c, start: start, end: len(wb.out)})
		// Each chunk is dispatched to exactly one worker: no contention.
		segLen[c] = int64(len(wb.out) - start)
	})
	if err != nil {
		// Undispatched chunks never wrote their segment; no frontier can
		// be derived from the partial buffers.
		return nil, false, err
	}
	inline = procs == 1 || nchunks <= 1
	if len(workers[0].segs) == nchunks {
		// Worker 0 ran every chunk, in claim order, so its buffer is the
		// output. Always the case for an inline loop.
		return workers[0].out, inline, nil
	}
	// Exclusive scan turns per-chunk lengths into output offsets; each
	// worker then copies its segments into place in parallel.
	total := parallel.ScanExclusive(segLen, segLen)
	out = make([]uint32, total)
	parallel.For(len(workers), func(wk int) {
		wb := &workers[wk]
		for _, sg := range wb.segs {
			copy(out[segLen[sg.chunk]:], wb.out[sg.start:sg.end])
		}
	})
	return out, inline, nil
}

// edgeMapSparse is Ligra's edgeMapSparse: push over the out-edges of the
// frontier vertices, collecting successful targets through pushChunks.
// CSR graphs take a raw-slice fast path that avoids the per-edge iterator
// callback. inline is pushChunks' report, counted in
// TraversalStats.SeqRounds.
func edgeMapSparse(ctx context.Context, g graph.View, u *VertexSubset, f EdgeFuncs, opts Options) (*VertexSubset, bool, error) {
	n := g.NumVertices()
	ids := u.ToSparse()
	update := f.UpdateAtomic
	if update == nil {
		update = f.Update
	}
	cond := f.Cond
	keep := !opts.NoOutput
	csr, _ := g.(*graph.Graph)
	outIDs, inline, err := pushChunks(ctx, len(ids), func(lo, hi int, buf []uint32) []uint32 {
		for i := lo; i < hi; i++ {
			s := ids[i]
			if csr != nil {
				row, wts := csr.OutEdgesSlice(s)
				for j, d := range row {
					w := int32(1)
					if wts != nil {
						w = wts[j]
					}
					if (cond == nil || cond(d)) && update(s, d, w) && keep {
						buf = append(buf, d)
					}
				}
				continue
			}
			g.OutNeighbors(s, func(d uint32, w int32) bool {
				if (cond == nil || cond(d)) && update(s, d, w) && keep {
					buf = append(buf, d)
				}
				return true
			})
		}
		return buf
	})
	if err != nil {
		return nil, false, err
	}
	if opts.RemoveDuplicates && len(outIDs) > 1 {
		outIDs = removeDuplicates(n, outIDs)
	}
	return NewSparse(n, outIDs), inline, nil
}

// removeDuplicates keeps one occurrence of each vertex ID using a pooled
// CAS-claimed scratch array (Ligra's remDuplicates).
func removeDuplicates(n int, ids []uint32) []uint32 {
	scratch := getScratch(n)
	parallel.For(len(ids), func(i int) {
		d := ids[i]
		// Claim d with the smallest index; ties broken by writeMin.
		for {
			old := atomic.LoadUint32(&scratch[d])
			if old <= uint32(i) {
				return
			}
			if atomic.CompareAndSwapUint32(&scratch[d], old, uint32(i)) {
				return
			}
		}
	})
	out := parallel.FilterIndex(ids, func(i int, d uint32) bool {
		return scratch[d] == uint32(i)
	})
	// Restore the all-None invariant before pooling. Restore over the
	// deduplicated output, not ids: out holds every distinct ID exactly
	// once, so each slot has a single writer (ids would have two workers
	// racing plain stores on duplicate entries) and the loop does less
	// work.
	parallel.For(len(out), func(i int) {
		scratch[out[i]] = None
	})
	putScratch(scratch)
	return out
}

// inBlockPool recycles the decoded-slab buffers of the partition-blocked
// dense sweep, so iterative algorithms pay the block allocations once, not
// once per (round, chunk).
var inBlockPool = sync.Pool{New: func() any { return new(graph.InBlock) }}

func getInBlock() *graph.InBlock  { return inBlockPool.Get().(*graph.InBlock) }
func putInBlock(b *graph.InBlock) { inBlockPool.Put(b) }

// denseBlockAlign is the alignment of the dense traversal's destination
// blocks: a multiple of the bitset word size, so every block owns whole
// words of the output bit vector and can set output bits without atomics.
const denseBlockAlign = 64

// denseGrain picks the destination-block size for the dense traversals:
// the automatic load-balancing grain, rounded up to whole bitset words so
// blocks never share an output word.
func denseGrain(n int) int {
	g := parallel.AutoGrain(n)
	return (g + denseBlockAlign - 1) &^ (denseBlockAlign - 1)
}

// edgeMapDense is Ligra's edgeMapDense: for every vertex d whose Cond
// holds, pull over its in-edges looking for frontier sources, stopping
// early once Cond(d) becomes false (and, under Options.DenseEarlyExit,
// after the first successful update). Update need not be atomic because d
// is processed by exactly one goroutine. Destinations are processed in
// cache-sized blocks aligned to output bitset words, so output bits are
// set with plain stores — each block's words belong to exactly one worker.
//
// Rows come as raw slices from a CSR graph, or from the partition-blocked
// sweep (GPOP-style) on backends implementing graph.InBlockDecoder: each
// destination block's in-lists are decoded once into a pooled CSR slab.
// Cond is sampled at decode time (rows it rules out are never decoded).
// Early-exit rounds (BFS parent search) skip the blocked sweep: they stop
// a row after the first hit, so the lazy per-vertex decoder beats an
// eager decode of every row. Any other view runs the per-vertex callback.
func edgeMapDense(ctx context.Context, g graph.View, u *VertexSubset, f EdgeFuncs, opts Options) (*VertexSubset, error) {
	n := g.NumVertices()
	ud := u.ToDense()
	update := f.Update
	if update == nil {
		update = f.UpdateAtomic
	}
	cond := f.Cond
	earlyExit := opts.DenseEarlyExit
	// Full frontier (PageRank iterations, components round one): every
	// source passes the membership test, so skip the per-edge bit probe.
	full := u.Size() == n

	csr, _ := g.(*graph.Graph)
	var bd graph.InBlockDecoder
	if csr == nil && !earlyExit {
		bd, _ = g.(graph.InBlockDecoder)
	}
	var out *bitset.Bitset
	if !opts.NoOutput {
		out = bitset.New(n)
	}
	var body func(lo, hi int)
	if csr != nil || bd != nil {
		// The per-edge loop is the framework's hottest code: the full and
		// filtered variants are split so neither pays the other's branch,
		// and membership reads index the frontier words directly.
		uw := ud.Words()
		var skip func(uint32) bool
		if bd != nil && cond != nil {
			skip = func(d uint32) bool { return !cond(d) }
		}
		body = func(lo, hi int) {
			var blk *graph.InBlock
			if bd != nil {
				blk = getInBlock()
				bd.DecodeInBlock(uint32(lo), uint32(hi), skip, blk)
			}
			for di := lo; di < hi; di++ {
				d := uint32(di)
				var row []uint32
				var wts []int32
				if blk != nil {
					row, wts = blk.Row(di - lo)
				} else {
					if cond != nil && !cond(d) {
						continue
					}
					row, wts = csr.InEdgesSlice(d)
				}
				hit := false
				if full {
					for j, s := range row {
						w := int32(1)
						if wts != nil {
							w = wts[j]
						}
						if update(s, d, w) {
							hit = true
							if earlyExit {
								break
							}
						}
						if cond != nil && !cond(d) {
							break // early exit: d needs no more updates
						}
					}
				} else {
					for j, s := range row {
						if uw[s>>6]&(1<<(s&63)) == 0 {
							continue
						}
						w := int32(1)
						if wts != nil {
							w = wts[j]
						}
						if update(s, d, w) {
							hit = true
							if earlyExit {
								break
							}
						}
						if cond != nil && !cond(d) {
							break // early exit: d needs no more updates
						}
					}
				}
				if hit && out != nil {
					out.Set(di) // this block owns the word
				}
			}
			if blk != nil {
				putInBlock(blk)
			}
		}
	} else {
		body = func(lo, hi int) {
			for di := lo; di < hi; di++ {
				d := uint32(di)
				if cond != nil && !cond(d) {
					continue
				}
				g.InNeighbors(d, func(s uint32, w int32) bool {
					if full || ud.Get(int(s)) {
						if update(s, d, w) {
							if out != nil {
								out.Set(di) // this block owns the word
							}
							if earlyExit {
								return false
							}
						}
						if cond != nil && !cond(d) {
							return false // early exit: d needs no more updates
						}
					}
					return true
				})
			}
		}
	}
	err := parallel.ForRangeGrainCtx(ctx, n, denseGrain(n), body)
	if err != nil {
		return nil, err
	}
	if out == nil {
		return NewEmpty(n), nil
	}
	return NewDense(n, out), nil
}

// edgeMapDenseForward is Ligra's write-based dense variant: loop over all
// vertices, and for frontier members push over out-edges with atomic
// updates. It avoids the transpose (useful for graphs stored only forward)
// at the cost of atomics and no early exit. The frontier bit vector is
// scanned a word at a time, so the 63/64ths of a sparse-ish frontier that
// is empty words costs one load each instead of 64 bit tests.
func edgeMapDenseForward(ctx context.Context, g graph.View, u *VertexSubset, f EdgeFuncs, opts Options) (*VertexSubset, error) {
	n := g.NumVertices()
	ud := u.ToDense()
	update := f.UpdateAtomic
	if update == nil {
		update = f.Update
	}
	cond := f.Cond

	csr, _ := g.(*graph.Graph)
	var out *bitset.Bitset
	if !opts.NoOutput {
		out = bitset.New(n)
	}
	words := ud.Words()
	err := parallel.ForRangeCtx(ctx, len(words), func(lo, hi int) {
		for wi := lo; wi < hi; wi++ {
			w := words[wi]
			if w == 0 {
				continue
			}
			base := uint32(wi * 64)
			for w != 0 {
				s := base + uint32(bits.TrailingZeros64(w))
				w &= w - 1
				if csr != nil {
					row, wts := csr.OutEdgesSlice(s)
					for j, d := range row {
						ew := int32(1)
						if wts != nil {
							ew = wts[j]
						}
						if (cond == nil || cond(d)) && update(s, d, ew) && out != nil {
							out.SetAtomic(int(d))
						}
					}
					continue
				}
				g.OutNeighbors(s, func(d uint32, ew int32) bool {
					if (cond == nil || cond(d)) && update(s, d, ew) && out != nil {
						out.SetAtomic(int(d))
					}
					return true
				})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		return NewEmpty(n), nil
	}
	return NewDense(n, out), nil
}
