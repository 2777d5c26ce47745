// Package batch collects concurrent batchable queries (bfs, reach,
// landmarks — anything algo.Batchable) into shared ClusterBFS sweeps: up
// to 64 queries against the same (graph, generation, traversal shape)
// each contribute one source bit and are answered from one pass over the
// edge set, instead of each paying a full traversal.
//
// Batches form the way group commit does: a query whose shape has no
// sweep running fires at once as a batch of one, and only queries that
// arrive while a sweep of their shape is busy gather into the follower
// batch behind it, which fires when that sweep publishes, when it fills,
// or when the window caps its wait. A lone query therefore never idles,
// and company is collected exactly when there is a sweep to wait out.
//
// The collector sits beside engine.Execute in the serving path: it reuses
// the engine's result cache (per-slot lookups and fills) and its
// parallelism governor (one lease per sweep), while the engine's
// single-flight coalescing is subsumed by slot coalescing — a query whose
// key is already seated in a running or forming sweep shares that slot
// outright.
package batch

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"ligra/internal/algo"
	"ligra/internal/parallel"
	"ligra/internal/server/engine"
)

// Config parameterizes a Collector.
type Config struct {
	// Window caps how long a follower batch — one forming behind a
	// running sweep of its shape — waits for that sweep to publish
	// before it fires anyway; 0 selects 2ms. A query with no sweep of
	// its shape running never waits: it fires at once.
	Window time.Duration
	// MaxBatch caps the sources per sweep; 0 selects 64, values beyond
	// 64 are clamped (the visit word has 64 bits). A full follower fires
	// immediately without waiting for the running sweep.
	MaxBatch int
}

func (c Config) window() time.Duration {
	if c.Window > 0 {
		return c.Window
	}
	return 2 * time.Millisecond
}

func (c Config) maxBatch() int {
	if c.MaxBatch <= 0 || c.MaxBatch > 64 {
		return 64
	}
	return c.MaxBatch
}

// Request is one query's seat in a batch.
type Request struct {
	// Key is the query's cache identity (graph, generation, algo,
	// canonical params); identical Keys in one window coalesce to a
	// single slot.
	Key engine.Key
	// Shape groups queries that may share a sweep: same graph,
	// generation, and edgeMap strategy. The algorithm name is NOT part
	// of the shape — a bfs, a reach, and a landmarks query can ride the
	// same traversal.
	Shape string
	// Algo and Params identify what to extract for this slot from the
	// shared sweep (see ClusterRun).
	Algo   string
	Params algo.Params
}

// RunFunc executes one gathered batch: slots are the coalesced requests
// (one source each), ctx carries the sweep's proc lease, and the returned
// values must align index-wise with slots.
type RunFunc func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error)

// Info reports how a request was satisfied, mirroring engine.Info with
// the batch dimension added.
type Info struct {
	// Cached: served from the result cache without joining a batch.
	Cached bool
	// Coalesced: shared a slot with an identical query in the same
	// window.
	Coalesced bool
	// Batched: answered by a shared sweep (true for every non-cached
	// outcome, even a batch of one).
	Batched bool
	// BatchSize is the number of slots in the sweep that answered this
	// request (0 when Cached).
	BatchSize int
	// Procs is the parallelism lease the sweep ran under (0 when
	// Cached).
	Procs int
}

// Collector gathers batchable queries into shared sweeps.
type Collector struct {
	base   context.Context
	cache  *engine.Cache // nil-safe, may be nil (caching disabled)
	gov    *engine.Governor
	window time.Duration
	max    int

	mu     sync.Mutex
	shapes map[string]*shapeState // by Shape; present while a sweep of it runs

	stats struct {
		batches      int64
		queries      int64
		slots        int64
		windowFires  int64
		fanoutErrors int64
	}
}

// shapeState is one Shape's sweeps: the ones running and the follower
// batch forming behind them. A follower exists only while running is
// non-empty, because a query that finds nothing running fires at once.
type shapeState struct {
	running  []*batch
	follower *batch
}

// New builds a Collector. base is the server's lifetime context (its
// cancellation aborts in-flight sweeps); cache may be nil; gov must not
// be.
func New(base context.Context, cache *engine.Cache, gov *engine.Governor, cfg Config) *Collector {
	if base == nil {
		base = context.Background()
	}
	return &Collector{
		base:   base,
		cache:  cache,
		gov:    gov,
		window: cfg.window(),
		max:    cfg.maxBatch(),
		shapes: make(map[string]*shapeState),
	}
}

// batch is one forming or running sweep.
type batch struct {
	shape string
	run   RunFunc
	timer *time.Timer // follower batches only
	slots []Request
	byKey map[engine.Key]int
	fired bool
	// waiters counts callers still wanting an answer; the last one to
	// detach cancels the sweep (or drops the batch if it never fired).
	waiters int
	cancel  context.CancelFunc

	done  chan struct{} // closed when vals/err/procs are published
	vals  []engine.Value
	err   error
	procs int
}

// Execute satisfies one query: from the cache if possible, otherwise by
// seating it in a sweep — its own at once if the shape is idle, else the
// follower batch (see the package doc) — and fanning the sweep's result
// back. The caller's ctx only governs its own wait: a canceled caller
// abandons its slot and the sweep keeps serving the others.
func (c *Collector) Execute(ctx context.Context, req Request, run RunFunc) (engine.Value, Info, error) {
	if v, ok := c.cache.Get(req.Key); ok {
		return v, Info{Cached: true}, nil
	}

	c.mu.Lock()
	sh := c.shapes[req.Shape]
	if sh == nil {
		// Nothing of this shape is running: fire at once, alone.
		sh = &shapeState{}
		c.shapes[req.Shape] = sh
		b := newBatch(req, run)
		c.launch(sh, b, false)
		c.mu.Unlock()
		return c.wait(ctx, b, 0, false)
	}
	for _, b := range sh.running {
		// An identical query is already being answered: share its slot,
		// unless every caller of that sweep has detached and cancelled it.
		if idx, ok := b.byKey[req.Key]; ok && b.waiters > 0 {
			b.waiters++
			c.stats.queries++
			c.mu.Unlock()
			return c.wait(ctx, b, idx, true)
		}
	}
	b := sh.follower
	if b == nil {
		b = newBatch(req, run)
		sh.follower = b
		b.timer = time.AfterFunc(c.window, func() { c.fire(b) })
	} else if idx, ok := b.byKey[req.Key]; ok {
		b.waiters++
		c.mu.Unlock()
		return c.wait(ctx, b, idx, true)
	} else {
		b.byKey[req.Key] = len(b.slots)
		b.slots = append(b.slots, req)
		b.waiters++
	}
	idx := len(b.slots) - 1
	if len(b.slots) >= c.max {
		c.launch(sh, b, false)
	}
	c.mu.Unlock()
	return c.wait(ctx, b, idx, false)
}

func newBatch(req Request, run RunFunc) *batch {
	return &batch{
		shape:   req.Shape,
		run:     run,
		byKey:   map[engine.Key]int{req.Key: 0},
		slots:   []Request{req},
		waiters: 1,
		done:    make(chan struct{}),
	}
}

// fire launches a follower batch whose window elapsed. A no-op if the
// batch already fired (published sweep or fill won the race) or was
// dropped by its last waiter.
func (c *Collector) fire(b *batch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !b.fired {
		c.launch(c.shapes[b.shape], b, true)
	}
}

// launch transitions a batch from forming to running and starts its
// sweep on its own goroutine, so every caller — the lone query included —
// can still time out or detach while it runs. byTimer records whether the
// window fired it. c.mu must be held.
func (c *Collector) launch(sh *shapeState, b *batch, byTimer bool) {
	b.fired = true
	if b.timer != nil {
		b.timer.Stop()
	}
	if sh.follower == b {
		sh.follower = nil
	}
	sh.running = append(sh.running, b)
	var bctx context.Context
	bctx, b.cancel = context.WithCancel(c.base)
	c.stats.batches++
	c.stats.queries += int64(b.waiters)
	c.stats.slots += int64(len(b.slots))
	if byTimer {
		c.stats.windowFires++
	}
	go c.runBatch(b, bctx)
}

// runBatch executes the sweep under a governor lease with panic
// containment, fills the cache per slot, publishes the outcome, and then
// fires the follower that gathered behind it.
func (c *Collector) runBatch(b *batch, bctx context.Context) {
	procs, release := c.gov.Acquire()
	vals, err := c.safeRun(b.run, parallel.WithProcs(bctx, procs), procs, b.slots)
	release()
	if err == nil && len(vals) != len(b.slots) {
		err = errBadFanout(len(vals), len(b.slots))
	}
	if err == nil {
		for i, req := range b.slots {
			c.cache.Put(req.Key, vals[i])
		}
	} else {
		c.mu.Lock()
		c.stats.fanoutErrors += int64(len(b.slots))
		c.mu.Unlock()
	}

	b.vals, b.err, b.procs = vals, err, procs
	close(b.done)
	b.cancel()

	c.mu.Lock()
	sh := c.shapes[b.shape]
	sh.running = slices.DeleteFunc(sh.running, func(r *batch) bool { return r == b })
	if sh.follower != nil {
		c.launch(sh, sh.follower, false)
	} else if len(sh.running) == 0 {
		delete(c.shapes, b.shape)
	}
	c.mu.Unlock()
}

// safeRun invokes the batch RunFunc with the same panic containment the
// single-query path has: a panic anywhere in the sweep becomes a
// *parallel.PanicError delivered to every waiter, never a process crash.
func (c *Collector) safeRun(run RunFunc, ctx context.Context, procs int, slots []Request) (vals []engine.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*parallel.PanicError); ok {
				err = pe
				return
			}
			err = &parallel.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return run(ctx, procs, slots)
}

// wait blocks until the batch publishes or the caller's own ctx ends.
func (c *Collector) wait(ctx context.Context, b *batch, idx int, coalesced bool) (engine.Value, Info, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-b.done:
		info := Info{Coalesced: coalesced, Batched: true, BatchSize: len(b.slots), Procs: b.procs}
		if b.err != nil {
			return engine.Value{}, info, b.err
		}
		return b.vals[idx], info, nil
	case <-done:
		size := c.detach(b)
		return engine.Value{}, Info{Coalesced: coalesced, Batched: true, BatchSize: size}, ctx.Err()
	}
}

// detach abandons one caller's seat, returning the batch's current slot
// count for the caller's Info. The batch (and its other waiters) is
// unaffected unless this was the last waiter: then a running sweep is
// cancelled, and a still-forming follower is dropped before it ever
// fires.
func (c *Collector) detach(b *batch) int {
	c.mu.Lock()
	b.waiters--
	size := len(b.slots)
	if b.waiters > 0 {
		c.mu.Unlock()
		return size
	}
	if !b.fired {
		// Nobody left to hear the answer: retire the follower unrun.
		b.fired = true
		b.timer.Stop()
		c.shapes[b.shape].follower = nil
		c.mu.Unlock()
		return size
	}
	c.mu.Unlock()
	b.cancel()
	return size
}

// Stats is a point-in-time snapshot of the collector's counters, in the
// JSON shape /metrics serves.
type Stats struct {
	// BatchesRun counts sweeps executed (including batches of one).
	BatchesRun int64 `json:"batches_run"`
	// QueriesBatched counts queries answered by sweeps (slot-coalesced
	// queries each count).
	QueriesBatched int64 `json:"queries_batched"`
	// MeanBatchSize is slots per sweep, averaged over all sweeps.
	MeanBatchSize float64 `json:"mean_batch_size"`
	// WindowWaits counts sweeps that fired because the window elapsed: a
	// follower that hit its cap behind a long-running sweep. Lone queries
	// fire at once and other followers fire when the sweep ahead of them
	// publishes or when they fill, so these do not count.
	WindowWaits int64 `json:"window_waits"`
	// FanoutErrors counts slots whose sweep failed (every seated query
	// of a failed sweep counts once).
	FanoutErrors int64 `json:"fanout_errors"`
	// Waiting is a gauge: the queries seated in follower batches that
	// have not fired yet, i.e. queued behind a running sweep.
	Waiting int64 `json:"waiting"`
}

// Stats returns the current counters.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		BatchesRun:     c.stats.batches,
		QueriesBatched: c.stats.queries,
		WindowWaits:    c.stats.windowFires,
		FanoutErrors:   c.stats.fanoutErrors,
	}
	for _, sh := range c.shapes {
		if sh.follower != nil {
			s.Waiting += int64(sh.follower.waiters)
		}
	}
	if c.stats.batches > 0 {
		s.MeanBatchSize = float64(c.stats.slots) / float64(c.stats.batches)
	}
	return s
}

// errBadFanout flags a RunFunc that broke the slot-alignment contract.
func errBadFanout(got, want int) error {
	return fmt.Errorf("batch: run returned %d values for %d slots", got, want)
}
