package batch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ligra/internal/algo"
	"ligra/internal/gen"
	"ligra/internal/parallel"
	"ligra/internal/server/engine"
)

func key(i int) engine.Key {
	return engine.Key{Graph: "g", Generation: 1, Algo: "bfs", Params: fmt.Sprintf("source=%d", i)}
}

func req(i int) Request {
	return Request{Key: key(i), Shape: "g/1/auto", Algo: "bfs", Params: algo.Params{Source: uint32(i)}}
}

// echoRun answers each slot with its own key's params string.
func echoRun(runs *atomic.Int64) RunFunc {
	return func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
		runs.Add(1)
		vals := make([]engine.Value, len(slots))
		for i, s := range slots {
			vals[i] = engine.Value{Data: s.Key.Params, Bytes: int64(len(s.Key.Params))}
		}
		return vals, nil
	}
}

func newCollector(cacheBytes int64, cfg Config) *Collector {
	return New(context.Background(), engine.NewCache(cacheBytes), engine.NewGovernor(4, 0), cfg)
}

// gate is a RunFunc whose sweeps each announce their slots on started and
// then block until a value arrives on release (or the sweep's ctx ends),
// so a test decides exactly when every sweep publishes.
type gate struct {
	runs    atomic.Int64
	started chan []Request
	release chan struct{}
}

func newGate() *gate {
	return &gate{started: make(chan []Request, 8), release: make(chan struct{})}
}

func (g *gate) run(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
	g.runs.Add(1)
	g.started <- slots
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	vals := make([]engine.Value, len(slots))
	for i, s := range slots {
		vals[i] = engine.Value{Data: s.Key.Params}
	}
	return vals, nil
}

// result is one Execute call's outcome.
type result struct {
	val  engine.Value
	info Info
	err  error
}

// goExecute runs Execute on its own goroutine and delivers the outcome.
func goExecute(ctx context.Context, c *Collector, r Request, run RunFunc) <-chan result {
	out := make(chan result, 1)
	go func() {
		var res result
		res.val, res.info, res.err = c.Execute(ctx, r, run)
		out <- res
	}()
	return out
}

// waitSeated blocks until n callers of shape are seated in its running
// sweeps or its follower batch, so a test can act once arrivals are
// queued rather than after a guessed sleep.
func waitSeated(t *testing.T, c *Collector, shape string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		seated := 0
		if sh := c.shapes[shape]; sh != nil {
			for _, b := range sh.running {
				seated += b.waiters
			}
			if sh.follower != nil {
				seated += sh.follower.waiters
			}
		}
		c.mu.Unlock()
		if seated == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d callers seated on shape %q, want %d", seated, shape, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdLeader fires a lone query of req(leaderID)'s shape whose sweep
// blocks on g until released, and waits for that sweep to start.
func holdLeader(t *testing.T, c *Collector, g *gate, leaderID int) <-chan result {
	t.Helper()
	out := goExecute(context.Background(), c, req(leaderID), g.run)
	if slots := <-g.started; len(slots) != 1 {
		t.Fatalf("leader sweep has %d slots, want 1", len(slots))
	}
	return out
}

func expectValue(t *testing.T, name string, res result, want string, size int) {
	t.Helper()
	if res.err != nil || res.val.Data != want || !res.info.Batched || res.info.BatchSize != size {
		t.Fatalf("%s: val=%v info=%+v err=%v, want %q in a batch of %d", name, res.val.Data, res.info, res.err, want, size)
	}
}

// TestLoneQueryFiresAtOnce: a query with no sweep of its shape running
// fires at once as a batch of one — it never waits out the window.
func TestLoneQueryFiresAtOnce(t *testing.T) {
	var runs atomic.Int64
	c := newCollector(1<<20, Config{Window: 10 * time.Second})
	start := time.Now()
	v, info, err := c.Execute(context.Background(), req(1), echoRun(&runs))
	if err != nil || v.Data != key(1).Params || !info.Batched || info.BatchSize != 1 {
		t.Fatalf("lone query: val=%v info=%+v err=%v", v.Data, info, err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("lone query took %v: it waited for the window", e)
	}
	if s := c.Stats(); s.BatchesRun != 1 || s.QueriesBatched != 1 || s.WindowWaits != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestBatchGathersWindow: K distinct queries arriving while a held leader
// sweep runs gather into exactly one follower sweep of K slots, and every
// caller gets its own slot's value.
func TestBatchGathersWindow(t *testing.T) {
	g := newGate()
	c := newCollector(1<<20, Config{Window: 10 * time.Second})
	leader := holdLeader(t, c, g, 100)
	const K = 16
	outs := make([]<-chan result, K)
	for i := 0; i < K; i++ {
		outs[i] = goExecute(context.Background(), c, req(i), g.run)
	}
	waitSeated(t, c, req(0).Shape, K+1)
	g.release <- struct{}{} // the leader publishes; the follower fires
	expectValue(t, "leader", <-leader, key(100).Params, 1)
	if slots := <-g.started; len(slots) != K {
		t.Fatalf("follower sweep has %d slots, want %d", len(slots), K)
	}
	g.release <- struct{}{}
	for i := 0; i < K; i++ {
		expectValue(t, fmt.Sprintf("follower %d", i), <-outs[i], key(i).Params, K)
	}
	if got := g.runs.Load(); got != 2 {
		t.Fatalf("runs = %d, want 2 (leader + one follower)", got)
	}
	s := c.Stats()
	if s.BatchesRun != 2 || s.QueriesBatched != K+1 || s.MeanBatchSize != float64(K+1)/2 || s.WindowWaits != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestFollowerFiresWhenLeaderPublishes: the follower fires the moment the
// sweep ahead of it publishes, long before its window would.
func TestFollowerFiresWhenLeaderPublishes(t *testing.T) {
	g := newGate()
	c := newCollector(1<<20, Config{Window: time.Hour})
	leader := holdLeader(t, c, g, 100)
	follower := goExecute(context.Background(), c, req(1), g.run)
	waitSeated(t, c, req(1).Shape, 2)
	if s := c.Stats(); s.Waiting != 1 {
		t.Fatalf("waiting = %d, want 1 queued behind the leader", s.Waiting)
	}
	g.release <- struct{}{}
	<-leader
	select {
	case <-g.started:
	case <-time.After(10 * time.Second):
		t.Fatal("follower did not fire when the leader published")
	}
	g.release <- struct{}{}
	expectValue(t, "follower", <-follower, key(1).Params, 1)
	if s := c.Stats(); s.WindowWaits != 0 || s.Waiting != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestFollowerWindowCapsWait: with the leader held past the window, the
// follower fires by timer and runs beside the still-running leader.
func TestFollowerWindowCapsWait(t *testing.T) {
	g := newGate()
	c := newCollector(1<<20, Config{Window: 20 * time.Millisecond})
	leader := holdLeader(t, c, g, 100)
	follower := goExecute(context.Background(), c, req(1), g.run)
	if slots := <-g.started; len(slots) != 1 || slots[0].Key != key(1) {
		t.Fatalf("timer-fired sweep slots %v, want the follower alone", slots)
	}
	if s := c.Stats(); s.WindowWaits != 1 || s.BatchesRun != 2 {
		t.Fatalf("stats %+v", s)
	}
	g.release <- struct{}{}
	g.release <- struct{}{}
	<-leader
	<-follower
}

// TestSlotCoalescing: identical keys share one slot, including keys that
// arrive while that slot's sweep is already running; every caller gets
// the value, all but the first marked Coalesced; the sweep sees one slot.
func TestSlotCoalescing(t *testing.T) {
	var runs atomic.Int64
	var slotCount atomic.Int64
	release := make(chan struct{})
	run := func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
		runs.Add(1)
		slotCount.Store(int64(len(slots)))
		<-release
		vals := make([]engine.Value, len(slots))
		for i := range slots {
			vals[i] = engine.Value{Data: "v"}
		}
		return vals, nil
	}
	c := newCollector(0, Config{Window: 50 * time.Millisecond}) // cache off: coalescing must not depend on it
	const K = 8
	var wg sync.WaitGroup
	infos := make([]Info, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, infos[i], errs[i] = c.Execute(context.Background(), req(7), run)
		}(i)
	}
	waitSeated(t, c, req(7).Shape, K)
	close(release)
	wg.Wait()
	if runs.Load() != 1 || slotCount.Load() != 1 {
		t.Fatalf("runs=%d slots=%d, want 1/1", runs.Load(), slotCount.Load())
	}
	coalesced := 0
	for i := range infos {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if infos[i].Coalesced {
			coalesced++
		}
	}
	if coalesced != K-1 {
		t.Fatalf("coalesced = %d, want %d", coalesced, K-1)
	}
	if s := c.Stats(); s.QueriesBatched != K || s.MeanBatchSize != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestFullBatchFiresEarly: a follower that reaches MaxBatch fires without
// waiting for the leader to publish or for the window.
func TestFullBatchFiresEarly(t *testing.T) {
	g := newGate()
	c := newCollector(1<<20, Config{Window: time.Hour, MaxBatch: 4})
	leader := holdLeader(t, c, g, 100)
	outs := make([]<-chan result, 4)
	for i := range outs {
		outs[i] = goExecute(context.Background(), c, req(i), g.run)
	}
	select {
	case slots := <-g.started:
		if len(slots) != 4 {
			t.Fatalf("full follower has %d slots, want 4", len(slots))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("full follower waited for the leader")
	}
	g.release <- struct{}{}
	g.release <- struct{}{}
	<-leader
	for _, out := range outs {
		if res := <-out; res.err != nil {
			t.Fatal(res.err)
		}
	}
	if s := c.Stats(); s.WindowWaits != 0 || s.BatchesRun != 2 {
		t.Fatalf("full batch counted as window wait: %+v", s)
	}
}

// TestCallerCancelMidBatch: one caller cancels while its shared sweep
// runs; it gets its ctx error immediately, the others still get their
// results, and the sweep is NOT cancelled.
func TestCallerCancelMidBatch(t *testing.T) {
	g := newGate()
	c := newCollector(1<<20, Config{Window: time.Hour})
	leader := holdLeader(t, c, g, 100)
	cctx, cancel := context.WithCancel(context.Background())
	cancelled := goExecute(cctx, c, req(0), g.run)
	siblings := make([]<-chan result, 3)
	for i := range siblings {
		siblings[i] = goExecute(context.Background(), c, req(i+1), g.run)
	}
	waitSeated(t, c, req(0).Shape, 5)
	g.release <- struct{}{}
	<-leader
	if slots := <-g.started; len(slots) != 4 {
		t.Fatalf("shared sweep has %d slots, want 4", len(slots))
	}
	cancel()
	// The cancelled caller must return promptly even though the sweep is
	// still blocked on release.
	select {
	case res := <-cancelled:
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("cancelled caller err = %v", res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller did not return")
	}
	select {
	case g.release <- struct{}{}:
	case <-time.After(5 * time.Second):
		t.Fatal("sweep was cancelled although waiters remained")
	}
	for i, out := range siblings {
		expectValue(t, fmt.Sprintf("sibling %d", i), <-out, key(i+1).Params, 4)
	}
}

// TestAllCallersCancelStopsSweep: when every waiter detaches, the batch
// context is cancelled so the sweep can stop early.
func TestAllCallersCancelStopsSweep(t *testing.T) {
	started := make(chan struct{})
	stopped := make(chan error, 1)
	run := func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
		close(started)
		select {
		case <-ctx.Done():
			stopped <- ctx.Err()
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			stopped <- nil
			return nil, errors.New("never cancelled")
		}
	}
	c := newCollector(1<<20, Config{Window: 5 * time.Millisecond})
	cctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Execute(cctx, req(0), run)
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller err = %v", err)
	}
	select {
	case err := <-stopped:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sweep saw %v, want cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never observed cancellation")
	}
}

// TestDetachBeforeFireDropsBatch: a follower whose waiters all cancel
// before it fires is retired without running, and the leader's publish
// afterwards fires nothing.
func TestDetachBeforeFireDropsBatch(t *testing.T) {
	g := newGate()
	c := newCollector(1<<20, Config{Window: time.Hour})
	leader := holdLeader(t, c, g, 100)
	cctx, cancel := context.WithCancel(context.Background())
	outs := []<-chan result{goExecute(cctx, c, req(0), g.run), goExecute(cctx, c, req(1), g.run)}
	waitSeated(t, c, req(0).Shape, 3)
	cancel()
	for _, out := range outs {
		if res := <-out; !errors.Is(res.err, context.Canceled) {
			t.Fatalf("err = %v", res.err)
		}
	}
	c.mu.Lock()
	follower := c.shapes[req(0).Shape].follower
	c.mu.Unlock()
	if follower != nil {
		t.Fatal("abandoned follower left forming")
	}
	g.release <- struct{}{}
	expectValue(t, "leader", <-leader, key(100).Params, 1)
	waitSeated(t, c, req(0).Shape, 0)
	if runs := g.runs.Load(); runs != 1 {
		t.Fatalf("runs = %d: the abandoned follower still ran", runs)
	}
	if s := c.Stats(); s.BatchesRun != 1 {
		t.Fatalf("abandoned batch counted: %+v", s)
	}
}

// TestPanicFanout: a panic inside the sweep becomes a *parallel.PanicError
// for EVERY waiter, counts fanout errors, and leaves the collector usable.
func TestPanicFanout(t *testing.T) {
	boom := func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
		panic("sweep exploded")
	}
	c := newCollector(1<<20, Config{Window: 20 * time.Millisecond})
	const K = 5
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Execute(context.Background(), req(i), boom)
		}(i)
	}
	wg.Wait()
	for i := 0; i < K; i++ {
		var pe *parallel.PanicError
		if !errors.As(errs[i], &pe) {
			t.Fatalf("caller %d err = %v, want *parallel.PanicError", i, errs[i])
		}
	}
	if s := c.Stats(); s.FanoutErrors != K {
		t.Fatalf("fanout_errors = %d, want %d", s.FanoutErrors, K)
	}
	// Collector still works after the panic.
	var runs atomic.Int64
	if _, _, err := c.Execute(context.Background(), req(99), echoRun(&runs)); err != nil {
		t.Fatalf("post-panic execute: %v", err)
	}
}

// TestPanicLeaderReleasesFollowers: a leader sweep that panics still
// publishes, so the follower gathered behind it fires and answers.
func TestPanicLeaderReleasesFollowers(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	boom := func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
		close(started)
		<-release
		panic("leader exploded")
	}
	var runs atomic.Int64
	c := newCollector(1<<20, Config{Window: time.Hour})
	leader := goExecute(context.Background(), c, req(100), boom)
	<-started
	outs := []<-chan result{goExecute(context.Background(), c, req(1), echoRun(&runs)), goExecute(context.Background(), c, req(2), echoRun(&runs))}
	waitSeated(t, c, req(1).Shape, 3)
	close(release)
	var pe *parallel.PanicError
	if res := <-leader; !errors.As(res.err, &pe) {
		t.Fatalf("leader err = %v, want *parallel.PanicError", res.err)
	}
	for i, out := range outs {
		expectValue(t, fmt.Sprintf("follower %d", i), <-out, key(i+1).Params, 2)
	}
	if s := c.Stats(); s.FanoutErrors != 1 || s.WindowWaits != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestCacheInteraction: a hit skips batching entirely; a successful sweep
// fills the cache per slot so repeats are hits.
func TestCacheInteraction(t *testing.T) {
	var runs atomic.Int64
	c := newCollector(1<<20, Config{Window: 5 * time.Millisecond})
	v, info, err := c.Execute(context.Background(), req(1), echoRun(&runs))
	if err != nil || info.Cached {
		t.Fatalf("first: %+v %v", info, err)
	}
	v2, info2, err := c.Execute(context.Background(), req(1), echoRun(&runs))
	if err != nil || !info2.Cached || info2.Batched {
		t.Fatalf("second: %+v %v", info2, err)
	}
	if v2.Data != v.Data {
		t.Fatal("cache returned a different value")
	}
	if runs.Load() != 1 {
		t.Fatalf("runs = %d, want 1 (second served from cache)", runs.Load())
	}
	// Pre-seeded cache short-circuits too.
	c.cache.Put(key(42), engine.Value{Data: "seeded", Bytes: 6})
	v3, info3, err := c.Execute(context.Background(), req(42), echoRun(&runs))
	if err != nil || !info3.Cached || v3.Data != "seeded" {
		t.Fatalf("seeded: %v %+v %v", v3.Data, info3, err)
	}
}

// TestShapeIsolation: different shapes never share a batch, and a
// running sweep of one shape does not hold back a query of another.
func TestShapeIsolation(t *testing.T) {
	g := newGate()
	c := newCollector(1<<20, Config{Window: time.Hour})
	leader := holdLeader(t, c, g, 100)
	var runs atomic.Int64
	other := req(1)
	other.Shape = "other-shape"
	v, info, err := c.Execute(context.Background(), other, echoRun(&runs))
	if err != nil || v.Data != key(1).Params || info.BatchSize != 1 {
		t.Fatalf("other shape: val=%v info=%+v err=%v", v.Data, info, err)
	}
	if runs.Load() != 1 {
		t.Fatalf("other-shape runs = %d, want 1", runs.Load())
	}
	g.release <- struct{}{}
	<-leader
}

// TestBadFanoutIsError: a RunFunc returning misaligned values is an error
// for every caller, not a silent wrong answer.
func TestBadFanoutIsError(t *testing.T) {
	bad := func(ctx context.Context, procs int, slots []Request) ([]engine.Value, error) {
		return make([]engine.Value, len(slots)+1), nil
	}
	c := newCollector(1<<20, Config{Window: time.Millisecond})
	if _, _, err := c.Execute(context.Background(), req(0), bad); err == nil {
		t.Fatal("misaligned fanout accepted")
	}
}

// TestClusterRunEndToEnd: the standard sweep RunFunc through the
// collector answers mixed bfs/reach/landmarks queries identically to the
// unbatched runners.
func TestClusterRunEndToEnd(t *testing.T) {
	g, err := gen.RMAT(9, 8, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	c := newCollector(0, Config{Window: time.Hour}) // cache off: every query must traverse
	type q struct {
		name string
		p    algo.Params
	}
	queries := []q{
		{"bfs", algo.Params{Source: 1}},
		{"bfs", algo.Params{Source: uint32(n - 1)}},
		{"reach", algo.Params{Source: 2, Target: uint32(n / 2)}},
		{"landmarks", algo.Params{Source: 3, Landmarks: []uint32{0, uint32(n / 3), uint32(n - 2)}}},
	}
	run := ClusterRun(g)
	// A held leader of the same shape makes all four queries gather into
	// one follower sweep.
	gt := newGate()
	leaderReq := req(100)
	leaderReq.Shape = "g/1/auto/0"
	leader := goExecute(context.Background(), c, leaderReq, gt.run)
	<-gt.started
	var wg sync.WaitGroup
	got := make([]engine.Value, len(queries))
	infos := make([]Info, len(queries))
	for i, qu := range queries {
		wg.Add(1)
		go func(i int, qu q) {
			defer wg.Done()
			r := Request{
				Key:    engine.Key{Graph: "g", Generation: 1, Algo: qu.name, Params: qu.p.Canonical()},
				Shape:  "g/1/auto/0",
				Algo:   qu.name,
				Params: qu.p,
			}
			var err error
			got[i], infos[i], err = c.Execute(context.Background(), r, run)
			if err != nil {
				t.Error(err)
			}
		}(i, qu)
	}
	waitSeated(t, c, leaderReq.Shape, len(queries)+1)
	gt.release <- struct{}{}
	<-leader
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, qu := range queries {
		runner, ok := algo.FindRunner(qu.name)
		if !ok {
			t.Fatalf("no runner %s", qu.name)
		}
		want, err := runner.Run(context.Background(), g, qu.p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Data, want) {
			t.Fatalf("query %d (%s) diverges:\n got %+v\nwant %+v", i, qu.name, got[i].Data, want)
		}
		if !infos[i].Batched || infos[i].BatchSize != len(queries) {
			t.Fatalf("query %d info %+v", i, infos[i])
		}
	}
}
