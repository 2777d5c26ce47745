package main

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"ligra/internal/algo"
	"ligra/internal/delta"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/seq"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 500}, {90, 900}, {99, 990}, {100, 1000}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
	// The guide's rule: report the highest percentile with at least ten
	// samples beyond it. p99 needs 1000 samples, p90 needs 100.
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
	if got := beyond(999, 99); got >= 10 {
		t.Errorf("beyond(999, 99) = %d, want < 10", got)
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("p50 of 3 samples = %v, want 2", got)
	}
}

func TestSelfTimeOverlappingAndConcurrentChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 50 * ms},  // overlaps a
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms}, // outlives root
		{Name: "d", Parent: 1, Start: 12 * ms, End: 14 * ms},  // grandchild
		{Name: "e", Parent: 0, Start: 60 * ms, End: -1},       // unfinished
	}
	self := selfTimes(spans)
	want := []time.Duration{50 * time.Millisecond, 18 * time.Millisecond, 30 * time.Millisecond,
		30 * time.Millisecond, 2 * time.Millisecond, 0}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}

	// Children recorded concurrently from other goroutines while the
	// parent is open: self time stays within [0, duration].
	rec := newRecorder()
	root := rec.begin("root", 1, -1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := rec.begin("child", 1, root)
			time.Sleep(2 * time.Millisecond)
			rec.end(c)
		}()
	}
	wg.Wait()
	rec.end(root)
	got := rec.snapshot()
	st := selfTimes(got)
	if st[0] < 0 || st[0] > got[0].dur() {
		t.Errorf("root self %v outside [0, %v]", st[0], got[0].dur())
	}
	if covered := got[0].dur() - st[0]; covered < 2*time.Millisecond {
		t.Errorf("concurrent children cover %v, want at least one child's 2ms", covered)
	}
}

func TestUnionLength(t *testing.T) {
	if got := unionLength([][2]int64{{5, 10}, {0, 3}, {2, 6}, {20, 21}}); got != 11 {
		t.Errorf("union length %d, want 11", got)
	}
	if got := unionLength(nil); got != 0 {
		t.Errorf("empty union %d", got)
	}
}

// sleeper replies 200 after d, to time the load generator alone.
type sleeper struct{ d time.Duration }

func (s sleeper) exec(*op, int) (int, []byte) {
	time.Sleep(s.d)
	return http.StatusOK, nil
}

func TestOpenLoopTimesFromSchedule(t *testing.T) {
	r := &opResult{}
	t0 := time.Now()
	r.scheduled, r.sent, r.done = t0, t0.Add(3*time.Millisecond), t0.Add(10*time.Millisecond)
	if r.latency() != 10*time.Millisecond || r.lateness() != 3*time.Millisecond {
		t.Fatalf("latency %v lateness %v, want 10ms and 3ms", r.latency(), r.lateness())
	}

	// Two events 10ms apart against a 40ms service: an open loop sends
	// the second on schedule, without waiting for the first reply.
	q := &op{kind: kindQuery}
	events := []event{{at: 0, ops: []*op{q}}, {at: 10 * time.Millisecond, ops: []*op{q}}}
	start := time.Now()
	res, ls := runOpen(sleeper{40 * time.Millisecond}, &records{}, events, start, 0)
	if ls.inflightMax != 2 {
		t.Errorf("in flight at most %d, want 2", ls.inflightMax)
	}
	if got := res[1].scheduled.Sub(start); got != 10*time.Millisecond {
		t.Errorf("second op scheduled at %v, want 10ms", got)
	}
	for i, r := range res {
		if r.latency() < 40*time.Millisecond || r.latency() > 200*time.Millisecond {
			t.Errorf("op %d latency %v, want about 40ms", i, r.latency())
		}
		if r.lateness() < 0 || r.lateness() > 50*time.Millisecond {
			t.Errorf("op %d lateness %v", i, r.lateness())
		}
	}

	// A stalled generator charges the stall to the operation: an event
	// due in the past is sent late, and its latency counts from when it
	// was due.
	late, _ := runOpen(sleeper{0}, &records{}, []event{{at: 0, ops: []*op{q}}}, time.Now().Add(-20*time.Millisecond), 0)
	if late[0].lateness() < 20*time.Millisecond || late[0].latency() < 20*time.Millisecond {
		t.Errorf("stalled op lateness %v latency %v, want >= 20ms", late[0].lateness(), late[0].latency())
	}
}

func TestClosedLoopRunsWholeBlocks(t *testing.T) {
	ops := []*op{{kind: kindQuery}, {kind: kindQuery}, {kind: kindQuery}}
	rs := newRecords(2)
	res, ls := runClosed(sleeper{time.Millisecond}, rs, ops, 3, 5*time.Millisecond, 0)
	if res[0] != &rs.buf[0] || res[1] != &rs.buf[1] || len(rs.buf) != 2 {
		t.Error("the first records do not come from the reserve")
	}
	if len(res)%3 != 0 || len(res) < 3 || ls.inflightMax != 1 {
		t.Errorf("%d ops, in flight %d: want whole blocks of 3, one at a time", len(res), ls.inflightMax)
	}
	for i := 1; i < len(res); i++ {
		if res[i].scheduled.Before(res[i-1].done) || res[i].sent.Before(res[i].scheduled) {
			t.Errorf("op %d due at %v, before the previous reply %v", i, res[i].scheduled, res[i-1].done)
		}
	}
}

func TestFailureAccounting(t *testing.T) {
	q := &op{kind: kindQuery, algo: "bfs", compSize: 3}
	replies := []struct {
		op     *op
		status int
		body   string
	}{
		{q, 200, `{"details":{"visited":3}}`},
		{q, 200, `{"details":{"visited":2}}`}, // wrong answer
		{q, 429, `{"error":"shed"}`},          // shed
		{q, 503, `{"error":"breaker"}`},       // breaker open
		{&op{kind: kindUpdate}, 200, `{"version":5,"prev_version":4}`},
	}
	var results []*opResult
	for _, c := range replies {
		r := &opResult{op: c.op}
		r.settle(c.status, []byte(c.body))
		results = append(results, r)
	}
	var tl tally
	tl.add(results)
	if tl.attempted != 5 || tl.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", tl.attempted, tl.failed)
	}
	if got := latencies(results, kindQuery); len(got) != 1 {
		t.Errorf("%d successful query latencies, want 1", len(got))
	}
}

func TestVersionChain(t *testing.T) {
	mk := func(body string, nops int) *opResult {
		r := &opResult{op: &op{kind: kindUpdate, edgeOps: make([]delta.EdgeOp, nops)}}
		r.settle(200, []byte(body))
		return r
	}
	ok := []*opResult{
		mk(`{"version":3,"prev_version":2,"inserted":2,"deleted":0,"requests_batched":2}`, 1),
		mk(`{"version":3,"prev_version":2,"inserted":2,"deleted":0,"requests_batched":2}`, 0),
		mk(`{"version":4,"prev_version":3,"inserted":0,"deleted":2,"requests_batched":1}`, 1),
	}
	if err := checkVersionChain(ok, 2); err != nil {
		t.Errorf("valid chain: %v", err)
	}
	if err := checkVersionChain(ok, 1); err == nil {
		t.Error("chain from the wrong base accepted")
	}
	gap := []*opResult{ok[0], mk(`{"version":5,"prev_version":4,"inserted":2,"requests_batched":1}`, 1)}
	if err := checkVersionChain(gap, 2); err == nil {
		t.Error("chain with a missing version accepted")
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	g, err := gen.RMAT(10, 16, gen.PBBSRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(g)
	for _, name := range []string{"serve-mixed", "traverse-grid"} {
		w := workloads[name]
		a, err := w.buildSchedule(7, g, o, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.buildSchedule(7, g, o, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two schedules", name)
		}
		c, err := w.buildSchedule(8, g, o, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

func TestEveryUpdateSlotGetsOps(t *testing.T) {
	g, err := gen.RMAT(10, 16, gen.PBBSRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(g)
	w := workloads["serve-mixed"]
	for seed := uint64(1); seed <= 30; seed++ {
		s, err := w.buildSchedule(seed, g, o, 4*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var updates int
		for _, ev := range slices.Concat(s.warm, s.main) {
			for _, q := range ev.ops {
				if q == nil || (q.kind == kindUpdate && len(q.edgeOps) != w.opsPerReq) {
					t.Fatalf("seed %d: update slot without its ops", seed)
				}
				if q.kind == kindUpdate {
					updates++
				}
			}
		}
		if updates == 0 || updates%w.updateReqs != 0 {
			t.Errorf("seed %d: %d update requests, want whole bursts of %d", seed, updates, w.updateReqs)
		}
	}
}

func TestOracleMatchesRunners(t *testing.T) {
	g, err := gen.RMAT(10, 16, gen.PBBSRMAT, 9)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(g)
	qg := &queryGen{rng: stream(1, 1), o: o}
	for _, name := range []string{"bfs", "reach", "landmarks", "bellman-ford", "bc", "components"} {
		for i := 0; i < 3; i++ {
			q := qg.query(name, "test")
			q.want = exactFor(g, q)
			runner, _ := algo.FindRunner(name)
			res, err := runner.Run(context.Background(), g, algo.Params{Source: q.source, Target: q.target, Landmarks: q.landmarks})
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(map[string]any{"details": res.Details})
			if err != nil {
				t.Fatal(err)
			}
			r := &opResult{op: q}
			if r.settle(200, body); r.failed {
				t.Errorf("%s: %s", name, r.reason)
			}
		}
	}
}

func TestUpdatePlanKeepsComponents(t *testing.T) {
	for _, g := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return gen.RMAT(10, 16, gen.PBBSRMAT, 2) },
		func() (*graph.Graph, error) { return gen.Grid3D(8) },
	} {
		base, err := g()
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(base)
		plan, err := planUpdates(base, o, stream(4, 6), 100, 100)
		if err != nil {
			t.Fatal(err)
		}
		// Deletes alone are the worst case for connectivity.
		delOnly := &updatePlan{deletes: plan.deletes}
		for _, p := range []*updatePlan{plan, delOnly} {
			after, err := p.apply(base)
			if err != nil {
				t.Fatal(err)
			}
			labels := seq.ConnectedComponents(after)
			if !reflect.DeepEqual(labels, o.labels) {
				t.Error("update plan changed the connected components")
			}
		}
		reqs := plan.requests(4, false)
		var n int
		for _, r := range reqs {
			n += len(r)
		}
		if n != 200 {
			t.Errorf("%d ops in requests, want 200", n)
		}
	}
}
