package server

import (
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ligra/internal/faultinject"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/server/batch"
)

// saveTestGraph writes a deterministic RMAT graph to disk so two servers
// can load byte-identical copies.
func saveTestGraph(t *testing.T) string {
	t.Helper()
	g, err := gen.RMAT(10, 16, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rmat10.bin")
	if err := graph.SaveFile(path, g, true); err != nil {
		t.Fatal(err)
	}
	return path
}

// waitBatchStats polls the collector until ok holds for its counters.
func waitBatchStats(t *testing.T, s *Server, what string, ok func(batch.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok(s.Batcher().Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: batch stats %+v", what, s.Batcher().Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchedQueriesOverHTTP proves the wire contract of the batched
// path: a batchable query on an idle shape fires alone, queries arriving
// while its sweep runs gather behind it and share the next sweep
// (batched:true, batch_size > 1), every per-caller answer is identical
// to the answer a batching-disabled server gives, and the /metrics batch
// block records both sweeps.
func TestBatchedQueriesOverHTTP(t *testing.T) {
	path := saveTestGraph(t)
	srv, batched := newTestServer(t, Config{
		MaxConcurrent: 32, QueueWait: 2 * time.Second,
		BatchWindow: 10 * time.Second, // only a broken hand-off would wait it out
	})
	_, plain := newTestServer(t, Config{
		MaxConcurrent: 32, QueueWait: 2 * time.Second,
		BatchWindow: -1, // batching off: every query runs alone
	})
	for _, ts := range []*struct{ url string }{{batched.URL}, {plain.URL}} {
		if status, body := doJSON(t, "POST", ts.url+"/v1/graphs/g", map[string]any{"path": path}); status != http.StatusOK {
			t.Fatalf("load: status %d, body %v", status, body)
		}
	}

	// A mixed batch: bfs, reach, and landmarks queries share one sweep
	// (same graph generation, mode, and threshold → same shape).
	queries := []map[string]any{
		{"algo": "bfs", "source": 1},
		{"algo": "bfs", "source": 2},
		{"algo": "bfs", "source": 3},
		{"algo": "reach", "source": 4, "target": 0},
		{"algo": "reach", "source": 5, "target": 700},
		{"algo": "landmarks", "source": 6, "landmarks": []int{0, 9, 500}},
		{"algo": "landmarks", "source": 7, "landmarks": []int{1}},
		{"algo": "bfs", "source": 8},
	}
	bodies := make([]map[string]any, len(queries))
	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	send := func(i int) {
		defer wg.Done()
		status, body := doJSON(t, "POST", batched.URL+"/v1/graphs/g/query", queries[i])
		if status != http.StatusOK {
			errs[i] = fmt.Errorf("batched query %v: status %d, body %v", queries[i], status, body)
			return
		}
		bodies[i] = body
	}

	// The first query finds its shape idle and fires at once; its sweep
	// parks in its first edgeMap round until released, so the other
	// seven provably arrive while it runs and queue behind it.
	release := faultinject.HoldRound(1)
	defer release()
	wg.Add(1)
	go send(0)
	waitBatchStats(t, srv, "the leader sweep", func(s batch.Stats) bool { return s.BatchesRun == 1 })
	for i := 1; i < len(queries); i++ {
		wg.Add(1)
		go send(i)
	}
	followers := int64(len(queries) - 1)
	waitBatchStats(t, srv, "the followers to queue", func(s batch.Stats) bool { return s.Waiting == followers })
	release()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every reply is marked batched; the leader swept alone and the
	// seven followers shared the sweep fired when it published.
	for i, body := range bodies {
		want := len(queries) - 1
		if i == 0 {
			want = 1
		}
		if body["batched"] != true || int(body["batch_size"].(float64)) != want {
			t.Errorf("query %v: batched=%v batch_size=%v, want batched in a sweep of %d",
				queries[i], body["batched"], body["batch_size"], want)
		}
	}

	// Per-caller parity: each batched answer equals the answer the
	// batching-disabled server computes for the same query.
	for i, q := range queries {
		status, base := doJSON(t, "POST", plain.URL+"/v1/graphs/g/query", q)
		if status != http.StatusOK {
			t.Fatalf("plain query %v: status %d, body %v", q, status, base)
		}
		if base["batched"] != nil {
			t.Fatalf("batching-disabled server emitted a batched flag: %v", base)
		}
		if bodies[i]["summary"] != base["summary"] {
			t.Errorf("query %v: batched summary %q != unbatched %q", q, bodies[i]["summary"], base["summary"])
		}
		if !reflect.DeepEqual(bodies[i]["details"], base["details"]) {
			t.Errorf("query %v: batched details %v != unbatched %v", q, bodies[i]["details"], base["details"])
		}
	}

	// The /metrics batch block saw both sweeps. Neither waited for the
	// window: the leader fired on an idle shape, the follower when the
	// leader published.
	snap := metricsSnapshot(t, batched.URL)
	if snap.Batch.BatchesRun != 2 {
		t.Errorf("batches_run = %d, want 2 (leader + follower)", snap.Batch.BatchesRun)
	}
	if snap.Batch.QueriesBatched != int64(len(queries)) {
		t.Errorf("queries_batched = %d, want %d", snap.Batch.QueriesBatched, len(queries))
	}
	if want := float64(len(queries)) / 2; snap.Batch.MeanBatchSize != want {
		t.Errorf("mean_batch_size = %v, want %v", snap.Batch.MeanBatchSize, want)
	}
	if snap.Batch.WindowWaits != 0 || snap.Batch.Waiting != 0 {
		t.Errorf("window_waits = %d, waiting = %d, want 0/0 (no sweep fired by timer)", snap.Batch.WindowWaits, snap.Batch.Waiting)
	}
	if plainSnap := metricsSnapshot(t, plain.URL); plainSnap.Batch.BatchesRun != 0 {
		t.Errorf("batching-disabled server ran %d batches", plainSnap.Batch.BatchesRun)
	}
}

// TestBatchValidationOverHTTP proves out-of-range reach targets and bad
// landmark lists are rejected with 400 before the sweep — never silently
// read as "unreachable" from a visit word that has no bit for them.
func TestBatchValidationOverHTTP(t *testing.T) {
	path := saveTestGraph(t)
	_, ts := newTestServer(t, Config{MaxConcurrent: 8, QueueWait: time.Second})
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"path": path}); status != http.StatusOK {
		t.Fatal("load failed")
	}
	bad := []map[string]any{
		{"algo": "reach", "source": 0, "target": 1 << 30},
		{"algo": "landmarks", "source": 0},
		{"algo": "landmarks", "source": 0, "landmarks": []int{}},
		{"algo": "landmarks", "source": 0, "landmarks": []int{1 << 30}},
		{"algo": "landmarks", "source": 0, "landmarks": make([]int, 65)},
	}
	for _, q := range bad {
		if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", q); status != http.StatusBadRequest {
			t.Errorf("query %v: status %d, body %v, want 400", q, status, body)
		}
	}
	// The in-range versions succeed, so the rejections above are the
	// validator's doing, not some broader failure.
	good := []map[string]any{
		{"algo": "reach", "source": 0, "target": 5},
		{"algo": "landmarks", "source": 0, "landmarks": []int{1, 2, 3}},
	}
	for _, q := range good {
		if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", q); status != http.StatusOK {
			t.Errorf("query %v: status %d, body %v, want 200", q, status, body)
		}
	}
}

// TestBatchedPanicFanout is the chaos case: a panic inside the shared
// sweep reaches every caller in the batch as a contained 500 — no caller
// hangs, no caller gets a sibling's result — and the server keeps
// serving afterwards.
func TestBatchedPanicFanout(t *testing.T) {
	path := saveTestGraph(t)
	_, ts := newTestServer(t, Config{
		MaxConcurrent: 16, QueueWait: 2 * time.Second,
		BatchWindow:      500 * time.Millisecond,
		BreakerThreshold: 100, // stay closed through the storm
	})
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"path": path}); status != http.StatusOK {
		t.Fatal("load failed")
	}

	disarm := faultinject.PanicOnChunk(1, "injected sweep panic")
	const callers = 4
	type reply struct {
		status int
		body   map[string]any
	}
	replies := make(chan reply, callers)
	for i := 0; i < callers; i++ {
		go func(src int) {
			status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query",
				map[string]any{"algo": "bfs", "source": src})
			replies <- reply{status, body}
		}(i + 1)
	}
	got500 := 0
	for i := 0; i < callers; i++ {
		r := <-replies
		if r.status == http.StatusInternalServerError {
			got500++
			if !strings.Contains(r.body["error"].(string), "injected sweep panic") {
				t.Errorf("panic reply does not carry the panic value: %v", r.body)
			}
		} else if r.status != http.StatusOK {
			t.Errorf("batched caller during panic: status %d, body %v", r.status, r.body)
		}
	}
	disarm()
	// The hook fires once, on the first dispatched chunk; at least the
	// sweep that hit it must fan the failure out to its whole batch.
	if got500 < 1 {
		t.Fatal("no caller observed the injected sweep panic")
	}

	// Containment: the collector and server survive, and the same
	// queries now succeed (batched again, with correct answers).
	status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "bfs", "source": 1})
	if status != http.StatusOK {
		t.Fatalf("server did not survive the batched panic: status %d, body %v", status, body)
	}
	if body["batched"] != true {
		t.Errorf("post-panic query not batched: %v", body)
	}
	snap := metricsSnapshot(t, ts.URL)
	if snap.Batch.FanoutErrors < int64(got500) {
		t.Errorf("fanout_errors = %d, want >= %d", snap.Batch.FanoutErrors, got500)
	}
}
