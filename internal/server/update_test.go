package server

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ligra/internal/algo"
	"ligra/internal/compress"
	"ligra/internal/core"
	"ligra/internal/delta"
	"ligra/internal/gen"
)

// TestUpdateEndToEnd drives the dynamic-graph lifecycle over HTTP: load
// → query (caches under v1) → update batch (version bump, listing
// refresh) → re-query (new snapshot, incremental refresh) → verify the
// incremental answer against a full recompute on the live snapshot.
func TestUpdateEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{UpdateWindow: -1, CacheBytes: 1 << 20})

	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 10}); status != http.StatusOK {
		t.Fatalf("load: %d %v", status, body)
	}

	status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "components"})
	if status != http.StatusOK {
		t.Fatalf("query: %d %v", status, body)
	}
	fullComponents := body["details"].(map[string]any)["components"].(float64)

	// The first update: two fresh edges bridging high-numbered vertices
	// (rMat leaves isolated vertices at the top of the ID space, so the
	// component count is very likely to change; correctness is asserted
	// against full recompute either way).
	n := s.Registry().List()[0].Vertices
	status, body = doJSON(t, "POST", ts.URL+"/v1/graphs/g/update", map[string]any{
		"ops": []map[string]any{
			{"src": 0, "dst": n - 1},
			{"src": 1, "dst": n - 2},
			{"src": 0, "dst": n - 1, "del": true},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("update: %d %v", status, body)
	}
	if body["version"].(float64) <= body["prev_version"].(float64) {
		t.Fatalf("update did not advance the version: %v", body)
	}
	version := body["version"].(float64)

	// Listing reflects the new snapshot.
	info := s.Registry().List()[0]
	if info.SnapshotVersion != uint64(version) {
		t.Fatalf("listing snapshot_version %d, update reported %v", info.SnapshotVersion, version)
	}

	// Re-query: keyed under the new version, so not served from the v1
	// cache entry; the refresh path replays the delta log.
	status, body = doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "components"})
	if status != http.StatusOK {
		t.Fatalf("re-query: %d %v", status, body)
	}
	if body["cached"] == true {
		t.Fatal("post-update query served from the stale generation's cache")
	}
	details := body["details"].(map[string]any)
	if details["incremental"] != true {
		t.Fatalf("post-update components not served incrementally: %v", details)
	}

	// Cross-validate against a full recompute on the current snapshot.
	pin, _, err := s.Registry().Acquire(context.Background(), "g")
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	full, err := algo.ConnectedComponentsCtx(context.Background(), pin.View(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := details["components"].(float64); int(got) != full.Components {
		t.Fatalf("incremental components %v, full recompute %d (was %v before update)",
			got, full.Components, fullComponents)
	}

	// Same query again is a cache hit under the new version.
	if _, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "components"}); body["cached"] != true {
		t.Fatalf("repeat query not cached: %v", body)
	}

	// /metrics gained the updates block and per-graph gauges.
	snap := metricsSnapshot(t, ts.URL)
	if snap.Updates.Batches == 0 || snap.Updates.Inserted == 0 {
		t.Fatalf("updates block not populated: %+v", snap.Updates)
	}
	if snap.Updates.IncrementalRuns == 0 {
		t.Fatalf("incremental runs not counted: %+v", snap.Updates)
	}
	if snap.Graphs[0].SnapshotVersion != uint64(version) {
		t.Fatalf("metrics snapshot_version %d, want %v", snap.Graphs[0].SnapshotVersion, version)
	}
}

// TestUpdatesDoNotSurviveEviction pins the /update durability contract:
// acknowledged updates live only in process memory, so evicting a graph
// and reloading it with the same spec serves the base graph again, under
// a version no cached answer from the updated graph can match.
func TestUpdatesDoNotSurviveEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{UpdateWindow: -1, CacheBytes: 1 << 20})
	spec := map[string]any{"gen": "rmat", "scale": 10}
	state := func() (int, int64, float64) {
		t.Helper()
		status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "components"})
		if status != http.StatusOK {
			t.Fatalf("components: %d %v", status, body)
		}
		info := s.Registry().List()[0]
		return info.Vertices, info.Edges, body["details"].(map[string]any)["components"].(float64)
	}

	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g", spec); status != http.StatusOK {
		t.Fatalf("load: %d %v", status, body)
	}
	n, edges, comps := state()

	// A new edge between two new vertices adds two directed edges and
	// one component.
	status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/update", map[string]any{
		"ops": []map[string]any{{"src": n, "dst": n + 1}},
	})
	if status != http.StatusOK {
		t.Fatalf("update: %d %v", status, body)
	}
	updated := uint64(body["version"].(float64))
	if _, e, c := state(); e != edges+2 || c != comps+1 {
		t.Fatalf("after update: %d edges, %v components; want %d, %v", e, c, edges+2, comps+1)
	}

	if status, body := doJSON(t, "DELETE", ts.URL+"/v1/graphs/g", nil); status != http.StatusOK {
		t.Fatalf("evict: %d %v", status, body)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g", spec); status != http.StatusOK {
		t.Fatalf("reload: %d %v", status, body)
	}
	if v, e, c := state(); v != n || e != edges || c != comps {
		t.Fatalf("after reload: %d vertices, %d edges, %v components; want the first load's %d, %d, %v",
			v, e, c, n, edges, comps)
	}
	if v := s.Registry().List()[0].SnapshotVersion; v <= updated {
		t.Fatalf("reload serves version %d, not past the updated snapshot's %d", v, updated)
	}
}

func TestUpdateValidationAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{UpdateWindow: -1})
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/nope/update", map[string]any{
		"ops": []map[string]any{{"src": 1, "dst": 2}},
	}); status != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d, want 404", status)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g2", map[string]any{"gen": "rmat", "scale": 8}); status != http.StatusOK {
		t.Fatalf("load: %d %v", status, body)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g2/update", map[string]any{
		"ops": []map[string]any{{"src": 3, "dst": 3}},
	}); status != http.StatusBadRequest {
		t.Fatalf("self-loop: status %d (%v), want 400", status, body)
	}
}

// TestUpdateBacklog429 floods a store whose pending budget admits a
// single in-flight batch: concurrent writers must see 429 with a
// Retry-After header, and the rejection must be counted.
func TestUpdateBacklog429(t *testing.T) {
	s, ts := newTestServer(t, Config{
		UpdateWindow:     50 * time.Millisecond,
		UpdateMaxPending: 2,
	})
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 8}); status != http.StatusOK {
		t.Fatalf("load: %d %v", status, body)
	}
	var mu sync.Mutex
	got429 := false
	var wg sync.WaitGroup
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		done := got429
		mu.Unlock()
		if done {
			break
		}
		wg.Add(4)
		for w := 0; w < 4; w++ {
			go func(w int) {
				defer wg.Done()
				body := fmt.Sprintf(`{"ops":[{"src":%d,"dst":1000},{"src":%d,"dst":1000,"del":true}]}`, w+2, w+2)
				resp, err := http.Post(ts.URL+"/v1/graphs/g/update", "application/json", strings.NewReader(body))
				if err != nil {
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
					mu.Lock()
					got429 = true
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
	}
	if !got429 {
		t.Fatal("backlog flood never produced a 429")
	}
	if metricsSnapshot(t, ts.URL).Updates.Rejected == 0 {
		t.Fatal("rejected_busy not counted")
	}
	_ = s
}

// TestEvictWhileQueryRunningMmap is the PR 8 regression guard the issue
// names: a pinned snapshot of an mmap-backed graph must keep its mapping
// alive until the last reader detaches, and eviction must unmap it
// afterwards.
func TestEvictWhileQueryRunningMmap(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.PBBSRMAT, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compress.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.gc")
	if err := compress.WriteCompressedFile(path, c); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{UpdateWindow: -1})
	status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/m", map[string]any{"path": path, "mmap": true})
	if status != http.StatusOK {
		t.Fatalf("load: %d %v", status, body)
	}
	if s.Registry().List()[0].MappedBytes == 0 {
		t.Skip("mmap not available on this platform")
	}

	// An update batch overlays the mapped base, so the pinned snapshot
	// reads through to the mapping.
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/m/update", map[string]any{
		"ops": []map[string]any{{"src": 0, "dst": 1}},
	}); status != http.StatusOK {
		t.Fatalf("update: %d %v", status, body)
	}

	pin, _, err := s.Registry().Acquire(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	mapped, ok := pin.View().(interface{ MappedBytes() int64 })
	if !ok || mapped.MappedBytes() == 0 {
		t.Fatalf("pinned view lost its mapping before eviction")
	}

	if status, _ := doJSON(t, "DELETE", ts.URL+"/v1/graphs/m", nil); status != http.StatusOK {
		t.Fatal("evict failed")
	}
	// The mapping must survive while the pin is held; the snapshot must
	// stay traversable end to end.
	if mapped.MappedBytes() == 0 {
		t.Fatal("mapping released while a query held a pin")
	}
	res, err := algo.ConnectedComponentsCtx(context.Background(), pin.View(), core.Options{})
	if err != nil || res.Components == 0 {
		t.Fatalf("pinned traversal after evict failed: %v %+v", err, res)
	}
	pin.Release()
	if mapped.MappedBytes() != 0 {
		t.Fatal("mapping not released after the last reader detached")
	}

	// New queries see the eviction.
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs/m/query", map[string]any{"algo": "components"}); status != http.StatusNotFound {
		t.Fatalf("query after evict: status %d, want 404", status)
	}
}

// TestConcurrentQueriesAndUpdates is the race-enabled acceptance test:
// queries keep running against pinned snapshots while update batches
// land. Readers must never fail, never block on writers, and at the end
// the incremental state must agree with a full recompute.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	s, ts := newTestServer(t, Config{UpdateWindow: time.Millisecond, CacheBytes: -1})
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g", map[string]any{"gen": "rmat", "scale": 10}); status != http.StatusOK {
		t.Fatalf("load: %d %v", status, body)
	}
	n := s.Registry().List()[0].Vertices

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}
	// Writers: small randomized batches, insert/delete mix.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := (w*131 + i*17) % n
				dst := (src + 1 + (i*29)%(n-1)) % n
				if src == dst {
					continue
				}
				del := i%3 == 0
				body := fmt.Sprintf(`{"ops":[{"src":%d,"dst":%d,"del":%t}]}`, src, dst, del)
				resp, err := http.Post(ts.URL+"/v1/graphs/g/update", "application/json", strings.NewReader(body))
				if err != nil {
					report("update: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					report("update status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	// Readers: components queries against whatever snapshot they pin.
	for rdr := 0; rdr < 2; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "components"})
				if status != http.StatusOK {
					report("query status %d: %v", status, body)
					return
				}
			}
		}()
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}

	// Settle: the store's memoized incremental state must agree with a
	// full recompute on the final snapshot.
	pin, _, err := s.Registry().Acquire(context.Background(), "g")
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	st := pin.Store()
	incRes, _, err := st.RefreshCC(context.Background(), pin, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := algo.ConnectedComponentsCtx(context.Background(), pin.View(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if incRes.Components != full.Components {
		t.Fatalf("after the storm: incremental %d components, full %d", incRes.Components, full.Components)
	}
	var _ *delta.Store = st
}
