package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"
)

// executor sends one operation and returns the reply's status and body.
// req identifies the operation in spans.
type executor interface {
	exec(q *op, req int) (int, []byte)
}

// httpClient drives the server through its HTTP handler in-process: the
// full request path ligra-serve runs, with no sockets.
type httpClient struct{ h http.Handler }

func (c httpClient) do(method, path string, body []byte) (int, []byte) {
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	c.h.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

func (c httpClient) exec(q *op, _ int) (int, []byte) {
	if q.kind == kindUpdate {
		return c.do(http.MethodPost, "/v1/graphs/"+graphName+"/update", q.body)
	}
	return c.do(http.MethodPost, "/v1/graphs/"+graphName+"/query", q.body)
}

// records hands out opResults from storage allocated up front, before
// the measured server is built, so that the client's own bookkeeping
// stays out of memory_mb. Past its capacity it allocates. The zero value
// always allocates.
type records struct {
	mu  sync.Mutex
	buf []opResult
}

func newRecords(n int) *records { return &records{buf: make([]opResult, 0, n)} }

func (rs *records) next(q *op) *opResult {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.buf) == cap(rs.buf) {
		return &opResult{op: q}
	}
	rs.buf = rs.buf[:len(rs.buf)+1]
	r := &rs.buf[len(rs.buf)-1]
	r.op = q
	return r
}

// loadStats describes the generator itself.
type loadStats struct {
	inflightMax int64
}

// runOpen sends every event's operations at the event's scheduled offset
// from start, each on its own goroutine, without waiting for earlier
// replies (an open loop), and returns once every reply has arrived.
func runOpen(ex executor, rs *records, events []event, start time.Time, reqBase int) ([]*opResult, loadStats) {
	var results []*opResult
	var wg sync.WaitGroup
	var inflight, peak atomic.Int64
	for _, ev := range events {
		due := start.Add(ev.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		for _, q := range ev.ops {
			r := rs.next(q)
			r.scheduled, r.sent = due, sent
			id := reqBase + len(results)
			results = append(results, r)
			n := inflight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, body := ex.exec(q, id)
				r.done = time.Now()
				inflight.Add(-1)
				r.settle(status, body)
			}()
		}
	}
	wg.Wait()
	return results, loadStats{inflightMax: peak.Load()}
}

// runClosed sends ops one at a time, cycling through them, until window
// has elapsed and a whole number of blocks of block ops has run (a closed
// loop with one client). Each operation is due the moment the previous
// reply has been checked.
func runClosed(ex executor, rs *records, ops []*op, block int, window time.Duration, reqBase int) ([]*opResult, loadStats) {
	var results []*opResult
	start := time.Now()
	ready := start
	for i := 0; ready.Sub(start) < window || i%block != 0; i++ {
		q := ops[i%len(ops)]
		r := rs.next(q)
		r.scheduled, r.sent = ready, time.Now()
		status, body := ex.exec(q, reqBase+i)
		r.done = time.Now()
		r.settle(status, body)
		ready = time.Now()
		results = append(results, r)
	}
	return results, loadStats{inflightMax: 1}
}

// runSequence sends each op once, one at a time.
func runSequence(ex executor, ops []*op) []*opResult {
	var results []*opResult
	for i, q := range ops {
		r := &opResult{op: q, scheduled: time.Now()}
		r.sent = r.scheduled
		status, body := ex.exec(q, i)
		r.done = time.Now()
		r.settle(status, body)
		results = append(results, r)
	}
	return results
}

// runBursts sends each event's operations concurrently and waits for
// them before the next event: the write phase's group commits.
func runBursts(ex executor, rs *records, events []event, reqBase int) []*opResult {
	var results []*opResult
	for _, ev := range events {
		res, _ := runOpen(ex, rs, []event{{ops: ev.ops}}, time.Now(), reqBase+len(results))
		results = append(results, res...)
	}
	return results
}

// replyMeta is the part of a query reply the metrics read.
type replyMeta struct {
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
	Procs     int    `json:"procs"`
	Backend   string `json:"backend"`
}

// queryReply is the part of a query reply the checks read.
type queryReply struct {
	replyMeta
	Details struct {
		Visited    *int            `json:"visited"`
		Rounds     *int            `json:"rounds"`
		Reachable  json.RawMessage `json:"reachable"`
		Distance   *int64          `json:"distance"`
		Distances  []int64         `json:"distances"`
		Components *int            `json:"components"`
		Reached    *int            `json:"reached"`
		MaxScore   *float64        `json:"max_score"`
	} `json:"details"`
}

// updateReply is the part of an update reply the version-chain check
// reads.
type updateReply struct {
	Version     uint64 `json:"version"`
	PrevVersion uint64 `json:"prev_version"`
	Inserted    int64  `json:"inserted"`
	Deleted     int64  `json:"deleted"`
	Ignored     int64  `json:"ignored"`
	Requests    int    `json:"requests_batched"`
	Compacted   bool   `json:"compacted"`
}

// settle records r's reply: its status, what the metrics keep of the
// body, and the output check. r is marked failed when the reply is not
// 2xx or its answer disagrees with the oracle facts carried by its op.
// The op's exact answer, if any, must be set before the reply arrives.
func (r *opResult) settle(status int, body []byte) {
	r.status = status
	if err := r.checkReply(body); err != nil {
		r.failed = true
		r.reason = err.Error()
	}
}

func (r *opResult) checkReply(body []byte) error {
	if r.status < 200 || r.status > 299 {
		return fmt.Errorf("%s %s (%s): status %d: %.120q", r.op.kind, r.op.algo, r.op.class, r.status, body)
	}
	if r.op.kind == kindUpdate {
		u := &r.update
		if err := json.Unmarshal(body, u); err != nil {
			return fmt.Errorf("update reply: %v", err)
		}
		if u.Version <= u.PrevVersion || u.Ignored != 0 {
			return fmt.Errorf("update reply: version %d after %d, %d ops ignored", u.Version, u.PrevVersion, u.Ignored)
		}
		return nil
	}
	var rep queryReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("%s reply: %v", r.op.algo, err)
	}
	r.meta = rep.replyMeta
	return checkAnswer(r.op, &rep)
}

func checkAnswer(q *op, rep *queryReply) error {
	d := &rep.Details
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%s from %d: "+format, append([]any{q.algo, q.source}, args...)...)
	}
	switch q.algo {
	case "bfs":
		if d.Visited == nil || *d.Visited != q.compSize {
			return bad("visited %v, component has %d", deref(d.Visited), q.compSize)
		}
		if q.want != nil && (d.Rounds == nil || *d.Rounds != q.want.rounds) {
			return bad("rounds %v, oracle depth %d", deref(d.Rounds), q.want.rounds)
		}
	case "reach":
		reachable := string(d.Reachable) == "true"
		if reachable != q.sameComp {
			return bad("reachable=%v to %d, same component=%v", reachable, q.target, q.sameComp)
		}
		if q.want != nil && (d.Distance == nil || *d.Distance != q.want.distance) {
			return bad("distance %v to %d, oracle %d", deref(d.Distance), q.target, q.want.distance)
		}
	case "landmarks":
		if len(d.Distances) != len(q.landmarks) {
			return bad("%d distances for %d landmarks", len(d.Distances), len(q.landmarks))
		}
		for i, dist := range d.Distances {
			if (dist >= 0) != q.landmarkIn[i] {
				return bad("landmark %d distance %d, same component=%v", q.landmarks[i], dist, q.landmarkIn[i])
			}
			if q.want != nil && dist != q.want.distances[i] {
				return bad("landmark %d distance %d, oracle %d", q.landmarks[i], dist, q.want.distances[i])
			}
		}
	case "components":
		if d.Components == nil || *d.Components != q.components {
			return bad("%v components, oracle %d", deref(d.Components), q.components)
		}
	case "bellman-ford":
		if d.Reached == nil || *d.Reached != q.compSize {
			return bad("reached %v, component has %d", deref(d.Reached), q.compSize)
		}
	case "bc":
		if d.MaxScore == nil {
			return bad("no max_score")
		}
		if q.want != nil && math.Abs(*d.MaxScore-q.want.maxScore) > 1e-9*math.Max(1, q.want.maxScore) {
			return bad("max score %g, oracle %g", *d.MaxScore, q.want.maxScore)
		}
	}
	return nil
}

func deref[T any](p *T) any {
	if p == nil {
		return "missing"
	}
	return *p
}

// checkVersionChain checks the update replies of one server: replies of
// one commit agree, the commits form one chain starting at base, and
// together they applied every op exactly once. A symmetric graph counts
// each op once per direction.
func checkVersionChain(results []*opResult, base uint64) error {
	commits := map[uint64]updateReply{}
	var requests, ops int
	for _, r := range results {
		if r.op.kind != kindUpdate || r.failed {
			continue
		}
		requests++
		ops += len(r.op.edgeOps)
		u := r.update
		if c, ok := commits[u.Version]; ok && c != u {
			return fmt.Errorf("two replies for version %d disagree: %+v vs %+v", u.Version, c, u)
		}
		commits[u.Version] = u
	}
	prev := base
	var inserted, deleted int64
	var batched int
	for len(commits) > 0 {
		var next *updateReply
		for _, c := range commits {
			if c.PrevVersion == prev {
				next = &c
				break
			}
		}
		if next == nil {
			return fmt.Errorf("version chain breaks after %d (%d commits unlinked)", prev, len(commits))
		}
		delete(commits, next.Version)
		prev = next.Version
		inserted += next.Inserted
		deleted += next.Deleted
		batched += next.Requests
	}
	if batched != requests || int(inserted+deleted) != 2*ops {
		return fmt.Errorf("commits carried %d requests and %d+%d ops; sent %d requests and %d ops",
			batched, inserted, deleted, requests, ops)
	}
	return nil
}
