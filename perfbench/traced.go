package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/delta"
	"ligra/internal/server"
	"ligra/internal/server/batch"
	"ligra/internal/server/engine"
	"ligra/internal/server/resilience"
)

// tracedClient replays operations by calling the server's layers
// directly, in the order the query and update handlers call them, with a
// span around each call:
//
//	server.query      decode, validate, encode (self time)
//	  registry.acquire     Registry().Acquire
//	  resilience.breaker   Breakers().Allow
//	  resilience.admit     Shedder().Admit
//	  batch                Batcher().Execute (bfs, reach, landmarks)
//	    algo.clusterbfs      the collector's sweep (batch.ClusterRun)
//	  engine               Engine().Execute (everything else)
//	    algo.<name>          Runner.Run
//	    delta.refresh        Store.RefreshCC / RefreshPageRankDelta
//	  server.encode        JSON encode of the reply
//	server.update
//	  registry.update      Registry().Update
//
// The handlers' unexported helpers (incrementalRun, safeRun) are replaced
// by the exported calls they wrap; the watchdog and the /metrics counters
// are not touched.
type tracedClient struct {
	s   *server.Server
	rec *recorder

	mu     sync.Mutex
	rounds []time.Duration // every edgeMap round of every execution
	sweeps []sweepRecord
}

type sweepRecord struct {
	slots int
	edges int64 // out-degree sums of the sweep's rounds
}

func (t *tracedClient) exec(q *op, req int) (int, []byte) {
	if q.kind == kindUpdate {
		return t.update(q, req)
	}
	return t.query(q, req)
}

// queryRequest mirrors the query handler's request body.
type queryRequest struct {
	Algo string `json:"algo"`
	algo.Params
	Source *int64 `json:"source,omitempty"`
}

func encodeReply(status int, v any) (int, []byte) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return http.StatusInternalServerError, []byte(err.Error())
	}
	return status, b.Bytes()
}

func errReply(status int, err error) (int, []byte) {
	return encodeReply(status, map[string]string{"error": err.Error()})
}

func (t *tracedClient) query(q *op, req int) (int, []byte) {
	rec := t.rec
	root := rec.begin("server.query", req, -1)
	defer rec.end(root)
	ctx := context.Background()

	var qr queryRequest
	if err := json.Unmarshal(q.body, &qr); err != nil {
		return errReply(http.StatusBadRequest, err)
	}
	runner, ok := algo.FindRunner(qr.Algo)
	if !ok {
		return errReply(http.StatusBadRequest, algo.UnknownAlgoError(qr.Algo))
	}
	if err := qr.Params.Validate(); err != nil {
		return errReply(http.StatusBadRequest, err)
	}

	sp := rec.begin("registry.acquire", req, root)
	pin, info, err := t.s.Registry().Acquire(ctx, graphName)
	rec.end(sp)
	if err != nil {
		return errReply(http.StatusNotFound, err)
	}
	defer pin.Release()
	g := pin.View()
	source := info.DefaultSource
	if qr.Source != nil {
		if *qr.Source < 0 || *qr.Source >= int64(g.NumVertices()) {
			return errReply(http.StatusBadRequest, fmt.Errorf("source %d out of range", *qr.Source))
		}
		source = uint32(*qr.Source)
	}
	if err := algo.BatchValidate(runner.Name, g.NumVertices(), qr.Params); err != nil {
		return errReply(http.StatusBadRequest, err)
	}
	backend, err := algo.ResolveBackend(runner.Name, g, qr.Params)
	if err != nil {
		return errReply(http.StatusBadRequest, err)
	}

	bkey := resilience.BreakerKey{Algo: runner.Name, Graph: graphName}
	sp = rec.begin("resilience.breaker", req, root)
	allowed, probe, _ := t.s.Breakers().Allow(bkey)
	rec.end(sp)
	if !allowed {
		return errReply(http.StatusServiceUnavailable, errors.New("circuit breaker open"))
	}
	outcome := resilience.OutcomeAborted
	defer func() { t.s.Breakers().Record(bkey, outcome, probe) }()

	sp = rec.begin("resilience.admit", req, root)
	dec := t.s.Shedder().Admit(ctx, "perfbench")
	rec.end(sp)
	if !dec.OK {
		return errReply(http.StatusTooManyRequests, fmt.Errorf("shed: %s", dec.Reason))
	}
	admitted := time.Now()
	defer func() {
		t.s.Shedder().RecordLatency(time.Since(admitted))
		dec.Release()
	}()
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second) // ligra-serve's -default-timeout
	defer cancel()

	params := qr.Params
	params.Source = source
	trace := &core.Trace{}
	params.EdgeMap.Trace = trace
	key := engine.Key{Graph: graphName, Generation: pin.Version(), Algo: runner.Name, Params: params.Canonical()}
	var val engine.Value
	var how engine.Info
	var binfo batch.Info
	start := time.Now()
	if t.s.Batcher() != nil && backend == algo.BackendEdgeMap && algo.Batchable(runner.Name) {
		bs := rec.begin("batch", req, root)
		run := batch.ClusterRun(g)
		val, binfo, err = t.s.Batcher().Execute(ctx, batch.Request{
			Key:    key,
			Shape:  fmt.Sprintf("%s gen=%d mode=%s threshold=%d", graphName, pin.Version(), params.Mode, params.Threshold),
			Algo:   runner.Name,
			Params: params,
		}, func(sweepCtx context.Context, procs int, slots []batch.Request) ([]engine.Value, error) {
			sp := rec.begin("algo.clusterbfs", req, bs)
			defer rec.end(sp)
			sweepPin, ok := pin.Store().TryAcquire()
			if !ok {
				return nil, fmt.Errorf("graph %q evicted before its batched sweep ran", graphName)
			}
			defer sweepPin.Release()
			vals, err := run(sweepCtx, procs, slots)
			var edges int64
			for _, e := range trace.Entries {
				edges += e.OutDegrees
			}
			t.mu.Lock()
			t.sweeps = append(t.sweeps, sweepRecord{slots: len(slots), edges: edges})
			t.mu.Unlock()
			return vals, err
		})
		rec.end(bs)
		how = engine.Info{Cached: binfo.Cached, Coalesced: binfo.Coalesced, Procs: binfo.Procs}
	} else {
		es := rec.begin("engine", req, root)
		val, how, err = t.s.Engine().Execute(ctx, key, func(runCtx context.Context, procs int) (engine.Value, error) {
			p := params
			p.EdgeMap.Procs = procs
			if st := pin.Store(); st != nil && (runner.Name == "components" || runner.Name == "pagerank-delta") {
				sp := rec.begin("delta.refresh", req, es)
				defer rec.end(sp)
				return refresh(runCtx, st, pin, runner.Name, p)
			}
			sp := rec.begin("algo."+runner.Name, req, es)
			defer rec.end(sp)
			res, err := runner.Run(runCtx, g, p)
			return engine.Value{Data: res, Bytes: res.EstimateBytes()}, err
		})
		rec.end(es)
	}
	elapsed := time.Since(start)
	t.mu.Lock()
	for _, e := range trace.Entries {
		t.rounds = append(t.rounds, e.Duration)
	}
	t.mu.Unlock()
	if err != nil {
		return errReply(http.StatusInternalServerError, err)
	}
	if !how.Cached && !how.Coalesced {
		outcome = resilience.OutcomeSuccess
	}

	res, _ := val.Data.(algo.RunResult)
	backendName, _ := res.Details["backend"].(string)
	sp = rec.begin("server.encode", req, root)
	status, body := encodeReply(http.StatusOK, map[string]any{
		"graph": graphName, "algo": runner.Name, "summary": res.Summary, "details": res.Details,
		"elapsed_ms": ms(elapsed), "cached": how.Cached, "coalesced": how.Coalesced, "procs": how.Procs,
		"batched": binfo.Batched, "batch_size": binfo.BatchSize, "backend": backendName,
	})
	rec.end(sp)
	return status, body
}

// refresh is the exported half of the query handler's incrementalRun:
// the delta store's memoized, incrementally refreshed results.
func refresh(ctx context.Context, st *delta.Store, pin *delta.Pin, name string, p algo.Params) (engine.Value, error) {
	var rr algo.RunResult
	var err error
	if name == "components" {
		var res *algo.CCResult
		var incremental bool
		res, incremental, err = st.RefreshCC(ctx, pin, p.EdgeMapOptions())
		if res != nil {
			rr.Details = map[string]any{"components": res.Components, "rounds": res.Rounds, "incremental": incremental}
		}
	} else {
		o := algo.DefaultPageRankOptions()
		o.EdgeMap = p.EdgeMapOptions()
		var res *algo.PageRankResult
		var incremental bool
		res, incremental, err = st.RefreshPageRankDelta(ctx, pin, o, 1e-3)
		if res != nil {
			rr.Details = map[string]any{"iterations": res.Iterations, "l1_change": res.Err, "incremental": incremental}
		}
	}
	return engine.Value{Data: rr, Bytes: rr.EstimateBytes()}, err
}

func (t *tracedClient) update(q *op, req int) (int, []byte) {
	root := t.rec.begin("server.update", req, -1)
	defer t.rec.end(root)
	var body struct {
		Ops []delta.EdgeOp `json:"ops"`
	}
	if err := json.Unmarshal(q.body, &body); err != nil {
		return errReply(http.StatusBadRequest, err)
	}
	sp := t.rec.begin("registry.update", req, root)
	res, err := t.s.Registry().Update(context.Background(), graphName, body.Ops)
	t.rec.end(sp)
	switch {
	case errors.Is(err, delta.ErrBusy):
		return errReply(http.StatusTooManyRequests, err)
	case err != nil:
		return errReply(http.StatusBadRequest, err)
	}
	return encodeReply(http.StatusOK, res)
}
