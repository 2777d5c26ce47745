package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/delta"
	"ligra/internal/graph"
	"ligra/internal/parallel"
	"ligra/internal/server"
	"ligra/internal/server/batch"
)

// input is the prepared, seed-derived input of a run.
type input struct {
	w     *workload
	path  string // the graph file the server loads
	bytes int64  // its size
	n     int
	m     int64
	sched *schedule
	// finalOnce guards finalAnswers, which builds the graph every
	// snapshot converges to once the update plan has landed.
	finalOnce sync.Once
	finalErr  error
}

// prepare generates (or reads from the cache) the graph, computes the
// oracles and derives the schedule. Nothing here is measured; the CSR
// and the component oracle are dropped before the server starts.
func prepare(o options) (*input, error) {
	w := workloads[o.workload]
	t0 := time.Now()
	g, path, err := loadOrBuild(o.cacheDir, w.graph, o.seed)
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	orc := newOracle(g)
	sched, err := w.buildSchedule(o.seed, g, orc, o.window())
	if err != nil {
		return nil, err
	}
	sample := exactSample(sched.seq, w.exactChecks)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, q := range sample {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			q.want = exactFor(g, q)
			<-sem
		}()
	}
	wg.Wait()
	in := &input{w: w, path: path, bytes: st.Size(), n: g.NumVertices(), m: g.NumEdges(), sched: sched}
	logf("prepared %s: n=%d m=%d %s %d bytes; graph %.1fs, oracles+schedule %.1fs (%d exact checks)",
		w.name, in.n, in.m, w.graph.format(), in.bytes, t1.Sub(t0).Seconds(), time.Since(t1).Seconds(), len(sample))
	g, orc = nil, nil
	runtime.GC()
	debug.FreeOSMemory()
	return in, nil
}

// finalAnswers fills the exact answers of the final check queries on the
// base graph with every planned update applied.
func (in *input) finalAnswers() error {
	in.finalOnce.Do(func() {
		base, err := graph.LoadFile(in.path, false)
		if err != nil {
			in.finalErr = err
			return
		}
		g, err := in.sched.plan.apply(base)
		if err != nil {
			in.finalErr = err
			return
		}
		for _, q := range in.sched.final {
			q.want = exactFor(g, q)
		}
	})
	return in.finalErr
}

// live is one server with the graph loaded and warm.
type live struct {
	s       *server.Server
	c       httpClient
	info    server.GraphInfo
	setup   []time.Duration // server construction to warm-up reply, per setup
	loads   []time.Duration // the load request alone, per setup
	version uint64          // snapshot version after load
	// heapBase is the live heap just before the kept server was built:
	// the benchmark's own state (inputs, schedule, the reserve of client
	// records), which memory_mb leaves out.
	heapBase uint64
}

// start builds the server n times, keeping the last: each setup
// constructs the server, loads the graph from its file and answers one
// warm-up query.
func start(in *input, n int) (*live, error) {
	lv := &live{}
	warm := in.sched.setup
	for i := 0; i < n; i++ {
		if lv.s != nil {
			lv.stop()
		}
		// Collect the previous server's garbage first, so that no set-up
		// pays for another's collection.
		base := settledLiveHeap()
		t0 := time.Now()
		s := server.New(in.w.config())
		c := httpClient{s.Handler()}
		body, _ := json.Marshal(map[string]any{"path": in.path, "mmap": in.w.graph.compressed})
		t1 := time.Now()
		code, resp := c.do(http.MethodPost, "/v1/graphs/"+graphName, body)
		load := time.Since(t1)
		if code != http.StatusOK {
			return nil, fmt.Errorf("load: status %d: %s", code, resp)
		}
		var info server.GraphInfo
		if err := json.Unmarshal(resp, &info); err != nil {
			return nil, fmt.Errorf("load reply: %w", err)
		}
		r := &opResult{op: warm}
		status, reply := c.exec(warm, 0)
		lv.setup = append(lv.setup, time.Since(t0))
		lv.loads = append(lv.loads, load)
		if r.settle(status, reply); r.failed {
			return nil, fmt.Errorf("warm-up query: %s", r.reason)
		}
		lv.s, lv.c, lv.info, lv.version, lv.heapBase = s, c, info, info.SnapshotVersion, base
	}
	return lv, nil
}

// stop evicts the graph (releasing an mmap once the last pin goes) and
// cancels anything still running.
func (lv *live) stop() {
	lv.c.do(http.MethodDelete, "/v1/graphs/"+graphName, nil)
	lv.s.StartDrain()
	lv.s.CancelInflight()
}

// passResult is what one pass over the schedule measured.
type passResult struct {
	lv       *live
	window   []*opResult // the measured window
	writes   []*opResult // the write phase
	checks   []*opResult // warm-up and final checks
	elapsed  time.Duration
	load     loadStats
	memoryMB float64
	stealPct float64 // the machine's CPU steal over the window, -1 if unknown
	counters counterDelta
	tc       *tracedClient
	probe    map[string][]float64 // algo -> ms at full procs ("name") and one proc ("name@1p")
	failures []string
}

// pass runs one server through warm-up, the measured window and, when
// complete is set, the kernel probe (traced passes only), the write
// phase and the final checks. Every reply is checked. With traced set the
// window and write phase go through the traced client.
func pass(in *input, o options, traced, complete bool) (*passResult, error) {
	n := in.w.setups
	if o.trace {
		n = 1 // a traced run reports no setup_s
	}
	rs := newRecords(in.sched.windowOps())
	lv, err := start(in, n)
	if err != nil {
		return nil, err
	}
	defer lv.stop()
	pr := &passResult{lv: lv}
	sched := in.sched
	w := in.w

	// Warm-up: caches fill, pool workers spawn, the delta store memoizes.
	if w.open {
		res, _ := runOpen(lv.c, rs, sched.warm, time.Now(), 0)
		pr.checks = append(pr.checks, res...)
	} else {
		pr.checks = append(pr.checks, runBursts(lv.c, rs, sched.warm, 0)...)
	}

	var ex executor = lv.c
	if traced {
		pr.tc = &tracedClient{s: lv.s, rec: newRecorder()}
		ex = pr.tc
	}
	if o.cpuprofile != "" && !traced {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	before := readCounters(lv.s)
	cpu0 := cpuTime()
	steal0 := readSteal()
	t0 := time.Now()
	if w.open {
		pr.window, pr.load = runOpen(ex, rs, sched.main, t0, 1)
	} else {
		pr.window, pr.load = runClosed(ex, rs, sched.seq, len(w.mix), o.window(), 1)
	}
	pr.elapsed = time.Since(t0)
	pr.stealPct = readSteal().since(steal0)
	logf("window: %.1fs, %d ops, CPU busy %.0f%% of %d procs, machine CPU steal %.1f%%", pr.elapsed.Seconds(), len(pr.window),
		100*(cpuTime()-cpu0).Seconds()/pr.elapsed.Seconds()/float64(runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0), pr.stealPct)
	if extra := len(pr.checks) + len(pr.window) - cap(rs.buf); extra > 0 {
		logf("memory_mb includes %d client records of %d bytes allocated past the reserve", extra, unsafe.Sizeof(opResult{}))
	}
	pr.counters = readCounters(lv.s).sub(before)
	// The graph's mapping as the registry reports it now, after any
	// compaction in the window.
	pin, info, err := lv.s.Registry().Acquire(context.Background(), graphName)
	if err != nil {
		return nil, err
	}
	pin.Release()
	heap := float64(settledLiveHeap()) - float64(lv.heapBase)
	pr.memoryMB = (heap + float64(info.MappedBytes)) / (1 << 20)
	logf("memory_mb: live heap %.3f MiB above the benchmark's own, mapped graph %.3f MiB",
		heap/(1<<20), float64(info.MappedBytes)/(1<<20))
	if o.memprofile != "" && !traced {
		if err := writeHeapProfile(o.memprofile); err != nil {
			return nil, err
		}
	}

	if traced && complete {
		pr.probe, err = kernelProbe(lv.s, sched.probe)
		if err != nil {
			return nil, err
		}
	}
	if complete {
		pr.writes = runBursts(ex, &records{}, sched.writes, len(pr.window)+1)
	}

	// Every reply was checked as it arrived. Left: the version chain, and
	// queries after the last update.
	replies := slices.Concat(pr.checks, pr.window, pr.writes)
	if err := checkVersionChain(replies, lv.version); err != nil {
		pr.failures = append(pr.failures, "version chain: "+err.Error())
	}
	if complete {
		if w.open {
			if err := in.finalAnswers(); err != nil {
				return nil, err
			}
		}
		final := runSequence(lv.c, sched.final)
		pr.checks = append(pr.checks, final...)
		replies = append(replies, final...)
	}
	for _, r := range replies {
		if r.failed {
			pr.failures = append(pr.failures, r.reason)
		}
	}
	return pr, nil
}

// settledLiveHeap collects twice and returns the live heap. The second
// collection frees what sync.Pools held through the first (and what
// finalizers released), so two readings of the same state agree.
func settledLiveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return liveHeap()
}

// liveHeap is the heap the last garbage collection marked live.
func liveHeap() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// stealTicks is the machine's cumulative steal and total CPU time, in
// ticks, from the first line of /proc/stat.
type stealTicks struct{ steal, total uint64 }

func readSteal() stealTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t stealTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since is the steal share of CPU time between prev and t, in percent,
// or -1 when /proc/stat could not be read.
func (t stealTicks) since(prev stealTicks) float64 {
	if t.total <= prev.total {
		return -1
	}
	return 100 * float64(t.steal-prev.steal) / float64(t.total-prev.total)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kernelProbe calls Runner.Run directly on the pinned snapshot for each
// probe query, under a full lease and, for onePAlgos, a one-proc lease.
func kernelProbe(s *server.Server, probe []*op) (map[string][]float64, error) {
	ctx := context.Background()
	pin, _, err := s.Registry().Acquire(ctx, graphName)
	if err != nil {
		return nil, err
	}
	defer pin.Release()
	g := pin.View()
	full := runtime.GOMAXPROCS(0)
	out := map[string][]float64{}
	for _, q := range probe {
		runner, ok := algo.FindRunner(q.algo)
		if !ok {
			return nil, algo.UnknownAlgoError(q.algo)
		}
		p := algo.Params{Source: q.source, Target: q.target, Landmarks: q.landmarks}
		procsList := []int{full}
		if onePAlgos[q.algo] {
			procsList = append(procsList, 1)
		}
		for _, procs := range procsList {
			p.EdgeMap.Procs = procs
			t0 := time.Now()
			if _, err := runner.Run(parallel.WithProcs(ctx, procs), g, p); err != nil {
				return nil, fmt.Errorf("probe %s: %w", q.algo, err)
			}
			name := q.algo
			if procs == 1 {
				name += "@1p"
			}
			out[name] = append(out[name], ms(time.Since(t0)))
		}
	}
	return out, nil
}

// counterDelta holds the program's process-wide counters over a window.
type counterDelta struct {
	core      core.StatsSnapshot
	sched     parallel.SchedulerStats
	batch     batch.Stats
	updates   delta.Stats
	gcCycles  uint32
	gcPauseNs uint64
}

func readCounters(s *server.Server) counterDelta {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c := counterDelta{
		core:      core.SnapshotStats(),
		sched:     parallel.SchedulerSnapshot(),
		updates:   s.Registry().UpdateStats(),
		gcCycles:  mem.NumGC,
		gcPauseNs: mem.PauseTotalNs,
	}
	if b := s.Batcher(); b != nil {
		c.batch = b.Stats()
	}
	return c
}

// sub returns the change since prev of the counters perLayer reads.
func (c counterDelta) sub(prev counterDelta) counterDelta {
	c.core = c.core.Sub(prev.core)
	c.sched = c.sched.Sub(prev.sched)
	c.batch.BatchesRun -= prev.batch.BatchesRun
	c.batch.QueriesBatched -= prev.batch.QueriesBatched
	c.batch.WindowWaits -= prev.batch.WindowWaits
	c.updates.IncrementalRuns -= prev.updates.IncrementalRuns
	c.updates.FullRuns -= prev.updates.FullRuns
	c.gcCycles -= prev.gcCycles
	c.gcPauseNs -= prev.gcPauseNs
	return c
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// queryLatencies is the successful query latencies of a window, in ms.
func (pr *passResult) queryLatencies() []float64 { return latencies(pr.window, kindQuery) }

// updateLatencies is the update latencies: the window's on an open-loop
// workload, the write phase's otherwise.
func (pr *passResult) updateLatencies() []float64 {
	if l := latencies(pr.window, kindUpdate); len(l) > 0 {
		return l
	}
	return latencies(pr.writes, kindUpdate)
}

func endToEnd(pr *passResult) metrics {
	q := pr.queryLatencies()
	u := pr.updateLatencies()
	var setup []float64
	for _, d := range pr.lv.setup {
		setup = append(setup, d.Seconds())
	}
	var ok int
	for _, r := range pr.window {
		if r.op.kind == kindQuery && !r.failed {
			ok++
		}
	}
	m := metrics{}
	m.set("setup_s", "s", percentile(setup, 50))
	m.set("memory_mb", "MiB", pr.memoryMB)
	m.set("query_p50_ms", "ms", percentile(q, 50))
	m.set("queries_per_s", "1/s", float64(ok)/pr.elapsed.Seconds())
	m.set("update_p50_ms", "ms", percentile(u, 50))
	return m
}

// perLayer computes the per-layer metrics from the traced pass, with the
// untraced pass of the same run as the baseline for tracing overhead and
// for the load generator's own figures.
func perLayer(plain, tr *passResult) metrics {
	tc := tr.tc
	spans := tc.rec.snapshot()
	lt := groupSpans(spans)
	logf("traced spans:\n%s", lt)
	m := metrics{}

	var late []float64
	for _, r := range plain.window {
		late = append(late, ms(r.lateness()))
	}
	m.set("loadgen.late_p99_ms", "ms", percentile(late, 99))
	m.set("loadgen.inflight_max", "count", float64(plain.load.inflightMax))

	m.set("server.self_us_p50", "us", percentile(lt.self["server.query"], 50))
	m.set("server.self_us_p99", "us", percentile(lt.self["server.query"], 99))
	m.set("server.encode_us_p50", "us", percentile(lt.dur["server.encode"], 50))

	// Reply-level facts of the traced window's queries.
	var queries, shed, cached, coalesced, executed, spmvRuns float64
	var leases []float64
	for _, r := range tr.window {
		if r.op.kind != kindQuery {
			continue
		}
		queries++
		if r.status == http.StatusTooManyRequests {
			shed++
		}
		if r.failed {
			continue
		}
		rep := r.meta
		if rep.Procs > 0 {
			leases = append(leases, float64(rep.Procs))
		}
		switch {
		case rep.Cached:
			cached++
		case rep.Coalesced:
			coalesced++
		default:
			executed++
			if rep.Backend == algo.BackendSpMV {
				spmvRuns++
			}
		}
	}
	m.set("resilience.admit_wait_us_p50", "us", percentile(lt.dur["resilience.admit"], 50))
	m.set("resilience.admit_wait_us_p99", "us", percentile(lt.dur["resilience.admit"], 99))
	m.set("resilience.shed_ratio", "ratio", ratio(shed, queries))

	c := tr.counters
	m.set("registry.acquire_us_p99", "us", percentile(lt.dur["registry.acquire"], 99))
	m.set("registry.update_us_p50", "us", percentile(lt.dur["registry.update"], 50))
	m.set("registry.update_us_p99", "us", percentile(lt.dur["registry.update"], 99))
	// The write phase runs after the window's counters are read, so the
	// commit figures come from the update replies themselves.
	commits := map[uint64]updateReply{}
	var updReqs, compactions float64
	for _, r := range slices.Concat(tr.window, tr.writes) {
		if u := r.update; r.op.kind == kindUpdate && !r.failed {
			updReqs++
			if _, seen := commits[u.Version]; !seen && u.Compacted {
				compactions++
			}
			commits[u.Version] = u
		}
	}
	m.set("delta.requests_per_commit", "count", ratio(updReqs, float64(len(commits))))
	m.set("delta.compactions", "count", compactions)
	m.set("delta.incremental_ratio", "ratio", ratio(float64(c.updates.IncrementalRuns),
		float64(c.updates.IncrementalRuns+c.updates.FullRuns)))

	m.set("engine.self_us_p50", "us", percentile(lt.self["engine"], 50))
	m.set("engine.cache_hit_ratio", "ratio", ratio(cached, queries))
	m.set("engine.coalesced_ratio", "ratio", ratio(coalesced, queries))
	m.set("engine.lease_procs_mean", "count", mean(leases))

	var sizes []float64
	var sweepEdges float64
	for _, s := range tc.sweeps {
		sizes = append(sizes, float64(s.slots))
		sweepEdges += float64(s.edges)
	}
	m.set("batch.self_us_p50", "us", percentile(lt.self["batch"], 50))
	m.set("batch.size_mean", "count", mean(sizes))
	m.set("batch.timer_fired_ratio", "ratio", ratio(float64(c.batch.WindowWaits), float64(c.batch.BatchesRun)))
	m.set("batch.edges_scanned_per_query", "count", ratio(sweepEdges, float64(c.batch.QueriesBatched)))

	for _, a := range probeAlgos {
		m.set("algo."+a+".run_ms_p50", "ms", percentile(tr.probe[a], 50))
	}
	var sweeps []float64
	for _, d := range lt.dur["algo.clusterbfs"] {
		sweeps = append(sweeps, d/1000)
	}
	m.set("algo.clusterbfs.run_ms_p50", "ms", percentile(sweeps, 50))
	for _, a := range sortedKeys(onePAlgos) {
		m.set("algo."+a+".run_1p_ms_p50", "ms", percentile(tr.probe[a+"@1p"], 50))
	}

	var rounds []float64
	for _, d := range tc.rounds {
		rounds = append(rounds, us(d))
	}
	calls := float64(c.core.Calls)
	m.set("core.rounds_per_query", "count", ratio(calls, executed))
	m.set("core.round_us_p50", "us", percentile(rounds, 50))
	m.set("core.dense_round_ratio", "ratio", ratio(float64(c.core.Dense+c.core.DenseForward), calls))
	m.set("core.seq_round_ratio", "ratio", ratio(float64(c.core.SeqRounds), calls))
	m.set("core.edges_scanned_per_query", "count", ratio(float64(c.core.EdgesScanned), executed))

	m.set("parallel.dispatches_per_query", "count", ratio(float64(c.sched.Dispatches), executed))
	m.set("parallel.inline_ratio", "ratio", ratio(float64(c.sched.InlineRuns), float64(c.sched.InlineRuns+c.sched.Dispatches)))
	m.set("parallel.parks_per_query", "count", ratio(float64(c.sched.Parks), executed))
	m.set("parallel.wakes_per_query", "count", ratio(float64(c.sched.Wakes), executed))

	var loads []float64
	for _, d := range tr.lv.loads {
		loads = append(loads, d.Seconds())
	}
	m.set("graph.load_s", "s", percentile(loads, 50))
	m.set("graph.heap_mb", "MiB", float64(tr.lv.info.MemoryBytes)/(1<<20))
	m.set("graph.mapped_mb", "MiB", float64(tr.lv.info.MappedBytes)/(1<<20))
	m.set("spmv.query_share", "ratio", ratio(spmvRuns, executed))

	m.set("gc.cycles", "count", float64(c.gcCycles))
	m.set("gc.pause_ms_total", "ms", float64(c.gcPauseNs)/1e6)
	base := percentile(plain.queryLatencies(), 50)
	m.set("trace.overhead_pct", "%", 100*ratio(percentile(tr.queryLatencies(), 50)-base, base))
	return m
}

func sortedKeys(set map[string]bool) []string {
	var out []string
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
