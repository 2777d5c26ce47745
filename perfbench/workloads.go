package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"ligra/internal/delta"
	"ligra/internal/graph"
	"ligra/internal/server"
)

const (
	graphName = "g"
	// maxWeight is the hash-weight range of weighted inputs, [1, 100].
	maxWeight = 100
	// landmarkCount is how many landmarks a landmarks query names.
	landmarkCount = 8
)

// workload is one traffic mix against one generated graph.
type workload struct {
	name  string
	graph graphSpec
	// cacheMB is ligra-serve's -cache-mb for this workload (64 is the
	// flag default).
	cacheMB int64

	// Open loop (serve-mixed): Poisson event arrivals at rate events/s,
	// classes assigned from shuffled blocks of pattern so each run
	// carries the same class proportions.
	open    bool
	rate    float64
	pattern []string // event classes: burst, hot, full, update
	burst   int      // queries per burst event
	hotSet  int      // distinct queries in the hot set
	warmup  time.Duration

	// Closed loop (one client): the query mix, as a block of algorithm
	// names shuffled per block. A window runs whole blocks, so every run
	// carries the same mix. warm lists the warm-up queries. components is
	// in no closed-loop mix: the snapshot does not change during the
	// window, so a repeat is answered from the delta store's memoized
	// labels in about 0.1 ms and times no sweep. Each set-up runs it in
	// full (setup_s), and the traced run probes its kernel.
	mix  []string
	warm []string

	// Every update request carries opsPerReq edge ops; updates arrive
	// updateReqs at a time (one group commit). Workloads without updates
	// in their traffic run writeBursts such bursts after the measured
	// query window, so every workload reports update latency.
	updateReqs, opsPerReq, writeBursts int

	// final are the queries checked after the last update: exactly, on
	// the open-loop workload, whose final graph the benchmark mirrors.
	final []string
	// setups is how many times an untraced run sets up the server;
	// setup_s is their median. The small graphs set up in tens of
	// milliseconds, so they take more samples.
	setups int
	// exactChecks is how many bfs and bc window queries each are checked
	// against the exact sequential oracles (the component oracle checks
	// all). The open loop's window answers come from changing snapshots,
	// so its exact checks are the final ones.
	exactChecks int
	// probeReps is how many kernel calls per algorithm the traced run
	// repeats at full and at one proc.
	probeReps int
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json says why
// each exists and README.md lists their parameters.
var workloads = map[string]*workload{
	"serve-mixed": {
		name: "serve-mixed",
		// Scale 14, not 16: at scales 15 and 16 a burst's shared sweep took
		// 25-95 ms, and default admission (4 slots, 100 ms queue wait)
		// shed queued queries in some runs even with the server 10% busy.
		graph:   graphSpec{family: "rmat", scale: 14},
		cacheMB: 64,
		open:    true,
		rate:    54,
		// Per 216 events (four seconds): 200 hot repeats, 4 bursts of 3,
		// 4 full-graph queries and 8 update bursts of 25 requests. A burst
		// of 3 queues only behind other work: with 4, a burst filled every
		// slot and a stall of the machine during the queue wait shed a
		// query in 1 of 10 runs.
		pattern:    blockPattern(map[string]int{"burst": 4, "hot": 200, "full": 4, "update": 8}),
		burst:      3,
		hotSet:     3,
		warmup:     3 * time.Second,
		updateReqs: 25, opsPerReq: 1,
		final:     []string{"bfs", "reach", "landmarks", "components", "bfs", "reach", "bc"},
		setups:    9,
		probeReps: 5,
	},
	"traverse-grid": {
		name:       "traverse-grid",
		graph:      graphSpec{family: "grid3d", side: 40, weights: maxWeight},
		mix:        blockPattern(map[string]int{"bfs": 4, "bellman-ford": 1}),
		warm:       []string{"bfs", "bellman-ford"},
		updateReqs: 25, opsPerReq: 1, writeBursts: 40,
		final:       []string{"bfs", "bellman-ford", "components"},
		setups:      9,
		exactChecks: 16, probeReps: 5,
	},
	"analytics-large": {
		name:  "analytics-large",
		graph: graphSpec{family: "rmat", scale: 21, compressed: true, seed: 1},
		mix:   blockPattern(map[string]int{"bfs": 2, "reach": 2, "bc": 1}),
		// No warm-up beyond set-up: the set-up's components query already
		// read every edge, and each further query costs seconds.
		updateReqs: 25, opsPerReq: 1, writeBursts: 40,
		final:       []string{"bfs", "components"},
		setups:      3,
		exactChecks: 1, probeReps: 1,
	},
	// analytics-mmap is analytics-large at scale 16, where the compressed
	// graph (4 MB) and the per-vertex state stay within the caches of a
	// 2-vCPU Xeon VM with 105 MiB of L3. There, the larger the graph, the
	// more a run's speed changed from one run to the next (same seed, no
	// CPU steal: up to 35% at scales 19-21; ten seeds spread 19% at 18,
	// 14% at 17, 9% at 16), so the compressed, mapped path is gated at
	// scale 16 and the beyond-L3 regime is run by hand.
	"analytics-mmap": {
		name:       "analytics-mmap",
		graph:      graphSpec{family: "rmat", scale: 16, compressed: true, seed: 1},
		mix:        blockPattern(map[string]int{"bfs": 2, "reach": 2, "bc": 1}),
		updateReqs: 25, opsPerReq: 1, writeBursts: 40,
		final:       []string{"bfs", "components"},
		setups:      9,
		exactChecks: 4, probeReps: 3,
	},
}

// blockPattern expands class counts into one block, in a fixed order
// (sorted by name) that a seeded shuffle then permutes.
func blockPattern(counts map[string]int) []string {
	var names []string
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		for i := 0; i < counts[n]; i++ {
			out = append(out, n)
		}
	}
	return out
}

// config is ligra-serve's configuration at its flag defaults, except for
// the workload's -cache-mb. Request logging is discarded.
func (w *workload) config() server.Config {
	return server.Config{
		QueueWait:        100 * time.Millisecond,
		DefaultTimeout:   30 * time.Second,
		MaxTimeout:       60 * time.Second,
		CacheBytes:       w.cacheMB << 20,
		ShedTarget:       time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  5 * time.Second,
		RetryBudget:      10,
		WatchdogGrace:    2 * time.Second,
		BatchWindow:      2 * time.Millisecond,
		BatchMax:         64,
		UpdateWindow:     5 * time.Millisecond,
	}
}

type opKind int

const (
	kindQuery opKind = iota
	kindUpdate
)

func (k opKind) String() string {
	if k == kindUpdate {
		return "update"
	}
	return "query"
}

// op is one request the benchmark sends, with the answer it expects.
type op struct {
	kind      opKind
	class     string
	algo      string
	source    uint32
	target    uint32
	landmarks []uint32
	edgeOps   []delta.EdgeOp
	body      []byte // the encoded request

	// Facts from the component oracle; the update plan keeps them true
	// at every snapshot version.
	compSize   int
	sameComp   bool
	landmarkIn []bool
	components int
	// want, when set, is the exact sequential-oracle answer.
	want *exact
}

// event is a set of operations due at the same instant.
type event struct {
	at  time.Duration
	ops []*op
}

// schedule is everything one run sends, derived from the seed alone.
type schedule struct {
	setup  *op     // the query that completes each server set-up
	warm   []event // warm-up, before the measured window
	main   []event // open loop: the measured window
	seq    []*op   // closed loop: cycled until the window ends
	writes []event // write phase after the window (closed-loop workloads)
	probe  []*op   // traced run: kernel calls repeated at full and one proc
	final  []*op   // checks after the last update
	plan   *updatePlan
}

// gen draws queries; all randomness of a run flows from one seed
// through separate streams, so adding draws to one part of the schedule
// does not shift another.
type queryGen struct {
	rng *rand.Rand
	o   *oracle
}

func stream(seed uint64, id uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, id)) }

// query draws one query: the source from the giant component (so every
// traversal does real work), reach targets and landmarks uniformly from
// all vertices.
func (qg *queryGen) query(algoName, class string) *op {
	o := qg.o
	q := &op{kind: kindQuery, class: class, algo: algoName,
		source: o.giant[qg.rng.IntN(len(o.giant))], components: o.components}
	switch algoName {
	case "reach":
		q.target = uint32(qg.rng.IntN(o.n))
	case "landmarks":
		for i := 0; i < landmarkCount; i++ {
			l := uint32(qg.rng.IntN(o.n))
			q.landmarks = append(q.landmarks, l)
			q.landmarkIn = append(q.landmarkIn, o.sameComponent(q.source, l))
		}
	}
	q.compSize = o.sizeOf(q.source)
	q.sameComp = o.sameComponent(q.source, q.target)
	body := map[string]any{"algo": algoName, "source": q.source}
	if algoName == "reach" {
		body["target"] = q.target
	}
	if q.landmarks != nil {
		body["landmarks"] = q.landmarks
	}
	q.body, _ = json.Marshal(body) // a map of numbers always encodes
	return q
}

func updateOp(ops []delta.EdgeOp, class string) *op {
	body, _ := json.Marshal(map[string]any{"ops": ops}) // plain structs always encode
	return &op{kind: kindUpdate, class: class, edgeOps: ops, body: body}
}

// shuffled returns a seeded permutation of pattern.
func shuffled(rng *rand.Rand, pattern []string) []string {
	out := append([]string(nil), pattern...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// classes yields count classes from successive shuffled blocks.
func classes(rng *rand.Rand, pattern []string, count int) []string {
	var out []string
	for len(out) < count {
		out = append(out, shuffled(rng, pattern)...)
	}
	return out[:count]
}

// poisson returns the arrival offsets of a Poisson process at rate per
// second over [0, window), conditioned on its expected count: that many
// uniform points, sorted. Fixing the count keeps every run's class
// counts equal, since classes come in whole blocks.
func poisson(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*window.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(window)))
	}
	slices.Sort(out)
	return out
}

// windowOps is how many operations the warm-up and the measured window
// send, or for a closed loop may send: a closed-loop window longer than
// its sequence cycles through it again.
func (s *schedule) windowOps() int {
	n := len(s.seq)
	for _, ev := range slices.Concat(s.warm, s.main) {
		n += len(ev.ops)
	}
	return n
}

// closedSeqLen is the length of a closed-loop sequence; a run longer
// than that cycles through it again (the result cache is off on both
// closed-loop workloads, so a repeat still executes).
const closedSeqLen = 4096

// buildSchedule derives the run's operations from the seed, the graph
// and its oracle. g is the base graph; it is read, never kept.
func (w *workload) buildSchedule(seed uint64, g *graph.Graph, o *oracle, window time.Duration) (*schedule, error) {
	s := &schedule{}
	qg := &queryGen{rng: stream(seed, 1), o: o}
	s.setup = qg.query("components", "setup")
	var updates int // update requests the schedule needs
	if w.open {
		hot := make([]*op, w.hotSet)
		for i := range hot {
			hot[i] = qg.query([]string{"bfs", "reach", "landmarks"}[i%3], "hot")
		}
		mk := func(rng *rand.Rand, at []time.Duration) []event {
			evs := make([]event, len(at))
			for i, cls := range classes(rng, w.pattern, len(at)) {
				evs[i].at = at[i]
				switch cls {
				case "burst":
					for j := 0; j < w.burst; j++ {
						evs[i].ops = append(evs[i].ops, qg.query([]string{"bfs", "bfs", "reach", "landmarks"}[rng.IntN(4)], cls))
					}
				case "hot":
					evs[i].ops = []*op{hot[rng.IntN(len(hot))]}
				case "full":
					// components only: pagerank (~0.6 s at scale 16) and a
					// full pagerank-delta recompute (~0.3 s) hold an
					// admission slot long enough that default admission
					// sheds the bursts queued behind them.
					evs[i].ops = []*op{qg.query("components", cls)}
				case "update":
					evs[i].ops = make([]*op, w.updateReqs) // filled from the plan below
					updates += w.updateReqs
				}
			}
			return evs
		}
		s.warm = mk(stream(seed, 2), poisson(stream(seed, 3), w.rate, w.warmup))
		s.main = mk(stream(seed, 4), poisson(stream(seed, 5), w.rate, window))
	} else {
		rng := stream(seed, 2)
		for _, a := range classes(rng, w.mix, closedSeqLen) {
			s.seq = append(s.seq, qg.query(a, "closed"))
		}
		for _, a := range w.warm {
			s.warm = append(s.warm, event{ops: []*op{qg.query(a, "warm")}})
		}
		updates = w.writeBursts * w.updateReqs
	}

	if updates > 0 {
		total := updates * w.opsPerReq
		plan, err := planUpdates(g, o, stream(seed, 6), (total+1)/2, total/2)
		if err != nil {
			return nil, err
		}
		s.plan = plan
		reqs := plan.requests(w.opsPerReq, g.Weighted())
		fill := func(evs []event, class string) {
			for i := range evs {
				for j, q := range evs[i].ops {
					if q == nil {
						evs[i].ops[j] = updateOp(reqs[0], class)
						reqs = reqs[1:]
					}
				}
			}
		}
		if w.open {
			fill(s.warm, "update")
			fill(s.main, "update")
		} else {
			for b := 0; b < w.writeBursts; b++ {
				s.writes = append(s.writes, event{ops: make([]*op, w.updateReqs)})
			}
			fill(s.writes, "write")
		}
		if len(reqs) != 0 {
			return nil, fmt.Errorf("update plan: %d requests left over", len(reqs))
		}
	}

	// Kernel probe and the checks after the last update.
	pg := &queryGen{rng: stream(seed, 7), o: o}
	for _, a := range probeAlgos {
		for i := 0; i < w.probeReps; i++ {
			s.probe = append(s.probe, pg.query(a, "probe"))
		}
	}
	for _, a := range w.final {
		s.final = append(s.final, pg.query(a, "final"))
	}
	return s, nil
}

// probeAlgos are the algorithms whose kernels the traced run times
// directly; onePAlgos are also timed under a one-proc lease. pagerank and
// pagerank-delta are in no workload's mix, and one call takes a minute
// on the scale-21 graph, so they are not probed.
var (
	probeAlgos = []string{"bfs", "reach", "landmarks", "components", "bellman-ford", "bc"}
	onePAlgos  = map[string]bool{"bfs": true, "bellman-ford": true, "components": true, "bc": true}
)

// exactSample marks the first k bfs and bc queries in ops for an
// exact-oracle check. bellman-ford is checked against the component
// oracle only: its reply carries a reached count and a round count, no
// distances that Dijkstra could check.
func exactSample(ops []*op, k int) []*op {
	count := map[string]int{}
	var out []*op
	for _, q := range ops {
		if q.kind != kindQuery || q.want != nil {
			continue
		}
		switch q.algo {
		case "bfs", "bc":
		default:
			continue
		}
		if count[q.algo] < k {
			count[q.algo]++
			out = append(out, q)
		}
	}
	return out
}
