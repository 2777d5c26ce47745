// Command perfbench is the repository's end-to-end benchmark. It drives
// an in-process ligra-serve (server.New(cfg).Handler(), no sockets) with
// one of four seeded workloads, checks every answer against sequential
// oracles, and prints one JSON result line last on standard output:
//
//	go -C perfbench run . --workload serve-mixed --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of an untraced
// run; with --trace 1 it holds the per-layer metrics of a traced replay
// of the same seed (see BENCHMARK.json and perfbench/README.md). Run it
// from the repository root; generated graphs are cached under
// .bench_build/graphs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      bool
	cacheDir   string
	spans      string
	cpuprofile string
	memprofile string
}

func (o options) window() time.Duration { return time.Duration(o.seconds) * time.Second }

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, " | "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the graph, sources, schedule and update ops")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 = also replay the run traced and print per-layer metrics")
	fs.StringVar(&o.cacheDir, "cache-dir", filepath.Join(".bench_build", "graphs"), "where generated graph files are kept")
	fs.StringVar(&o.spans, "spans", "", "with --trace 1, write the spans here as JSON lines (default .bench_build/spans-<workload>-<seed>.jsonl)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the untraced measured window")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile at the end of the untraced measured window")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		logf("need --workload (%s), --seconds >= 1 and --trace 0|1", strings.Join(names, " | "))
		return 2
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	}
	res, err := bench(o)
	if err != nil {
		logf("%v", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func bench(o options) (*result, error) {
	in, err := prepare(o)
	if err != nil {
		return nil, err
	}
	// A traced run first repeats the untraced window alone, as the
	// baseline for the tracing overhead and the load generator's figures.
	plain, err := pass(in, o, false, !o.trace)
	if err != nil {
		return nil, err
	}
	passes := []*passResult{plain}
	var m metrics
	if o.trace {
		traced, err := pass(in, o, true, true)
		if err != nil {
			return nil, err
		}
		passes = append(passes, traced)
		m = perLayer(plain, traced)
		if err := os.MkdirAll(filepath.Dir(o.spans), 0o755); err != nil {
			return nil, err
		}
		if err := traced.tc.rec.writeFile(o.spans); err != nil {
			return nil, err
		}
	} else {
		m = endToEnd(plain)
	}

	var t tally
	var failures []string
	for _, p := range passes {
		t.add(p.window)
		t.add(p.writes)
		t.add(p.checks)
		failures = append(failures, p.failures...)
	}
	// A version-chain failure is not tied to one reply; count it once.
	for _, f := range failures {
		if strings.HasPrefix(f, "version chain: ") {
			t.attempted++
			t.failed++
		}
	}
	for i, f := range failures {
		if i == 10 {
			logf("... %d more failures", len(failures)-i)
			break
		}
		logf("FAILED: %s", f)
	}
	printRecord(o, in, plain)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// printRecord prints the machine and configuration the numbers belong
// to, as one JSON line ahead of the result, and a readable summary on
// standard error.
func printRecord(o options, in *input, plain *passResult) {
	cfg := in.w.config()
	rec := map[string]any{
		"record":      "perfbench",
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu_model":   cpuModel(),
		"l3_cache":    l3Size(),
		"go_version":  runtime.Version(),
		"graph_n":     in.n,
		"graph_m":     in.m,
		"graph_bytes": in.bytes,
		"graph_file":  in.w.graph.format(),
		"graph_mmap":  in.w.graph.compressed,
		"loop":        map[bool]string{true: "open", false: "closed"}[in.w.open],
		"server_config": map[string]any{
			"max_concurrent": 2 * runtime.GOMAXPROCS(0), "queue_wait": cfg.QueueWait.String(),
			"default_timeout": cfg.DefaultTimeout.String(), "cache_mb": in.w.cacheMB,
			"shed_target": cfg.ShedTarget.String(), "breaker_threshold": cfg.BreakerThreshold,
			"batch_window": cfg.BatchWindow.String(), "batch_max": cfg.BatchMax,
			"update_window": cfg.UpdateWindow.String(), "max_query_procs": runtime.GOMAXPROCS(0),
		},
	}
	// The tails are recorded here rather than as metrics: between seeds
	// they varied by more than the largest bound a metric may carry (see
	// README.md), so they are context for the medians, not gates.
	q, u := plain.queryLatencies(), plain.updateLatencies()
	rec["samples"] = map[string]any{
		"window_s": plain.elapsed.Seconds(), "window_cpu_steal_pct": plain.stealPct,
		"queries": len(q), "query_p90_ms": percentile(q, 90), "query_p99_ms": percentile(q, 99),
		"beyond_p90": beyond(len(q), 90), "beyond_p99": beyond(len(q), 99),
		"updates": len(u), "update_p99_ms": percentile(u, 99), "update_beyond_p99": beyond(len(u), 99),
	}
	line, _ := json.Marshal(rec) // maps of plain values always encode
	fmt.Println(string(line))
	byClass := map[string][]float64{}
	cached := map[string]int{}
	for _, r := range plain.window {
		if !r.failed {
			k := r.op.class + "/" + r.op.algo
			byClass[k] = append(byClass[k], ms(r.latency()))
			if r.meta.Cached {
				cached[k]++
			}
		}
	}
	keys := make([]string, 0, len(byClass))
	for k := range byClass {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := byClass[k]
		logf("  %-24s n=%-5d cached=%-5d p50=%8.2fms p90=%8.2fms max=%8.2fms",
			k, len(v), cached[k], percentile(v, 50), percentile(v, 90), percentile(v, 100))
	}
}

// cpuModel and l3Size read the machine description best-effort; a
// missing file leaves "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func l3Size() string {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
