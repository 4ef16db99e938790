// Command perfbench is the repository benchmark: three workloads that
// together cover every solver layer, each checked for correct output
// and measured from outside the program (see README.md).
//
//	perfbench --workload wma-city --seed 3 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// The process exits 1 when any output check failed and 2 when the
// workload could not run at all (no result line is printed then).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metric catalogues. They must list the
// same names and units as BENCHMARK.json (pinned by TestCatalogue).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"rate_per_s", "1/s"},
	{"objective", "distance"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"graph.nn_drain_ms", "ms"},
	{"graph.nn_settled", "count"},
	{"graph.nn_ns_per_settle", "ns"},
	{"graph.nn_alloc_mb", "MiB"},
	{"graph.ksource_ms", "ms"},
	{"bipartite.new_us", "us"},
	{"bipartite.findpair_us_p50", "us"},
	{"bipartite.findpair_us_max", "us"},
	{"bipartite.nodes_scanned", "count"},
	{"bipartite.edges_materialized", "count"},
	{"bipartite.searches", "count"},
	{"core.assign_ms", "ms"},
	{"core.match_self_ms", "ms"},
	{"core.cover_self_ms", "ms"},
	{"core.assign_self_ms", "ms"},
	{"core.assign_share", "ratio"},
	{"core.wma_iterations", "count"},
	{"solver.nodes_expanded", "count"},
	{"solver.nodes_pruned", "count"},
	{"solver.incumbent_updates", "count"},
	{"solver.ms_per_node", "ms"},
	{"dynamic.add_us_p50", "us"},
	{"dynamic.publish_rebuild_ms_p50", "ms"},
	{"dynamic.publish_plain_us_p50", "us"},
	{"dynamic.repairs", "count"},
	{"dynamic.full_solves", "count"},
	{"dynamic.rerouted_per_departure", "ratio"},
	{"serve.read_client_p50_ms", "ms"},
	{"serve.read_client_p99_ms", "ms"},
	{"serve.write_client_p50_ms", "ms"},
	{"serve.write_client_p90_ms", "ms"},
	{"serve.assign_server_p50_ms", "ms"},
	{"serve.arrivals_server_p50_ms", "ms"},
	{"serve.departures_server_p50_ms", "ms"},
	{"serve.ops_per_batch", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
	{"trace.truncated", "count"},
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	mcfsd    string // path of the mcfsd binary (mcfsd-mixed)
	workDir  string // scratch directory for instance files
	short    bool   // one quick pass, for the benchmark's own tests
	holdout  bool   // run the held-out inputs
}

// report collects one run's checks and metrics.
type report struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// op records one attempted operation; a non-nil err counts it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"wma-city":    runWMACity,
	"exact-small": runExactSmall,
	"mcfsd-mixed": runMCFSD,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	start := time.Now()
	var (
		workload = flag.String("workload", "", "wma-city | exact-small | mcfsd-mixed")
		seed     = flag.Int64("seed", 0, "workload seed")
		seconds  = flag.Float64("seconds", 30, "measured time")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		mcfsd    = flag.String("mcfsd", "", "mcfsd binary (mcfsd-mixed)")
		workDir  = flag.String("workdir", os.TempDir(), "directory for instance files")
		holdout  = flag.Bool("holdout", false, "run the held-out inputs (README.md, \"Seeds\")")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *workload)
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace != 0, mcfsd: *mcfsd, workDir: *workDir,
		holdout: *holdout,
	}
	total0, steal0, stealErr := cpuSteal()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// Steal is the one disturbance from outside the container that the
	// run can see; a high share explains slow figures.
	if total1, steal1, err := cpuSteal(); err == nil && stealErr == nil && total1 > total0 {
		rep.note("machine: %.1f%% of CPU time stolen by the hypervisor during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	res := rep.result(cfg.trace)
	for _, line := range rep.notes {
		fmt.Println("#", line)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	printTable(res, cfg.trace)
	fmt.Printf("# %s seed=%d holdout=%v trace=%v wall=%.1fs\n", cfg.workload, cfg.seed, cfg.holdout, cfg.trace, time.Since(start).Seconds())
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result selects the catalogue the mode prints. A per-layer metric the
// workload's path does not reach reads 0 (README.md lists which).
func (r *report) result(trace bool) result {
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layer
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

func printTable(res result, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := res.Metrics[d.name].Value
		fmt.Printf("# %-34s %16s %s\n", d.name, strconv.FormatFloat(v, 'f', -1, 64), d.unit)
	}
	fmt.Printf("# correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
