// Command perfbench is the repository benchmark. It runs one named workload
// for a seed, checks the program's outputs, and prints the workload's metrics
// as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload epoch-active --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it records
// spans around the calls into each layer, writes them to the --out directory
// and prints the per-layer metrics instead. Every layer is measured from
// outside, through its public functions and runtime statistics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// cores is the core count of the reference machine the workloads were sized
// on (2). GOMAXPROCS is pinned to it so runs on larger machines schedule the
// same way.
const cores = 2

// deadline bounds one run; a run that overshoots fails instead of printing a
// result.
const deadline = 170 * time.Second

// endToEnd and perLayer name every metric the benchmark prints, with its
// unit; they mirror BENCHMARK.json (a test keeps the two in step).
var endToEnd = map[string]string{
	"setup_s":                "s",
	"epoch_cpu_ms.p50":       "ms",
	"epoch_cpu_ms.tail":      "ms",
	"interactions_per_cpu_s": "1/s",
	"live_heap_mb":           "MB",
}

var perLayer = map[string]string{
	"workload.round_ms.p50":                "ms",
	"workload.allocs_per_interaction":      "count",
	"workload.alloc_bytes_per_interaction": "B",
	"reputation.compute_ms":                "ms",
	"reputation.iterations_per_epoch":      "count",
	"core.tail_ms.p50":                     "ms",
	"core.settled_share":                   "ratio",
	"core.dirty_share":                     "ratio",
	"privacy.ledger_events":                "count",
	"heap.retained_bytes_per_interaction":  "B",
	"gc.cycles_per_epoch":                  "count",
	"gc.pause_ms_per_epoch":                "ms",
	"serve.advance_ms.p50":                 "ms",
	"serve.advance_ms.tail":                "ms",
	"serve.query_ms.p50":                   "ms",
	"serve.query_ms.tail":                  "ms",
	"serve.report_ms.p50":                  "ms",
	"serve.report_ms.tail":                 "ms",
	"serve.handler_us.p50":                 "us",
	"serve.reports_applied":                "count",
	"loadgen.late_ms.max":                  "ms",
	"cluster.remote_scatters_per_epoch":    "count",
	"cluster.remote_spmv_per_epoch":        "count",
	"cluster.resyncs_per_epoch":            "count",
	"cluster.sync_mb_per_epoch":            "MB",
	"cluster.overhead_x":                   "x",
	"trace.overhead_pct":                   "%",
	"trace.epoch_self_ms_per_epoch":        "ms",
	"trace.round_self_ms_per_epoch":        "ms",
	"trace.tail_self_ms_per_epoch":         "ms",
	"wall.setup_s":                         "s",
	"wall.epoch_ms.p50":                    "ms",
	"wall.epoch_ms.tail":                   "ms",
	"wall.interactions_per_s":              "1/s",
}

// params is what every workload receives: the run's seed, the episode count
// and, in the traced run, the tracer.
type params struct {
	seed     uint64
	episodes int
	trace    *tracer
}

// episodeSeed is the seed episode i generates its inputs from. Solver work
// differs between seeds by up to 40% per epoch, so every episode of an
// untraced run takes its own seed and the run's medians average over them.
// The traced run gives each consecutive untraced/traced pair one seed, so
// the two compare equal work and their history digests must match. Episode
// 0 always uses the run's seed itself.
func (p params) episodeSeed(i int) uint64 {
	k := i
	if p.trace != nil {
		k = i / 2
	}
	return p.seed + uint64(k)*0x9e3779b97f4a7c15
}

// episodeTracer is the tracer of episode i: the odd episodes of the traced
// run, nil everywhere else.
func (p params) episodeTracer(i int) *tracer {
	if i%2 == 1 {
		return p.trace
	}
	return nil
}

// report is what a workload measured and checked.
type report struct {
	attempted, failed int64
	// problems lists failed output checks; any makes the run incorrect.
	problems []string
	digests  []string
	e2e      map[string]float64
	layer    map[string]float64
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one benchmark input set. episodeSeconds is the measured time
// of one episode on the reference machine: the episode count is the run
// length divided by it, so a run is bounded by epochs, never by wall clock.
type workload struct {
	episodeSeconds float64
	run            func(params) (*report, error)
}

var workloads = map[string]workload{
	"epoch-active":     {episodeSeconds: 1.9, run: runEpochActive},
	"epoch-quiescent":  {episodeSeconds: 2.5, run: runEpochQuiescent},
	"serve-mixed":      {episodeSeconds: servePeriod.Seconds() * serveTicks, run: runServeMixed},
	"cluster-loopback": {episodeSeconds: 1.3, run: runClusterLoopback},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "measured time on the reference machine; sets the episode count")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(cores)
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish within %v\n", *name, deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	p := params{seed: *seed, episodes: max(2, int(math.Round(float64(*seconds)/w.episodeSeconds)))}
	if *trace == 1 {
		p.trace = newTracer()
	}
	rep, err := w.run(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for i, d := range rep.digests {
		fmt.Fprintf(stdout, "episode %d history digest, %s\n", i, d)
	}
	for _, pr := range rep.problems {
		fmt.Fprintf(stdout, "check failed: %s\n", pr)
	}
	names, values := endToEnd, rep.e2e
	if p.trace != nil {
		names, values = perLayer, rep.layer
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := p.trace.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]map[string]any{}}
	for m, unit := range names {
		v := values[m] // a layer the workload does not exercise reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", m, v)
			return 1
		}
		res.Metrics[m] = map[string]any{"value": v, "unit": unit}
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
