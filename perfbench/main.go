// Command perfbench is the repository benchmark: three workloads that
// drive the QAOA pipeline through its public packages, check the
// outputs, and print end-to-end metrics (untraced runs) or per-layer
// metrics (traced runs). See README.md for what each workload stresses.
//
// Usage (from the repository root, through perfbench/run.sh):
//
//	perfbench --workload paper-table1|serve-cold|fleet-hot --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A human-readable report with host metadata goes to standard error and
// the full report to .bench_out/<workload>-seed<N>-trace<T>.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef is a metric's name and unit as BENCHMARK.json declares it.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics every untraced run prints, in order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"completed_share", "share"},
	{"fev_per_solve", "count"},
	{"ar_mean", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run prints, in order. A
// layer a workload does not touch reads 0 (paper-table1 has no server
// and no cluster; serve-cold has no cluster).
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit})
		}
	}
	pct := func(base string) []string { return []string{base + ".p50", base + ".p90"} }
	for _, n := range kernelWidths {
		s := fmt.Sprintf(".n%d", n)
		add("ns", "quantum.layer_ns_per_amp"+s, "quantum.expect_ns_per_amp"+s)
		add("GB/s", "quantum.computed_gbps"+s, "quantum.copy_gbps"+s)
	}
	add("count", "qaoa.expect_calls", "qaoa.grad_calls")
	add("us", pct("qaoa.expect_us")...)
	add("us", pct("qaoa.grad_us")...)
	add("share", "qaoa.busy_share", "qaoa.arena_reuse_ratio")
	add("ms", pct("problem.build_ms")...)
	add("ms", pct("problem.exact_opt_ms")...)
	add("us", pct("problem.fingerprint_us")...)
	add("count", "optimize.iterations", "optimize.ngev")
	add("ms", pct("optimize.self_ms")...)
	add("share", "optimize.self_share")
	add("us", pct("ml.predict_us")...)
	add("ms", "ml.train_ms")
	for _, b := range []string{"core.level1_ms", "core.predict_ms", "core.level2_ms", "core.readout_ms"} {
		add("ms", pct(b)...)
	}
	add("count", "core.level1_fev", "core.level2_fev")
	for _, o := range optimizerNames {
		add("%", "core.fc_reduction_pct."+o)
	}
	for _, b := range []string{"server.edge_ms", "server.queue_wait_ms", "server.run_ms"} {
		add("ms", pct(b)...)
	}
	add("share", "server.cache_hit_ratio", "server.coalesced_ratio", "server.rejected_share")
	add("ms", pct("cluster.wal_append_ms")...)
	add("B", "cluster.wal_bytes_per_job")
	add("ms", pct("cluster.dispatch_ms")...)
	add("count", "cluster.dispatch_retries")
	add("ms", pct("cluster.sse_ttfe_ms")...)
	for _, l := range shareLayers {
		add("share", "layer_share."+l)
	}
	add("ms", "gen.lag_p90_ms")
	add("%", "trace.overhead_pct", "trace.replay_coverage_pct")
	return defs
}()

// shareLayers are the layers whose share of the work a traced run
// reports, in pipeline order. The quantum kernels run inside the
// evaluator's calls, so their time is part of qaoa's share; the kernel
// metrics time them on their own. "client" is the load client's rest of
// a request's latency, outside the server's handlers (0 on
// paper-table1, which has no client).
var shareLayers = []string{"qaoa", "problem", "optimize", "ml", "core", "server", "cluster", "client"}

type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples,omitempty"`
}

// report is one run's full record. Metrics are the ones BENCHMARK.json
// gates or lists; Extra holds workload-specific figures (such as
// paper-table1's FC reduction or fleet-hot's p99) that not every
// workload can measure, reported by name and unit but not gated.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Host      hostInfo `json:"host"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Extra     []metric `json:"extra,omitempty"`
	Checks    []string `json:"checks"`
	Failures  []string `json:"check_failures,omitempty"`
	Notes     []string `json:"notes,omitempty"`
	// Timeline holds every timed solve as [ms since the run's start,
	// latency ms], for looking at how a run evolved.
	Timeline [][2]float64 `json:"timeline,omitempty"`
	// Steal is the host's CPU steal share per one-second window of the
	// timeline, where the workload reads it.
	Steal []float64 `json:"steal_share_by_window,omitempty"`
}

// check records a correctness check; a failed check fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		r.Checks = append(r.Checks, msg)
		return
	}
	r.Failures = append(r.Failures, msg)
}

func (r *report) extra(name, unit string, v float64, samples int) {
	r.Extra = append(r.Extra, metric{Name: name, Unit: unit, Value: v, Samples: samples})
}

// fill sets the declared metrics from values, in declaration order;
// a declared metric the workload did not produce reads 0.
func (r *report) fill(defs []metricDef, values map[string]float64, samples map[string]int) {
	for _, d := range defs {
		r.Metrics = append(r.Metrics, metric{Name: d.Name, Unit: d.Unit, Value: values[d.Name], Samples: samples[d.Name]})
	}
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed    int64
	Seconds int
	Trace   bool
	WorkDir string // scratch space inside the checkout, removed at exit
	OutDir  string // where reports and spans are written
}

type workloadFunc func(ctx context.Context, cfg runConfig, rep *report) error

var workloads = map[string]workloadFunc{
	"paper-table1": runPaperTable1,
	"serve-cold":   runServeCold,
	"fleet-hot":    runFleetHot,
}

func main() {
	name := flag.String("workload", "", "workload: paper-table1, serve-cold or fleet-hot")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured duration of the run")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", ".bench_out", "directory for the full JSON report")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(work)

	rep := &report{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Host: collectHost(*seed)}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, WorkDir: work, OutDir: *out}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if err := wl(ctx, cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.RemoveAll(work)
		os.Exit(1)
	}
	rep.Correct = len(rep.Failures) == 0
	printReport(os.Stderr, rep)
	path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace))
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, blob, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing the full report:", err)
	}

	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val, len(rep.Metrics))
	for _, m := range rep.Metrics {
		metrics[m.Name] = val{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	fmt.Println(string(line))
	if !rep.Correct {
		os.RemoveAll(work)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printReport(w *os.File, r *report) {
	mode := "end-to-end (untraced)"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== perfbench %s, seed %d, %d s, %s\n", r.Workload, r.Seed, r.Seconds, mode)
	h := r.Host
	fmt.Fprintf(w, "host: %s | nproc %d | GOMAXPROCS %d | %s | L3 %s | commit %s\n",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.L3, h.Commit)
	fmt.Fprintf(w, "solves: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, m := range append(append([]metric(nil), r.Metrics...), r.Extra...) {
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s%s\n", m.Name, m.Value, m.Unit, n)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  check ok:     %s\n", c)
	}
	for _, c := range r.Failures {
		fmt.Fprintf(w, "  check FAILED: %s\n", c)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
