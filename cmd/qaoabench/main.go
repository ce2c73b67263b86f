// Command qaoabench runs the QAOA evaluation-engine benchmark suite and
// writes the results as JSON (BENCH_qaoa.json by default).
//
// Micro benchmarks cover the optimizer hot path (one −⟨C⟩ evaluation at
// depths 1/3/5 through the zero-allocation workspace engine), the
// explicit gate-level circuit it replaces, batch-evaluator throughput,
// measurement sampling and the finite-difference gradient. Two
// wall-clock benchmarks time end-to-end dataset generation and the
// Table I experiment, reporting objective evaluations per second.
//
// The large-register suite (expectation/n16..n30, grad/n20-p3,
// grad/n28-p1) streams the cost Hamiltonian from the edge list (no 2^n
// tables) and is recorded once per -cpu GOMAXPROCS setting, so scaling
// across worker counts is visible in one file: entries measured above
// one worker carry speedup_vs_serial and parallel_efficiency columns
// computed against the matching serial entry. Registers at or above
// the qaoa.ShardThreshold run over the sharded state layout (the
// shards column records the count) and every large-n entry reports
// peak_bytes, the live amplitude storage its workspace held. The problem-family suite
// (ising/n20, maxksat/n20) times the generalized diagonal-Hamiltonian
// streaming kernel — linear terms and Rosenberg auxiliaries included —
// at the same register size and -cpu settings.
//
//	qaoabench                    # full suite → BENCH_qaoa.json
//	qaoabench -quick             # skip the wall-clock experiments
//	qaoabench -out -             # JSON to stdout
//	qaoabench -cpu 1,2,8         # record the large-n suite at each GOMAXPROCS
//	qaoabench -bench 'n2[02]'    # only entries matching the regex
//	qaoabench -cpuprofile cpu.pb # write a CPU profile of the run
//	qaoabench -metrics m.json    # also dump telemetry (FC/latency histograms)
//	qaoabench -timeout 30s       # bound the wall-clock experiments
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/experiments"
	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/quantum"
	"qaoaml/internal/telemetry"
)

// Entry is one benchmark result in the emitted JSON.
type Entry struct {
	Name        string  `json:"name"`
	GOMAXPROCS  int     `json:"gomaxprocs,omitempty"` // workers the entry ran at
	N           int     `json:"n"`                    // iterations timed
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Seconds     float64 `json:"seconds,omitempty"` // wall-clock benches
	NFev        int     `json:"nfev,omitempty"`    // objective evaluations
	NGev        int     `json:"ngev,omitempty"`    // analytic gradient evaluations
	EvalsPerSec float64 `json:"evals_per_sec,omitempty"`
	FinalF      float64 `json:"final_f,omitempty"` // converged objective (e2e benches)
	// Shards is the state-vector shard count the entry ran over (absent
	// = flat layout); PeakBytes is the live amplitude storage the
	// workspace held — the AmpBytesAllocated delta across workspace
	// construction and the first (buffer-allocating) evaluation.
	Shards    int   `json:"shards,omitempty"`
	PeakBytes int64 `json:"peak_bytes,omitempty"`
	// SpeedupVsSerial and ParallelEfficiency are derived after the
	// merge for entries measured above one worker, against the entry
	// with the same name at GOMAXPROCS 1 (speedup = serial ns / this
	// ns; efficiency = speedup / workers).
	SpeedupVsSerial    float64 `json:"speedup_vs_serial,omitempty"`
	ParallelEfficiency float64 `json:"parallel_efficiency,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Package    string `json:"package"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Timestamp  string `json:"timestamp"`
	// History holds the timestamps of prior runs merged into this file,
	// newest first, capped at maxHistory.
	History []string `json:"history,omitempty"`
	Entries []Entry  `json:"entries"`
}

// maxHistory caps how many prior-run timestamps a report accumulates.
const maxHistory = 10

func main() {
	var (
		out        = flag.String("out", "BENCH_qaoa.json", "output file ('-' = stdout)")
		quick      = flag.Bool("quick", false, "micro benchmarks only (skip wall-clock experiments)")
		timeout    = flag.Duration("timeout", 0, "deadline for the wall-clock experiments (0 = none)")
		workers    = flag.Int("workers", 0, "datagen parallelism in wall-clock experiments (0 = GOMAXPROCS)")
		metrics    = flag.String("metrics", "", "write collected telemetry (FC/latency histograms, spans) as JSON to this file")
		cpuList    = flag.String("cpu", "", "comma-separated GOMAXPROCS values for the large-n suite (default: current)")
		benchPat   = flag.String("bench", "", "only run entries whose name matches this regexp")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (post-GC) to this file on exit")
	)
	flag.Parse()
	if *timeout < 0 || *workers < 0 {
		fatal(fmt.Errorf("-timeout and -workers must be non-negative"))
	}
	if *benchPat != "" {
		re, err := regexp.Compile(*benchPat)
		if err != nil {
			fatal(fmt.Errorf("bad -bench pattern: %w", err))
		}
		benchRE = re
	}
	cpus := parseCPUs(*cpuList) // validate before any benchmark runs
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote %s (cpu profile)\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer writeMemProfile(*memProfile)
	}

	var mem *telemetry.Memory
	var rec telemetry.Recorder // stays untyped-nil when -metrics is off
	if *metrics != "" {
		mem = telemetry.NewMemory()
		rec = mem
	}

	rep := Report{
		Package:    "qaoaml",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}

	rng := rand.New(rand.NewSource(7))
	pb, err := qaoa.NewProblem(graph.ErdosRenyiConnected(8, 0.5, rng))
	if err != nil {
		fatal(err)
	}

	for _, depth := range []int{1, 3, 5} {
		depth := depth
		name := fmt.Sprintf("expectation/p%d", depth)
		ev := qaoa.NewEvaluator(pb, depth)
		x := core.ParamBounds(depth).Random(rng)
		if !benchMatch(name) {
			continue
		}
		_ = ev.NegExpectation(x) // warm the workspace
		rep.add(name, bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ev.NegExpectation(x)
			}
		}))
	}

	// The explicit CNOT·RZ·CNOT + per-qubit RX circuit the engine
	// replaces, at depth 3 — the speedup baseline.
	if benchMatch("expectation/p3-gate-circuit") {
		prGate := qaoa.Params{Gamma: []float64{0.4, 0.7, 0.9}, Beta: []float64{0.5, 0.3, 0.2}}
		cut := pb.Graph.WeightedCutTable()
		rep.add("expectation/p3-gate-circuit", bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := pb.BuildCircuit(prGate).Simulate()
				_ = st.ExpectationDiagonal(cut)
			}
		}))
	}

	// Batch throughput on a gradient-stencil-sized batch.
	be := qaoa.NewBatchEvaluator(pb, 3, 0)
	points := make([][]float64, 12)
	for i := range points {
		points[i] = core.ParamBounds(3).Random(rng)
	}
	if benchMatch("batch/12pt-p3") {
		e := bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = be.EvalBatch(points)
			}
		})
		e.EvalsPerSec = float64(len(points)) / (e.NsPerOp * 1e-9)
		rep.add("batch/12pt-p3", e)
	}

	// Measurement sampling (CDF + binary search).
	if benchMatch("samplecounts/1024shots") {
		st := pb.State(qaoa.Params{Gamma: []float64{0.4, 0.7}, Beta: []float64{0.5, 0.3}})
		srng := rand.New(rand.NewSource(19))
		rep.add("samplecounts/1024shots", bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = st.SampleCounts(1024, srng)
			}
		}))
	}

	// Finite-difference gradient through the reusable workspace.
	gx := core.ParamBounds(3).Random(rng)
	if benchMatch("gradient/central-p3") {
		gev := qaoa.NewEvaluator(pb, 3)
		gfx := gev.NegExpectation(gx)
		ws := optimize.NewGradientWorkspace(len(gx))
		dst := make([]float64, len(gx))
		rep.add("gradient/central-p3", bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ws.Gradient(dst, gev.NegExpectation, gx, gfx, core.ParamBounds(3), optimize.CentralDiff, 1e-6)
			}
		}))
	}

	// Adjoint-mode value+gradient: one reverse sweep replaces the whole
	// 4p-evaluation central-difference stencil above.
	for _, depth := range []int{1, 2, 3, 4, 5} {
		name := fmt.Sprintf("grad/p%d", depth)
		ax := core.ParamBounds(depth).Random(rng)
		if !benchMatch(name) {
			continue
		}
		aev := qaoa.NewEvaluator(pb, depth)
		agrad := make([]float64, len(ax))
		_ = aev.NegValueGrad(ax, agrad) // warm the workspace + adjoint buffer
		rep.add(name, bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = aev.NegValueGrad(ax, agrad)
			}
		}))
	}

	// Large-register streaming suite: depth-1 expectation at n=16/20/22
	// and the adjoint value+gradient at n=20 p=3, every problem in
	// streaming mode (no 2^n cost table — the kernel generates Score
	// from the term lists). Recorded once per -cpu GOMAXPROCS setting so kernel scaling
	// across worker counts lands in one file; the merge key includes the
	// worker count, so matrix runs accumulate instead of clobbering.
	largeProblems := map[int]*qaoa.Problem{}
	largeProblem := func(n int) *qaoa.Problem {
		if lp, ok := largeProblems[n]; ok {
			return lp
		}
		prng := rand.New(rand.NewSource(int64(40 + n)))
		lp, err := qaoa.NewProblem(graph.RandomRegular(n, 3, prng))
		if err != nil {
			fatal(err)
		}
		largeProblems[n] = lp
		return lp
	}
	// Problem-family streaming suite at the same register size: a ±J
	// spin glass with on-site fields (ising/n20) and a weighted
	// Max-3-SAT formula whose Rosenberg auxiliaries pad 14 decision
	// variables to a 20-qubit register (maxksat/n20). Both run the
	// generalized diagonal-Hamiltonian kernel in streaming mode — linear
	// terms exercise the cross-term CSR path MaxCut never touches.
	familyProblems := map[string]*qaoa.Problem{}
	familyProblem := func(name string) *qaoa.Problem {
		if fp, ok := familyProblems[name]; ok {
			return fp
		}
		var fp *qaoa.Problem
		var err error
		switch name {
		case "ising/n20":
			fp, err = qaoa.NewIsing(problem.RandomIsing(20, rand.New(rand.NewSource(61))))
		case "maxksat/n20":
			f := problem.RandomMaxKSAT(14, 6, 3, rand.New(rand.NewSource(62)))
			fp, err = qaoa.New(problem.MaxKSAT(f))
		}
		if err != nil {
			fatal(err)
		}
		if fp.NumQubits() != 20 {
			fatal(fmt.Errorf("%s built a %d-qubit register; expected 20", name, fp.NumQubits()))
		}
		familyProblems[name] = fp
		return fp
	}
	prevProcs := runtime.GOMAXPROCS(0)
	for _, nc := range cpus {
		runtime.GOMAXPROCS(nc)
		for _, n := range []int{16, 20, 22, 24, 26, 28, 30} {
			name := fmt.Sprintf("expectation/n%d", n)
			if !benchMatch(name) {
				continue
			}
			base := quantum.AmpBytesAllocated()
			ws := largeProblem(n).NewWorkspace() // sharded above ShardThreshold
			x := []float64{0.4, 0.3}
			_ = ws.ExpectationVec(x) // warm the 2^n workspace
			e := bench(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = ws.ExpectationVec(x)
				}
			})
			e.Shards = ws.Shards()
			e.PeakBytes = quantum.AmpBytesAllocated() - base
			rep.add(name, e)
			ws.Close()
		}
		// Adjoint value+gradient: the n=20 p=3 flat sweep and the n=28
		// depth-1 sweep over the sharded layout (two shard sets live: the
		// state and its adjoint).
		gradEntry := func(name string, n int, x []float64) {
			if !benchMatch(name) {
				return
			}
			base := quantum.AmpBytesAllocated()
			ws := largeProblem(n).NewWorkspace()
			grad := make([]float64, len(x))
			_ = ws.ValueGrad(x, grad) // warm, allocates the adjoint buffer
			e := bench(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = ws.ValueGrad(x, grad)
				}
			})
			e.Shards = ws.Shards()
			e.PeakBytes = quantum.AmpBytesAllocated() - base
			rep.add(name, e)
			ws.Close()
		}
		gradEntry("grad/n20-p3", 20, []float64{0.4, 0.7, 0.9, 0.5, 0.3, 0.2})
		gradEntry("grad/n28-p1", 28, []float64{0.4, 0.3})
		for _, name := range []string{"ising/n20", "maxksat/n20"} {
			if !benchMatch(name) {
				continue
			}
			ev := qaoa.NewEvaluator(familyProblem(name), 1)
			x := []float64{0.4, 0.3}
			_ = ev.NegExpectation(x)
			rep.add(name, bench(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = ev.NegExpectation(x)
				}
			}))
		}
	}
	runtime.GOMAXPROCS(prevProcs)

	// End-to-end L-BFGS-B at depth 5 from one fixed start: the adjoint
	// path must reach the same optimum (⟨C⟩ within 1e-6) in a fraction
	// of the finite-difference wall clock. The two runs share the
	// agreement check, so filtering either one in runs both optimizers.
	if benchMatch("e2e/lbfgsb-fd-p5") || benchMatch("e2e/lbfgsb-adjoint-p5") {
		rep.e2e(pb, rng)
	}

	if !*quick {
		rep.wallclocks(*timeout, *workers, rec)
	}

	if *out != "-" {
		rep.merge(*out)
	}
	rep.annotateScaling()
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
	} else {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", *out, len(rep.Entries))
	}

	if mem != nil {
		f, err := os.Create(*metrics)
		if err != nil {
			fatal(err)
		}
		if err := mem.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (telemetry snapshot)\n", *metrics)
	}
}

// e2e runs the paired finite-difference / adjoint L-BFGS-B benchmark.
func (r *Report) e2e(pb *qaoa.Problem, rng *rand.Rand) {
	b5 := core.ParamBounds(5)
	x05 := b5.Random(rng)
	evFD := qaoa.NewEvaluator(pb, 5)
	beFD := qaoa.NewBatchEvaluator(pb, 5, 0)
	evAD := qaoa.NewEvaluator(pb, 5)
	// Tol well below the 1e-6 agreement bar so both paths grind into the
	// same optimum rather than stopping wherever the relative f-change
	// first dips under the default tolerance.
	lb := &optimize.LBFGSB{Tol: 1e-12}
	runFD := func() optimize.Result {
		return optimize.Run(context.Background(),
			optimize.Problem{F: evFD.NegExpectation, Batch: beFD.EvalBatch, X0: x05, Bounds: b5},
			optimize.Options{Optimizer: lb})
	}
	runAD := func() optimize.Result {
		return optimize.Run(context.Background(),
			optimize.Problem{F: evAD.NegExpectation, Grad: evAD.NegGrad, X0: x05, Bounds: b5},
			optimize.Options{Optimizer: lb})
	}
	rFD, rAD := runFD(), runAD()
	if diff := math.Abs(rFD.F - rAD.F); diff > 1e-6 {
		fatal(fmt.Errorf("adjoint optimum %.9f disagrees with FD optimum %.9f (|Δ| = %.3g)", -rAD.F, -rFD.F, diff))
	}
	eFD := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = runFD()
		}
	})
	eFD.NFev, eFD.FinalF = rFD.NFev, rFD.F
	eFD.EvalsPerSec = float64(eFD.NFev) / (eFD.NsPerOp * 1e-9)
	if benchMatch("e2e/lbfgsb-fd-p5") {
		r.add("e2e/lbfgsb-fd-p5", eFD)
	}
	eAD := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = runAD()
		}
	})
	eAD.NFev, eAD.NGev, eAD.FinalF = rAD.NFev, rAD.NGev, rAD.F
	eAD.EvalsPerSec = float64(eAD.NFev) / (eAD.NsPerOp * 1e-9)
	if benchMatch("e2e/lbfgsb-adjoint-p5") {
		r.add("e2e/lbfgsb-adjoint-p5", eAD)
	}
}

// wallclocks runs the end-to-end dataset-generation and Table I
// experiments once (never per -cpu setting — they manage their own
// worker pools).
func (r *Report) wallclocks(timeout time.Duration, workers int, rec telemetry.Recorder) {
	// The -timeout clock starts here so the micro benchmarks above
	// can't eat the wall-clock experiments' budget.
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// The wall-clock experiments run under ctx and feed the telemetry
	// sink: the per-depth datagen.fc.p* histograms, the optimize.run_ms
	// latency histogram and the datagen.generate span all land in the
	// -metrics dump. A -timeout deadline cuts them short (within one
	// optimizer step) and keeps whatever was measured.
	if benchMatch("wallclock/datagen") {
		r.add("wallclock/datagen", wallclock(func() int {
			cfg := core.DataGenConfig{
				NumGraphs: 8, Nodes: 8, EdgeProb: 0.5,
				MaxDepth: 3, Starts: 4, Tol: 1e-6, Seed: 2,
				Workers: workers, Recorder: rec,
			}
			data, err := core.GenerateCtx(ctx, cfg)
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				fatal(err)
			}
			nfev := 0
			for _, recs := range data.Records {
				for _, r := range recs {
					nfev += r.NFev
				}
			}
			return nfev
		}))
	}

	if !benchMatch("wallclock/table1") {
		return
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "qaoabench: timeout reached, skipping wallclock/table1")
		return
	}
	r.add("wallclock/table1", wallclock(func() int {
		env, err := experiments.NewEnvCtx(ctx, experiments.Scale{
			NumGraphs: 16, Nodes: 8, EdgeProb: 0.5,
			MaxDepth: 3, Starts: 4, TrainFrac: 0.4,
			Reps: 1, TestGraphs: 4, MaxTarget: 3,
			Workers: workers, Seed: 1,
		}, rec)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintln(os.Stderr, "qaoabench: timeout reached during table1 dataset")
				return 0
			}
			fatal(err)
		}
		res := experiments.RunTable1(env)
		nfev := 0
		for _, row := range res.Rows {
			nfev += int(row.NaiveMeanFC) + int(row.TwoMeanFC)
		}
		return nfev
	}))
}

// bench runs fn under the standard benchmark harness and converts the
// result to an Entry.
func bench(fn func(b *testing.B)) Entry {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return Entry{
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// wallclock times fn once; fn returns the objective-evaluation count so
// the entry can report evaluations per second.
func wallclock(fn func() int) Entry {
	start := time.Now()
	nfev := fn()
	secs := time.Since(start).Seconds()
	e := Entry{N: 1, Seconds: secs, NFev: nfev, NsPerOp: secs * 1e9}
	if secs > 0 {
		e.EvalsPerSec = float64(nfev) / secs
	}
	return e
}

// merge folds a previous report at path into r so partial runs (e.g.
// -quick or a -cpu subset) no longer clobber results they did not
// re-measure: entries are keyed by (name, gomaxprocs) with this run
// winning, entries only the old file has are kept, and the old
// timestamp joins History (newest first, capped at maxHistory).
// Entries written before the per-entry GOMAXPROCS field inherit the
// old file-level value, so a -cpu matrix run composes with legacy
// files. A missing or unreadable file is a first run; a corrupt one
// is overwritten.
func (r *Report) merge(path string) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var old Report
	if json.Unmarshal(blob, &old) != nil {
		return
	}
	key := func(e Entry, fileProcs int) string {
		procs := e.GOMAXPROCS
		if procs == 0 {
			procs = fileProcs
		}
		return e.Name + "@" + strconv.Itoa(procs)
	}
	fresh := make(map[string]bool, len(r.Entries))
	for _, e := range r.Entries {
		fresh[key(e, r.GOMAXPROCS)] = true
	}
	kept := 0
	for _, e := range old.Entries {
		if !fresh[key(e, old.GOMAXPROCS)] {
			if e.GOMAXPROCS == 0 {
				e.GOMAXPROCS = old.GOMAXPROCS
			}
			r.Entries = append(r.Entries, e)
			kept++
		}
	}
	if old.Timestamp != "" {
		r.History = append(r.History, old.Timestamp)
	}
	r.History = append(r.History, old.History...)
	if len(r.History) > maxHistory {
		r.History = r.History[:maxHistory]
	}
	if kept > 0 {
		fmt.Fprintf(os.Stderr, "merged %d prior entries from %s\n", kept, path)
	}
}

// annotateScaling fills SpeedupVsSerial and ParallelEfficiency on every
// entry measured above one worker whose name also has a GOMAXPROCS-1
// entry in the (merged) report. Running after the merge lets a partial
// -cpu run anchor against serial numbers recorded by an earlier run.
func (r *Report) annotateScaling() {
	serial := make(map[string]float64, len(r.Entries))
	for _, e := range r.Entries {
		if e.GOMAXPROCS == 1 && e.NsPerOp > 0 {
			serial[e.Name] = e.NsPerOp
		}
	}
	for i := range r.Entries {
		e := &r.Entries[i]
		if e.GOMAXPROCS <= 1 || e.NsPerOp <= 0 {
			e.SpeedupVsSerial, e.ParallelEfficiency = 0, 0
			continue
		}
		base, ok := serial[e.Name]
		if !ok {
			e.SpeedupVsSerial, e.ParallelEfficiency = 0, 0
			continue
		}
		e.SpeedupVsSerial = base / e.NsPerOp
		e.ParallelEfficiency = e.SpeedupVsSerial / float64(e.GOMAXPROCS)
	}
}

// add records the entry — stamped with the GOMAXPROCS it ran at — and
// prints a progress line to stderr (stdout is reserved for the JSON
// document when -out is '-').
func (r *Report) add(name string, e Entry) {
	e.Name = name
	e.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.Entries = append(r.Entries, e)
	switch {
	case e.NFev > 0:
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op  %8d nfev  %10.0f evals/s\n", name, e.NsPerOp, e.NFev, e.EvalsPerSec)
	case e.Shards > 1:
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op  %4d allocs/op  [%d cpu, %d shards]\n", name, e.NsPerOp, e.AllocsPerOp, e.GOMAXPROCS, e.Shards)
	default:
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op  %4d allocs/op  [%d cpu]\n", name, e.NsPerOp, e.AllocsPerOp, e.GOMAXPROCS)
	}
}

// benchRE filters which entries run; nil (no -bench flag) matches all.
var benchRE *regexp.Regexp

func benchMatch(name string) bool {
	return benchRE == nil || benchRE.MatchString(name)
}

// parseCPUs parses the -cpu list ("1,2,8"); an empty flag means the
// current GOMAXPROCS only, mirroring `go test -cpu`.
func parseCPUs(s string) []int {
	if strings.TrimSpace(s) == "" {
		return []int{runtime.GOMAXPROCS(0)}
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			fatal(fmt.Errorf("bad -cpu value %q (want positive integers, e.g. -cpu 1,2,8)", f))
		}
		out = append(out, v)
	}
	return out
}

// writeMemProfile dumps a post-GC heap profile, the right view for
// checking the large-n memory budget (live state vectors, no 2^n cost
// tables).
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (heap profile)\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qaoabench:", err)
	os.Exit(1)
}
