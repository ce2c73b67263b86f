package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

// A run performs its set-up at least setupReps times and until the
// set-ups have taken setupMinSeconds; setup_s is the median, so one slow
// start does not decide the figure. A set-up of a tenth of a second
// (serve-cold) is too short for five samples to steady it.
const (
	setupReps       = 5
	setupMinSeconds = 3.0
)

// trainSeed seeds every predictor's training set, as qaoad's
// -train-seed default does. The trained model is part of the system
// under test, not an input: the workload seed draws the instances that
// are solved, and a model that changed with it would move every run's
// FC and timing together.
const trainSeed = 1

// callers is the closed-loop concurrency and the open-loop connection
// cap: the host's two CPUs.
const callers = 2

// values collects a run's metrics by name with their sample counts.
type values struct {
	v map[string]float64
	n map[string]int
}

func newValues() values { return values{v: map[string]float64{}, n: map[string]int{}} }

func (m values) set(name string, v float64, n int) {
	m.v[name] = v
	m.n[name] = n
}

// pcts sets name.p50 and name.p90 from xs, failing if xs is too small
// for a p90 with ten samples beyond it.
func (m values) pcts(name string, xs []float64) error {
	for _, p := range []float64{50, 90} {
		v, err := percentile(xs, p)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m.set(fmt.Sprintf("%s.p%g", name, p), v, len(xs))
	}
	return nil
}

// latencyMetrics sets the end-to-end latency percentiles from a run's
// timeline of [ms since the run's start, latency ms] per solve over the
// whole run.
func (m values) latencyMetrics(timeline [][2]float64) error {
	lat := latencies(timeline)
	for _, p := range []float64{50, 90} {
		v, err := percentile(lat, p)
		if err != nil {
			return fmt.Errorf("latency: %w", err)
		}
		m.set(fmt.Sprintf("latency_p%g_ms", p), v, len(lat))
	}
	return nil
}

// latencies returns the latency column of a timeline.
func latencies(timeline [][2]float64) []float64 {
	lat := make([]float64, len(timeline))
	for i, s := range timeline {
		lat[i] = s[1]
	}
	return lat
}

// repeatSetup runs setup as often as setupReps and setupMinSeconds
// ask, tearing down every instance but the last, and returns the last
// with the wall time of each set-up.
func repeatSetup[T any](setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var cur T
	var secs []float64
	total := 0.0
	for r := 0; r < setupReps || total < setupMinSeconds; r++ {
		start := time.Now()
		s, err := setup()
		if err != nil {
			return cur, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		total += secs[r]
		if r > 0 {
			teardown(cur)
		}
		cur = s
	}
	return cur, secs, nil
}

// mixSeed derives a per-item seed from the workload seed and the
// item's coordinates, so items are independent of scheduling.
func mixSeed(seed int64, parts ...int) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		fmt.Fprint(h, "/", p)
	}
	return int64(h.Sum64()>>2) + 1
}

// trainPredictor generates a two-level training set with core.Generate
// and fits the GPR predictor on the split's training graphs (all of
// them when trainFrac is 1), returning the dataset, the held-out graph
// ids and the fit time.
func trainPredictor(ctx context.Context, cfg core.DataGenConfig, trainFrac float64) (*core.Data, *core.Predictor, []int, float64, error) {
	data, err := core.GenerateCtx(ctx, cfg)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("generating dataset: %w", err)
	}
	var train, test []int
	if trainFrac >= 1 {
		for g := range data.Problems {
			train = append(train, g)
		}
	} else {
		train, test = data.SplitIndices(trainFrac, cfg.Seed)
	}
	pred := core.NewPredictor(nil)
	start := time.Now()
	if err := pred.Train(data, train); err != nil {
		return nil, nil, nil, 0, fmt.Errorf("training predictor: %w", err)
	}
	return data, pred, test, ms(time.Since(start)), nil
}

// replayStats accumulates per-layer figures over replayed solves.
type replayStats struct {
	spans     []span
	solveMs   []float64 // root wall time per replayed solve
	plainMs   []float64 // the same solves un-instrumented
	coverage  []float64 // layer self time / root wall, per solve
	level1Fev []float64
	level2Fev []float64
	fcNaive   map[string][]float64
	fcTwo     map[string][]float64
	ars       []float64
	// State-buffer requests to the replay's arenas, and how many their
	// free lists served.
	arenaGets, arenaHits float64
}

func newReplayStats() *replayStats {
	return &replayStats{fcNaive: map[string][]float64{}, fcTwo: map[string][]float64{}}
}

// add appends p's solves to st.
func (st *replayStats) add(p *replayStats) {
	st.spans = append(st.spans, offsetSpans(p.spans, len(st.spans))...)
	st.solveMs = append(st.solveMs, p.solveMs...)
	st.plainMs = append(st.plainMs, p.plainMs...)
	st.coverage = append(st.coverage, p.coverage...)
	st.level1Fev = append(st.level1Fev, p.level1Fev...)
	st.level2Fev = append(st.level2Fev, p.level2Fev...)
	st.ars = append(st.ars, p.ars...)
	for o, xs := range p.fcNaive {
		st.fcNaive[o] = append(st.fcNaive[o], xs...)
	}
	for o, xs := range p.fcTwo {
		st.fcTwo[o] = append(st.fcTwo[o], xs...)
	}
	st.arenaGets += p.arenaGets
	st.arenaHits += p.arenaHits
}

// arenaReuse is the share of state-buffer requests the replay's arenas
// served from their free lists.
func (st *replayStats) arenaReuse() float64 { return ratio(st.arenaHits, st.arenaGets) }

func (st *replayStats) arOK() bool {
	for _, a := range st.ars {
		if !(a > 0 && a <= 1) {
			return false
		}
	}
	return len(st.ars) > 0
}

// replayItems runs each item twice off the clock: through solvePlain
// (the program's own path, with core's flow spans recorded) and
// through the instrumented replay, and fails unless both are
// bit-identical. pbs, when non-nil, supplies prebuilt problems. The
// items are split over `callers` goroutines with one arena each, the
// concurrency the workloads themselves run at.
func replayItems(ctx context.Context, items []item, pbs []*qaoa.Problem, pred *core.Predictor, readout bool, flow *spanRecorder) (*replayStats, error) {
	parts := make([]*replayStats, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w], errs[w] = replaySeq(ctx, items, pbs, pred, readout, flow, w, callers)
		}(w)
	}
	wg.Wait()
	st := newReplayStats()
	for w, p := range parts {
		if errs[w] != nil {
			return nil, errs[w]
		}
		st.add(p)
	}
	return st, nil
}

// replaySeq replays items k ≡ w (mod stride) on one arena.
func replaySeq(ctx context.Context, items []item, pbs []*qaoa.Problem, pred *core.Predictor, readout bool, flow *spanRecorder, w, stride int) (*replayStats, error) {
	st := newReplayStats()
	arena := qaoa.NewArena(0)
	defer arena.Close()
	for k := w; k < len(items); k += stride {
		it := items[k]
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var pb *qaoa.Problem
		if pbs != nil {
			pb = pbs[k]
		}
		// Alternate which of the two runs goes first, so warm caches
		// favour neither side of the overhead figure.
		var plain, got solveOut
		var plainMs float64
		tr := newTracer()
		runPlain := func() error {
			start := time.Now()
			var err error
			plain, err = solvePlain(ctx, it, pb, pred, arena, flow, readout)
			plainMs = ms(time.Since(start))
			return err
		}
		runReplay := func() error {
			var err error
			got, err = replaySolve(ctx, tr, it, pb, pred, arena, readout)
			return err
		}
		first, second := runPlain, runReplay
		if (k/stride)%2 == 1 {
			first, second = runReplay, runPlain
		}
		if err := first(); err != nil {
			return nil, fmt.Errorf("item %s: %w", it.ID, err)
		}
		if err := second(); err != nil {
			return nil, fmt.Errorf("item %s: %w", it.ID, err)
		}
		st.plainMs = append(st.plainMs, plainMs)
		if err := sameBits(got, plain); err != nil {
			return nil, fmt.Errorf("replay of item %s is not bit-identical to core: %w", it.ID, err)
		}
		root := tr.spans[0]
		st.solveMs = append(st.solveMs, float64(root.dur())/1e6)
		var covered int64
		for _, ns := range layerSelf(tr.spans) {
			covered += ns
		}
		st.coverage = append(st.coverage, 100*float64(covered)/float64(root.dur()))
		if plain.TwoLevel {
			st.level1Fev = append(st.level1Fev, float64(plain.L1Fev))
			st.level2Fev = append(st.level2Fev, float64(plain.L2Fev))
			st.fcTwo[it.Opt] = append(st.fcTwo[it.Opt], float64(plain.NFev))
		} else {
			st.fcNaive[it.Opt] = append(st.fcNaive[it.Opt], float64(plain.NFev))
		}
		st.ars = append(st.ars, plain.AR)
		st.spans = append(st.spans, offsetSpans(tr.spans, len(st.spans))...)
	}
	as := arena.Stats()
	st.arenaGets, st.arenaHits = float64(as.Gets), float64(as.Hits)
	return st, nil
}

// offsetSpans re-bases parent indices when a tracer's spans are
// appended after base earlier spans.
func offsetSpans(spans []span, base int) []span {
	out := make([]span, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		out[i] = s
	}
	return out
}

// solverLayerMetrics turns replayed spans into the solver layers'
// per-layer metrics (qaoa, problem, optimize, ml, core) and the trace's
// overhead and coverage.
func solverLayerMetrics(m values, st *replayStats, flow *spanRecorder) error {
	self := selfTimes(st.spans)
	by := map[string][]float64{} // span name → durations (ms)
	var evalNs, rootNs int64
	var batchPoints int
	var optSelf []float64
	var iters, ngev []float64
	for i, s := range st.spans {
		d := float64(s.dur()) / 1e6
		by[s.Name] = append(by[s.Name], d)
		switch s.Name {
		case "qaoa.expect", "qaoa.grad", "qaoa.batch":
			evalNs += s.dur()
			if s.Name == "qaoa.batch" {
				batchPoints += s.points
			}
		case rootSpan:
			rootNs += s.dur()
		case "optimize.run":
			optSelf = append(optSelf, float64(self[i])/1e6)
			iters = append(iters, float64(s.iters))
			ngev = append(ngev, float64(s.ngev))
		}
	}
	us := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * 1000
		}
		return out
	}
	solves := float64(len(st.solveMs))
	m.set("qaoa.expect_calls", float64(len(by["qaoa.expect"])+batchPoints)/solves, len(st.solveMs))
	m.set("qaoa.grad_calls", float64(len(by["qaoa.grad"]))/solves, len(st.solveMs))
	if err := m.pcts("qaoa.expect_us", us(by["qaoa.expect"])); err != nil {
		return err
	}
	if len(by["qaoa.grad"]) > 0 {
		if err := m.pcts("qaoa.grad_us", us(by["qaoa.grad"])); err != nil {
			return err
		}
	}
	m.set("qaoa.busy_share", ratio(float64(evalNs), float64(rootNs)), len(st.solveMs))
	m.set("optimize.iterations", mean(iters), len(iters))
	m.set("optimize.ngev", mean(ngev), len(ngev))
	if err := m.pcts("optimize.self_ms", optSelf); err != nil {
		return err
	}
	optSelfTotal := 0.0
	for _, x := range optSelf {
		optSelfTotal += x
	}
	m.set("optimize.self_share", ratio(optSelfTotal, float64(rootNs)/1e6), len(optSelf))
	if xs := by["ml.predict"]; len(xs) > 0 {
		if err := m.pcts("ml.predict_us", us(xs)); err != nil {
			return err
		}
	}
	// core's own flow spans, recorded by the recorder passed into core.
	for _, f := range []struct{ span, metric string }{
		{"twolevel.level1", "core.level1_ms"},
		{"twolevel.predict", "core.predict_ms"},
		{"twolevel.level2", "core.level2_ms"},
	} {
		if err := m.pcts(f.metric, flow.durations(f.span)); err != nil {
			return err
		}
	}
	if err := m.pcts("core.readout_ms", perSolveSum(st.spans, "core.readout", "server.readout")); err != nil {
		return err
	}
	m.set("core.level1_fev", mean(st.level1Fev), len(st.level1Fev))
	m.set("core.level2_fev", mean(st.level2Fev), len(st.level2Fev))
	for _, o := range optimizerNames {
		nv, tw := st.fcNaive[o], st.fcTwo[o]
		if len(nv) > 0 && len(tw) > 0 {
			m.set("core.fc_reduction_pct."+o, 100*(1-mean(tw)/mean(nv)), len(nv)+len(tw))
		}
	}
	layerNs := layerSelf(st.spans)
	for _, l := range shareLayers {
		m.set("layer_share."+l, ratio(float64(layerNs[l]), float64(rootNs)), len(st.solveMs))
	}
	sumPlain, sumReplay := 0.0, 0.0
	for i := range st.plainMs {
		sumPlain += st.plainMs[i]
		sumReplay += st.solveMs[i]
	}
	m.set("trace.overhead_pct", 100*(ratio(sumReplay, sumPlain)-1), len(st.plainMs))
	m.set("trace.replay_coverage_pct", median(st.coverage), len(st.coverage))
	return nil
}

// perSolveSum sums, per root solve, the durations of spans with any of
// the given names, returning one total (ms) per solve.
func perSolveSum(spans []span, names ...string) []float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []float64
	cur := -1
	for _, s := range spans {
		if s.Name == rootSpan {
			out = append(out, 0)
			cur = len(out) - 1
			continue
		}
		if want[s.Name] && cur >= 0 {
			out[cur] += float64(s.dur()) / 1e6
		}
	}
	return out
}

// writeSpans writes the traced spans as JSON lines next to the report.
func writeSpans(dir string, rep *report, spans []span) error {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.jsonl", rep.Workload, rep.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d spans written to %s", len(spans), path))
	return f.Close()
}

// kernelMetrics times the quantum kernels at every kernel width.
func kernelMetrics(m values) error {
	for _, n := range kernelWidths {
		rates, err := kernelRates(n, 7)
		if err != nil {
			return err
		}
		for k, v := range rates {
			m.set(k, v, 7)
		}
	}
	return nil
}

// problemMetrics times the problem layer on each spec: all of
// qaoa.New, the exact optimum alone (graph.WeightedMaxCut for MaxCut,
// Instance.BruteForce on the compiled instance otherwise) and the
// canonical fingerprint.
func problemMetrics(m values, specs []problem.Spec) error {
	var build, exact, fp []float64
	for _, sp := range specs {
		start := time.Now()
		if _, err := qaoa.New(sp); err != nil {
			return err
		}
		build = append(build, ms(time.Since(start)))
		if sp.Family == problem.FamilyMaxCut {
			start = time.Now()
			sp.Graph.WeightedMaxCut()
		} else {
			in, err := sp.Compile()
			if err != nil {
				return err
			}
			start = time.Now()
			in.BruteForce()
		}
		exact = append(exact, ms(time.Since(start)))
		start = time.Now()
		if _, err := sp.Fingerprint(); err != nil {
			return err
		}
		fp = append(fp, ms(time.Since(start))*1000)
	}
	if err := m.pcts("problem.build_ms", build); err != nil {
		return err
	}
	if err := m.pcts("problem.exact_opt_ms", exact); err != nil {
		return err
	}
	return m.pcts("problem.fingerprint_us", fp)
}

// parallel runs f(i) for i in [0, n) on workers goroutines.
func parallel(n, workers int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
