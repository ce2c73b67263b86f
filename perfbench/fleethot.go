package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"qaoaml/internal/cluster"
	"qaoaml/internal/core"
	"qaoaml/internal/problem"
	"qaoaml/internal/server"
	"qaoaml/internal/telemetry"
)

// fleet-hot: the README fleet quickstart in one process. A coordinator
// (WAL in a scratch directory, CacheSize −1 so the workers' caches own
// the key space) dispatches over loopback to two single-worker
// workers. Set-up warms a small seeded pool of 8-qubit instances into
// the worker caches, so timed traffic reads caches and spends no
// optimizer calls: the HTTP edge, WAL fsync, dispatch hop and SSE proxy
// do all the work.
const (
	fleetRate  = 100.0 // requests per second
	fleetPool  = 192
	fleetBatch = 4 // items per /v1/solve/batch request
	// fleetWindowMs is the window the latency percentiles are read in
	// (see lowStealPercentile): at 100 requests per second one second
	// holds about 145 solves, enough for a p90 with ten samples beyond
	// it.
	fleetWindowMs = 1000
	fleetTrainMax = 3 // the pool's deepest target depth
	// fleetTraceSolves is how many pool solves the traced run replays
	// for the solver-layer metrics (100 of them two-level).
	fleetTraceSolves = 200
)

// Request kinds, by i mod 20: 14 single solves with wait=true, 3
// batches, 3 solves followed over SSE.
func fleetKind(i int) string {
	switch r := i % 20; {
	case r < 14:
		return "single"
	case r < 17:
		return "batch"
	}
	return "sse"
}

func fleetItems(seed int64) ([]item, error) {
	rng := rand.New(rand.NewSource(seed))
	families := []string{problem.FamilyMaxCut, problem.FamilyPartition, problem.FamilyMaxKSAT}
	var pool []item
	for i := 0; i < fleetPool; i++ {
		fam := families[i%len(families)]
		spec, err := problem.RandomSpec(fam, 8, rng)
		if err != nil {
			return nil, err
		}
		strategy := strategyTwoLevel
		if i%2 == 1 {
			strategy = strategyNaive
		}
		depth := 2 + (i/2)%2
		pool = append(pool, item{
			ID:   fmt.Sprintf("pool%d-%s-p%d-%s", i, fam, depth, strategy),
			Spec: spec, Depth: depth, Strategy: strategy, Opt: "lbfgsb",
			Seed: mixSeed(seed, i),
		})
	}
	return pool, nil
}

// timedJournal and timedDispatcher wrap the fleet seams with timers on
// traced runs; they change nothing else. Accepted appends run inside
// submission, on the request's path; Completed appends run after the
// job is done.
type timedJournal struct {
	j        server.Journal
	mu       sync.Mutex
	ms       []float64 // every append
	accepted []float64 // Accepted appends only
}

func (t *timedJournal) add(start time.Time, accepted bool) {
	d := ms(time.Since(start))
	t.mu.Lock()
	t.ms = append(t.ms, d)
	if accepted {
		t.accepted = append(t.accepted, d)
	}
	t.mu.Unlock()
}

// reset drops the timings so far, so that the warm-up's appends are not
// counted with the timed traffic's.
func (t *timedJournal) reset() {
	t.mu.Lock()
	t.ms, t.accepted = nil, nil
	t.mu.Unlock()
}

// snapshot copies the timings so far; Completed appends of jobs the
// client already has may still be arriving.
func (t *timedJournal) snapshot() (all, accepted []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.ms...), append([]float64(nil), t.accepted...)
}

func (t *timedJournal) Accepted(key, fp string, req server.SolveRequest) error {
	start := time.Now()
	defer t.add(start, true)
	return t.j.Accepted(key, fp, req)
}

func (t *timedJournal) Completed(key string, res *server.SolveResult) error {
	start := time.Now()
	defer t.add(start, false)
	return t.j.Completed(key, res)
}

type timedDispatcher struct {
	d  server.Dispatcher
	mu sync.Mutex
	ms []float64
}

func (t *timedDispatcher) Dispatch(ctx context.Context, req server.SolveRequest, fp string, cost int64, emit func(telemetry.IterEvent)) (*server.SolveResult, error) {
	start := time.Now()
	res, err := t.d.Dispatch(ctx, req, fp, cost, emit)
	d := ms(time.Since(start))
	t.mu.Lock()
	t.ms = append(t.ms, d)
	t.mu.Unlock()
	return res, err
}

// reset drops the timings so far: the warm-up's dispatches solve, the
// timed traffic's read caches.
func (t *timedDispatcher) reset() {
	t.mu.Lock()
	t.ms = nil
	t.mu.Unlock()
}

func (t *timedDispatcher) snapshot() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.ms...)
}

type fleet struct {
	dir      string
	workers  []*server.Server
	stops    []func()
	wal      *cluster.WAL
	disp     *cluster.Dispatcher
	coord    *server.Server
	coordMem *telemetry.Memory
	base     string
	journal  *timedJournal
	dispT    *timedDispatcher
	edge     *handlerTimer // the coordinator's handler, on traced runs
	pred     *core.Predictor
	warm     map[string]*server.SolveResult // pool item ID → warm result
	trainMs  float64
}

func (f *fleet) close() {
	for i := len(f.stops) - 1; i >= 0; i-- {
		f.stops[i]()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	if f.disp != nil {
		f.disp.Close()
	}
	if f.wal != nil {
		f.wal.Close()
	}
	for _, w := range f.workers {
		w.Close()
	}
	os.RemoveAll(f.dir)
}

// workerCount sums a counter over the workers.
func (f *fleet) workerCount(name string) int64 {
	var n int64
	for _, w := range f.workers {
		n += w.Metrics().CounterValue(name)
	}
	return n
}

func setupFleet(ctx context.Context, cfg runConfig, rep int, pool []item) (f *fleet, err error) {
	f = &fleet{dir: filepath.Join(cfg.WorkDir, fmt.Sprintf("fleet%d", rep))}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return nil, err
	}
	_, pred, _, trainMs, err := trainPredictor(ctx, core.DataGenConfig{
		NumGraphs: serveTrainGraphs, Nodes: 8, EdgeProb: 0.5, MaxDepth: fleetTrainMax,
		Starts: 2, Tol: 1e-6, Seed: trainSeed, Workers: callers,
	}, 0.8)
	if err != nil {
		return nil, err
	}
	f.pred, f.trainMs = pred, trainMs
	reg, err := server.NewRegistry("")
	if err != nil {
		return nil, err
	}
	reg.Register("default", pred)

	var urls []string
	for i := 0; i < 2; i++ {
		w := server.New(server.Config{Workers: 1, Registry: reg})
		f.workers = append(f.workers, w)
		url, stop, err := serve(w.Handler())
		if err != nil {
			return nil, err
		}
		f.stops = append(f.stops, stop)
		urls = append(urls, url)
	}
	wal, _, err := cluster.OpenWAL(filepath.Join(f.dir, "coordinator.wal"))
	if err != nil {
		return nil, err
	}
	f.wal = wal
	f.coordMem = telemetry.NewMemory()
	f.disp, err = cluster.NewDispatcher(cluster.DispatcherConfig{Workers: urls, Recorder: f.coordMem})
	if err != nil {
		return nil, err
	}
	var journal server.Journal = wal
	var disp server.Dispatcher = f.disp
	if cfg.Trace {
		f.journal = &timedJournal{j: wal}
		f.dispT = &timedDispatcher{d: f.disp}
		journal, disp = f.journal, f.dispT
	}
	f.coord = server.New(server.Config{CacheSize: -1, Journal: journal, Dispatcher: disp, Registry: reg, Recorder: f.coordMem})
	handler := f.coord.Handler()
	if cfg.Trace {
		f.edge = newHandlerTimer(handler)
		handler = f.edge
	}
	base, stop, err := serve(handler)
	if err != nil {
		return nil, err
	}
	f.stops = append(f.stops, stop)
	f.base = base

	// Warm the pool into the worker caches through the coordinator.
	client := newClient()
	defer client.CloseIdleConnections()
	f.warm = make(map[string]*server.SolveResult, len(pool))
	var mu sync.Mutex
	var warmErr error
	parallel(len(pool), callers, func(i int) {
		req, err := requestFor(pool[i])
		if err == nil {
			req.Wait = true
			var view server.JobView
			if _, err = postJSON(ctx, client, f.base+"/v1/solve", req, &view); err == nil && view.State != server.StateDone {
				err = fmt.Errorf("warm-up job ended %s: %s", view.State, view.Error)
			}
			if err == nil {
				mu.Lock()
				f.warm[pool[i].ID] = view.Result
				mu.Unlock()
			}
		}
		if err != nil {
			mu.Lock()
			warmErr = fmt.Errorf("warming %s: %w", pool[i].ID, err)
			mu.Unlock()
		}
	})
	if warmErr != nil {
		return nil, warmErr
	}
	return f, nil
}

// fleetSolve is one solve's result as the client received it.
type fleetSolve struct {
	req     int // index of the load request that carried it
	poolIdx int
	view    server.JobView
	latMs   float64 // client latency of the request that carried it
}

func runFleetHot(ctx context.Context, cfg runConfig, rep *report) error {
	m := newValues()
	pool, err := fleetItems(cfg.Seed)
	if err != nil {
		return err
	}
	reps := 0
	f, setupSecs, err := repeatSetup(func() (*fleet, error) {
		reps++
		return setupFleet(ctx, cfg, reps, pool)
	}, (*fleet).close)
	if err != nil {
		return err
	}
	defer f.close()

	n := int(fleetRate * float64(cfg.Seconds))
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	picks := make([][]int, n) // pool indices per request
	for i := range picks {
		k := 1
		if fleetKind(i) == "batch" {
			k = fleetBatch
		}
		for j := 0; j < k; j++ {
			picks[i] = append(picks[i], rng.Intn(len(pool)))
		}
	}
	reqs := make([]server.SolveRequest, len(pool))
	for i, it := range pool {
		if reqs[i], err = requestFor(it); err != nil {
			return err
		}
	}

	client := newClient()
	if cfg.Trace {
		client = newTaggedClient()
		f.journal.reset()
		f.dispT.reset()
	}
	defer client.CloseIdleConnections()
	walBefore := fileSize(f.wal.Path())
	fevBefore := f.workerCount("optimize.fev_total")
	retriesBefore := f.coordMem.CounterValue("cluster.dispatch.retries")
	coalBefore := f.coordMem.CounterValue("server.jobs.coalesced")
	rejBefore := f.coordMem.CounterValue("server.admission.rejected") + f.coordMem.CounterValue("server.http.backpressure")
	jobsBefore := f.coordMem.CounterValue("server.jobs.submitted")
	hitsBefore, missBefore := f.workerCount("server.cache.hits"), f.workerCount("server.cache.misses")

	var mu sync.Mutex
	var solves []fleetSolve
	var errs []string
	var ttfe []float64
	fail := func(format string, args ...any) outcome {
		mu.Lock()
		if len(errs) < 5 {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
		return outcome{Failed: true}
	}
	interval := time.Duration(float64(time.Second) / float64(fleetRate))
	start := time.Now().Add(50 * time.Millisecond)
	meter := startStealMeter(start, fleetWindowMs*time.Millisecond)
	samples := openLoop(realClock{}, start, interval, n, callers, func(i int, due time.Time) outcome {
		ctx := withTag(ctx, i)
		switch fleetKind(i) {
		case "batch":
			var body server.BatchRequest
			for _, p := range picks[i] {
				body.Items = append(body.Items, reqs[p])
			}
			var resp server.BatchResponse
			if _, err := postJSON(ctx, client, f.base+"/v1/solve/batch", body, &resp); err != nil {
				o := fail("batch %d: %v", i, err)
				o.Solves = fleetBatch
				return o
			}
			end := time.Now()
			if len(resp.Items) != fleetBatch {
				o := fail("batch %d: %d results", i, len(resp.Items))
				o.Solves = fleetBatch
				return o
			}
			mu.Lock()
			for j, r := range resp.Items {
				var view server.JobView
				if r.Job != nil && r.Code == 200 {
					view = *r.Job
				} else {
					view.State, view.Error = server.StateFailed, r.Error
				}
				solves = append(solves, fleetSolve{req: i, poolIdx: picks[i][j], view: view, latMs: ms(end.Sub(due))})
			}
			mu.Unlock()
			return outcome{End: end, Solves: fleetBatch}
		case "sse":
			req := reqs[picks[i][0]]
			var view server.JobView
			if _, err := postJSON(ctx, client, f.base+"/v1/solve", req, &view); err != nil {
				return fail("sse submit %d: %v", i, err)
			}
			open := time.Now()
			stream, err := cluster.OpenEvents(ctx, client, f.base, view.ID)
			if err != nil {
				return fail("sse open %d: %v", i, err)
			}
			defer stream.Close()
			first := true
			for {
				ev, err := stream.Next()
				if err != nil {
					return fail("sse stream %d: %v", i, err)
				}
				if first {
					mu.Lock()
					ttfe = append(ttfe, ms(time.Since(open)))
					mu.Unlock()
					first = false
				}
				if ev.Name == server.EventResult {
					end := time.Now()
					var final server.JobView
					if err := json.Unmarshal(ev.Data, &final); err != nil {
						return fail("sse result %d: %v", i, err)
					}
					mu.Lock()
					solves = append(solves, fleetSolve{req: i, poolIdx: picks[i][0], view: final, latMs: ms(end.Sub(due))})
					mu.Unlock()
					return outcome{End: end, Failed: final.State != server.StateDone}
				}
			}
		default:
			req := reqs[picks[i][0]]
			req.Wait = true
			var view server.JobView
			if _, err := postJSON(ctx, client, f.base+"/v1/solve", req, &view); err != nil {
				return fail("solve %d: %v", i, err)
			}
			end := time.Now()
			mu.Lock()
			solves = append(solves, fleetSolve{req: i, poolIdx: picks[i][0], view: view, latMs: ms(end.Sub(due))})
			mu.Unlock()
			return outcome{End: end, Failed: view.State != server.StateDone}
		}
	})
	steal := meter.finish()
	fevSpent := f.workerCount("optimize.fev_total") - fevBefore
	jobs := f.coordMem.CounterValue("server.jobs.submitted") - jobsBefore

	ls := summarizeLoad(samples)
	rep.Attempted, rep.Failed = ls.Attempted, ls.Failed
	rep.Timeline, rep.Steal = ls.Timeline, steal
	rep.Notes = append(rep.Notes, errs...)
	var fev, ars []float64
	var edge, queue, run []float64
	arOK, sameOK, done := true, true, 0
	for _, s := range solves {
		if s.view.State != server.StateDone || s.view.Result == nil {
			continue
		}
		done++
		res := s.view.Result
		fev = append(fev, float64(res.NFev))
		ars = append(ars, res.AR)
		arOK = arOK && res.AR > 0 && res.AR <= 1
		sameOK = sameOK && reflect.DeepEqual(res, f.warm[pool[s.poolIdx].ID])
	}
	rep.check(ls.Failed == 0 && done == ls.Attempted, "every solve reached done (%d of %d failed, %d done)", ls.Failed, ls.Attempted, done)
	rep.check(arOK, "every AR is in (0, 1]")
	rep.check(fevSpent == 0, "timed traffic added %d to the workers' optimize.fev_total", fevSpent)
	rep.check(sameOK, "every served result equals the warm-up result of its instance")
	if err := checkServed(ctx, rep, f.pred, pool, func(k int) *server.SolveResult { return f.warm[pool[k].ID] }); err != nil {
		return err
	}

	lag, err := percentile(ls.LagsMs, 90)
	if err != nil {
		return err
	}
	if !cfg.Trace {
		m.set("setup_s", median(setupSecs), len(setupSecs))
		m.set("throughput_per_s", ls.Throughput, ls.Attempted-ls.Failed)
		// Steal episodes on a shared host double this workload's
		// millisecond tails for seconds at a time, so its latency is
		// read in the one-second windows the host left alone (see
		// lowStealPercentile); the whole-run percentiles are reported
		// next to it.
		for _, p := range []float64{50, 90} {
			v, used, err := lowStealPercentile(ls.Timeline, fleetWindowMs, steal, p)
			if err != nil {
				return fmt.Errorf("latency: %w", err)
			}
			m.set(fmt.Sprintf("latency_p%g_ms", p), v, len(ls.Timeline))
			rep.extra(fmt.Sprintf("latency_p%g_ms.windows", p), "count", float64(used), len(steal))
		}
		rep.extra("host.steal_pct", "%", 100*mean(steal), len(steal))
		m.set("completed_share", float64(ls.Attempted-ls.Failed)/float64(ls.Attempted), ls.Attempted)
		m.set("fev_per_solve", mean(fev), len(fev))
		m.set("ar_mean", mean(ars), len(ars))
		m.set("peak_rss_mb", peakRSSMB(), 1)
		rep.fill(endToEnd, m.v, m.n)
		for _, p := range []float64{50, 90} {
			v, _ := percentile(ls.Latencies, p)
			rep.extra(fmt.Sprintf("latency_p%g_ms.whole_run", p), "ms", v, len(ls.Latencies))
		}
		if p99, err := percentile(ls.Latencies, 99); err == nil {
			rep.extra("latency_p99_ms", "ms", p99, len(ls.Latencies))
		} else {
			rep.Notes = append(rep.Notes, "latency_p99_ms not reported: "+err.Error())
		}
		// The schedule's solves per second, which throughput_per_s
		// should equal: a batch request carries fleetBatch solves.
		offered := 0
		for _, p := range picks {
			offered += len(p)
		}
		rep.extra("offered_solves_per_s", "1/s", fleetRate*float64(offered)/float64(n), n)
		rep.extra("failed_share", "share", float64(ls.Failed)/float64(ls.Attempted), ls.Attempted)
		rep.extra("fev_spent_per_solve", "count", float64(fevSpent)/float64(ls.Attempted), ls.Attempted)
		rep.extra("gen.lag_p90_ms", "ms", lag, len(ls.LagsMs))
		rep.extra("ml.train_ms", "ms", f.trainMs, 1)
		return nil
	}

	// Traced run: the server split from the coordinator's job records
	// (edge = client latency minus enqueue-to-finish), the cluster seams
	// from their timing decorators, the time the coordinator had each
	// request from its handler timer.
	m.set("gen.lag_p90_ms", lag, len(ls.LagsMs))
	var sumLat, sumHandler float64
	for _, s := range solves {
		v := s.view
		if v.State != server.StateDone || v.Started == nil || v.Finished == nil {
			continue
		}
		_, h, ok := f.edge.request(s.req)
		if !ok {
			return fmt.Errorf("request %d never reached the coordinator's handler", s.req)
		}
		sumLat += s.latMs
		sumHandler += h
		edge = append(edge, s.latMs-ms(v.Finished.Sub(v.Enqueued)))
		queue = append(queue, ms(v.Started.Sub(v.Enqueued)))
		run = append(run, ms(v.Finished.Sub(*v.Started)))
	}
	for _, x := range []struct {
		name string
		xs   []float64
	}{{"server.edge_ms", edge}, {"server.queue_wait_ms", queue}, {"server.run_ms", run}} {
		if err := m.pcts(x.name, x.xs); err != nil {
			return err
		}
	}
	// The coordinator caches nothing; the workers' caches serve.
	hits := float64(f.workerCount("server.cache.hits") - hitsBefore)
	misses := float64(f.workerCount("server.cache.misses") - missBefore)
	m.set("server.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	m.set("server.coalesced_ratio", ratio(float64(f.coordMem.CounterValue("server.jobs.coalesced")-coalBefore), float64(ls.Attempted)), ls.Attempted)
	m.set("server.rejected_share", ratio(float64(f.coordMem.CounterValue("server.admission.rejected")+f.coordMem.CounterValue("server.http.backpressure")-rejBefore), float64(ls.Attempted)), ls.Attempted)
	walMs, acceptedMs := f.journal.snapshot()
	dispMs := f.dispT.snapshot()
	if err := m.pcts("cluster.wal_append_ms", walMs); err != nil {
		return err
	}
	m.set("cluster.wal_bytes_per_job", ratio(float64(fileSize(f.wal.Path())-walBefore), float64(jobs)), int(jobs))
	if err := m.pcts("cluster.dispatch_ms", dispMs); err != nil {
		return err
	}
	m.set("cluster.dispatch_retries", float64(f.coordMem.CounterValue("cluster.dispatch.retries")-retriesBefore), int(jobs))
	if err := m.pcts("cluster.sse_ttfe_ms", ttfe); err != nil {
		return err
	}
	var walSum, dispSum float64
	for _, x := range acceptedMs {
		walSum += x
	}
	for _, x := range dispMs {
		dispSum += x
	}

	// Solver layers: replay pool items off the clock. Timed traffic
	// spends no solver time, so their shares of the path stay 0.
	var items []item
	var specs []problem.Spec
	for k := 0; len(items) < fleetTraceSolves; k++ {
		it := pool[k%len(pool)]
		it.ID = fmt.Sprintf("%s-r%d", it.ID, k/len(pool))
		items = append(items, it)
		specs = append(specs, it.Spec)
	}
	flow := newSpanRecorder()
	st, err := replayItems(ctx, items, nil, f.pred, true, flow)
	if err != nil {
		return err
	}
	if err := solverLayerMetrics(m, st, flow); err != nil {
		return err
	}
	if err := problemMetrics(m, specs); err != nil {
		return err
	}
	m.set("ml.train_ms", f.trainMs, 1)
	if err := kernelMetrics(m); err != nil {
		return err
	}
	gets := f.workerCount("server.arena.gets")
	m.set("qaoa.arena_reuse_ratio", ratio(float64(f.workerCount("server.arena.hits")), float64(gets)), int(gets))
	// Shares of the summed client latency (a batch's latency counts
	// once per solve, as its solves' appends and dispatches do): the
	// Accepted appends and the dispatch hops are cluster time, the rest
	// of the time inside the coordinator's handlers is server time, and
	// the time outside them (generator lateness, JSON encode and
	// decode, loopback, wake-ups) is the client's.
	for _, l := range shareLayers {
		m.set("layer_share."+l, 0, ls.Attempted)
	}
	m.set("layer_share.cluster", ratio(walSum+dispSum, sumLat), ls.Attempted)
	m.set("layer_share.server", ratio(sumHandler-walSum-dispSum, sumLat), ls.Attempted)
	m.set("layer_share.client", ratio(sumLat-sumHandler, sumLat), ls.Attempted)
	rep.fill(perLayer, m.v, m.n)
	return writeSpans(cfg.OutDir, rep, st.spans)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
