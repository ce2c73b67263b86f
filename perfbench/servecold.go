package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/problem"
	"qaoaml/internal/server"
)

// serve-cold: an in-process qaoad with its default configuration
// behind a loopback http.Server, driven open-loop at a fixed rate
// below saturation. Every request is a distinct seeded instance, so the
// result cache is written and never read and every request costs a
// full solve: the evaluator and kernels do most of the work.
const (
	// serveRate is requests per second. The mix costs about 90 ms of
	// CPU a solve, so 8/s keeps the two CPUs about 35 % busy. At 16/s
	// (70 % busy) a host slowed by its neighbours pushed the queue
	// towards saturation, and p50 moved 57 → 96 ms within minutes.
	serveRate = 8.0
	// serveMinRequests keeps a p90 with ten samples beyond it.
	serveMinRequests = 100
	// serveCheckSample is how many served results are re-solved through
	// core off the clock.
	serveCheckSample = 6
	// serveTraceItems is how many items the traced run replays, 100 of
	// them two-level.
	serveTraceItems = 125
	// qaoad's -train defaults for the "default" model.
	serveTrainGraphs = 16
	serveTrainDepth  = 5
)

// serveClasses is the fixed request mix: three families × two
// register widths (12–13 qubits) × two depths. Every block of len(serveClasses)
// requests holds each class once, in a seeded order, so runs with
// different seeds share the mix and differ only in the instances.
type serveClass struct {
	family       string
	width, depth int
}

var serveClasses = func() []serveClass {
	var out []serveClass
	for _, f := range []string{problem.FamilyMaxCut, problem.FamilyPartition, problem.FamilyMaxKSAT} {
		for _, w := range []int{12, 13} {
			for _, d := range []int{2, 3} {
				out = append(out, serveClass{f, w, d})
			}
		}
	}
	return out
}()

// serveItems draws n distinct instances. Every fifth request is naive,
// the rest two-level; all use L-BFGS-B.
func serveItems(seed int64, n int) ([]item, error) {
	rng := rand.New(rand.NewSource(seed))
	var items []item
	var order []int
	for i := 0; i < n; i++ {
		if i%len(serveClasses) == 0 {
			order = rng.Perm(len(serveClasses))
		}
		c := serveClasses[order[i%len(serveClasses)]]
		spec, err := problem.RandomSpec(c.family, c.width, rng)
		if err != nil {
			return nil, err
		}
		strategy := strategyTwoLevel
		if i%5 == 4 {
			strategy = strategyNaive
		}
		items = append(items, item{
			ID:   fmt.Sprintf("req%d-%s-n%d-p%d-%s", i, c.family, c.width, c.depth, strategy),
			Spec: spec, Depth: c.depth, Strategy: strategy, Opt: "lbfgsb",
			Seed: mixSeed(seed, i),
		})
	}
	return items, nil
}

type serveSetup struct {
	srv     *server.Server
	edge    *handlerTimer // the daemon's handler, on traced runs
	base    string
	stop    func()
	pred    *core.Predictor
	trainMs float64
}

func (s *serveSetup) close() {
	s.stop()
	s.srv.Close()
}

func setupServe(ctx context.Context, trace bool) (*serveSetup, error) {
	_, pred, _, trainMs, err := trainPredictor(ctx, core.DataGenConfig{
		NumGraphs: serveTrainGraphs, Nodes: 8, EdgeProb: 0.5, MaxDepth: serveTrainDepth,
		Starts: 2, Tol: 1e-6, Seed: trainSeed, Workers: callers,
	}, 0.8)
	if err != nil {
		return nil, err
	}
	reg, err := server.NewRegistry("")
	if err != nil {
		return nil, err
	}
	reg.Register("default", pred)
	srv := server.New(server.Config{Registry: reg})
	var edge *handlerTimer
	handler := srv.Handler()
	if trace {
		edge = newHandlerTimer(handler)
		handler = edge
	}
	base, stop, err := serve(handler)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &serveSetup{srv: srv, edge: edge, base: base, stop: stop, pred: pred, trainMs: trainMs}, nil
}

// jobRecord is one open-loop request's fate.
type jobRecord struct {
	id   string
	view server.JobView
	err  string
}

func runServeCold(ctx context.Context, cfg runConfig, rep *report) error {
	m := newValues()
	s, setupSecs, err := repeatSetup(func() (*serveSetup, error) { return setupServe(ctx, cfg.Trace) }, (*serveSetup).close)
	if err != nil {
		return err
	}
	defer s.close()
	n := int(serveRate * float64(cfg.Seconds))
	if n < serveMinRequests {
		n = serveMinRequests
	}
	items, err := serveItems(cfg.Seed, n)
	if err != nil {
		return err
	}
	client := newClient()
	if cfg.Trace {
		client = newTaggedClient()
	}
	defer client.CloseIdleConnections()
	before, err := counters(ctx, client, s.base)
	if err != nil {
		return err
	}

	records := make([]jobRecord, n)
	interval := time.Duration(float64(time.Second) / serveRate)
	samples := openLoop(realClock{}, time.Now().Add(50*time.Millisecond), interval, n, callers, func(i int, due time.Time) outcome {
		req, err := requestFor(items[i])
		if err != nil {
			records[i].err = err.Error()
			return outcome{Failed: true}
		}
		var view server.JobView
		if _, err := postJSON(withTag(ctx, i), client, s.base+"/v1/solve", req, &view); err != nil {
			records[i].err = err.Error()
			return outcome{Failed: true}
		}
		records[i].id = view.ID
		return outcome{}
	})
	// Collect the job records once the schedule is through; the finish
	// times are the server's, so when they are read does not matter.
	if err := awaitJobs(ctx, client, s.base, records); err != nil {
		return err
	}
	after, err := counters(ctx, client, s.base)
	if err != nil {
		return err
	}
	delta := func(k string) float64 { return float64(after[k] - before[k]) }

	var fev, ars []float64
	var edge, queue, run []float64
	var clientMs []float64 // traced runs: due time to the handler's start
	arOK := true
	for i := range samples {
		r := records[i]
		if r.err != "" || r.view.State != server.StateDone || r.view.Finished == nil || r.view.Result == nil {
			samples[i].Failed = true
			continue
		}
		samples[i].End = *r.view.Finished
		res := r.view.Result
		fev = append(fev, float64(res.NFev))
		ars = append(ars, res.AR)
		arOK = arOK && res.AR > 0 && res.AR <= 1
		started := *r.view.Started
		edge = append(edge, ms(r.view.Enqueued.Sub(samples[i].Due)))
		queue = append(queue, ms(started.Sub(r.view.Enqueued)))
		run = append(run, ms(r.view.Finished.Sub(started)))
		if cfg.Trace {
			hs, _, ok := s.edge.request(i)
			if !ok {
				return fmt.Errorf("request %d never reached the daemon's handler", i)
			}
			clientMs = append(clientMs, ms(hs.Sub(samples[i].Due)))
		}
	}
	ls := summarizeLoad(samples)
	rep.Attempted, rep.Failed = ls.Attempted, ls.Failed
	rep.Timeline = ls.Timeline
	rep.check(ls.Failed == 0, "every solve reached done (%d of %d failed)", ls.Failed, ls.Attempted)
	for _, r := range records {
		if r.err != "" && len(rep.Notes) < 5 {
			rep.Notes = append(rep.Notes, r.err)
		}
	}
	rep.check(arOK, "every AR is in (0, 1]")
	hits, misses := delta("server.cache.hits"), delta("server.cache.misses")
	rep.check(hits == 0, "server.cache_hit_ratio is exactly 0 (%v hits, %v misses)", hits, misses)

	// A traced run also replays every item against core.
	if err := checkServed(ctx, rep, s.pred, items, func(k int) *server.SolveResult { return records[k].view.Result }); err != nil {
		return err
	}

	lag, err := percentile(ls.LagsMs, 90)
	if err != nil {
		return err
	}
	if cfg.Trace {
		m.set("gen.lag_p90_ms", lag, len(ls.LagsMs))
		for _, x := range []struct {
			name string
			xs   []float64
		}{{"server.edge_ms", edge}, {"server.queue_wait_ms", queue}, {"server.run_ms", run}} {
			if err := m.pcts(x.name, x.xs); err != nil {
				return err
			}
		}
		m.set("server.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
		m.set("server.coalesced_ratio", ratio(delta("server.jobs.coalesced"), float64(n)), n)
		m.set("server.rejected_share", ratio(delta("server.admission.rejected")+delta("server.http.backpressure"), float64(n)), n)
		m.set("qaoa.arena_reuse_ratio", ratio(delta("server.arena.hits"), delta("server.arena.gets")), int(delta("server.arena.gets")))
		return traceServe(ctx, cfg, rep, m, s, items, edge, queue, run, clientMs)
	}

	m.set("setup_s", median(setupSecs), len(setupSecs))
	m.set("throughput_per_s", ls.Throughput, ls.Attempted-ls.Failed)
	if err := m.latencyMetrics(ls.Timeline); err != nil {
		return err
	}
	m.set("completed_share", float64(ls.Attempted-ls.Failed)/float64(ls.Attempted), ls.Attempted)
	m.set("fev_per_solve", mean(fev), len(fev))
	m.set("ar_mean", mean(ars), len(ars))
	m.set("peak_rss_mb", peakRSSMB(), 1)
	rep.fill(endToEnd, m.v, m.n)
	rep.extra("offered_solves_per_s", "1/s", serveRate, n)
	rep.extra("failed_share", "share", float64(ls.Failed)/float64(ls.Attempted), ls.Attempted)
	rep.extra("gen.lag_p90_ms", "ms", lag, len(ls.LagsMs))
	rep.extra("server.queue_wait_p50_ms", "ms", median(queue), len(queue))
	rep.extra("ml.train_ms", "ms", s.trainMs, 1)
	return nil
}

// traceServe adds the solver layers to a traced serve-cold run: the
// run's first serveTraceItems requests are replayed off the clock
// through the instrumented path (which also re-checks them bit for bit
// against core), and the layer shares combine the server's own split
// of each request (edge and queue wait versus run) with the replay's
// split of the run. Of the edge, the time before the daemon's handler
// started (clientMs) is the client's.
func traceServe(ctx context.Context, cfg runConfig, rep *report, m values, s *serveSetup, items []item, edge, queue, run, clientMs []float64) error {
	items = items[:min(serveTraceItems, len(items))]
	flow := newSpanRecorder()
	st, err := replayItems(ctx, items, nil, s.pred, true, flow)
	if err != nil {
		return err
	}
	rep.check(st.arOK(), "every replayed AR is in (0, 1]")
	if err := solverLayerMetrics(m, st, flow); err != nil {
		return err
	}
	var specs []problem.Spec
	for _, it := range items {
		specs = append(specs, it.Spec)
	}
	if err := problemMetrics(m, specs); err != nil {
		return err
	}
	m.set("ml.train_ms", s.trainMs, 1)
	if err := kernelMetrics(m); err != nil {
		return err
	}
	var sumEdge, sumQueue, sumRun, sumClient float64
	for i := range run {
		sumEdge += edge[i]
		sumQueue += queue[i]
		sumRun += run[i]
		sumClient += clientMs[i]
	}
	total := sumEdge + sumQueue + sumRun
	for _, l := range shareLayers {
		m.set("layer_share."+l, m.v["layer_share."+l]*sumRun/total, len(run))
	}
	m.set("layer_share.server", m.v["layer_share.server"]+(sumEdge-sumClient+sumQueue)/total, len(run))
	m.set("layer_share.client", sumClient/total, len(run))
	rep.fill(perLayer, m.v, m.n)
	return writeSpans(cfg.OutDir, rep, st.spans)
}

// awaitJobs polls every accepted job until it is terminal.
func awaitJobs(ctx context.Context, c *http.Client, base string, records []jobRecord) error {
	deadline := time.Now().Add(90 * time.Second)
	for {
		pending := 0
		for i := range records {
			r := &records[i]
			if r.id == "" || r.view.State.Terminal() {
				continue
			}
			if _, err := getJSON(ctx, c, base+"/v1/jobs/"+r.id, &r.view); err != nil {
				return err
			}
			if !r.view.State.Terminal() {
				pending++
			}
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d jobs still running after 90 s", pending)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}
