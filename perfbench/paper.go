package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

// paper-table1: the paper's Table I as a closed loop. Set-up runs the
// paper's dataset recipe (8-node G(n, 0.5) graphs, depths 1–5,
// multistart L-BFGS-B at tolerance 1e-6) at a reduced graph count,
// fits the GPR predictor on it, and draws held-out graphs from the same
// G(n, 0.5) ensemble. The held-out graphs need no optimal parameters,
// so there can be many of them: per-graph FC varies widely, and a run
// is only steady when it averages over many graphs. The timed part
// solves held-out graphs × the four optimizers × target depths 2–5,
// each cell once naive and once two-level, on `callers` goroutines with
// one arena each, straight through the core API.
const (
	paperTrainGraphs = 24
	paperHeldOut     = 150
	paperStarts      = 10
	paperMaxDepth    = 5
	// paperTraceCells is how many cells the traced run replays: 240
	// solves, 120 of them two-level, enough for p90s of per-solve spans.
	paperTraceCells = 120
)

type paperSetup struct {
	heldOut []*qaoa.Problem
	pred    *core.Predictor
	trainMs float64
}

// paperCell is one Table I cell: a held-out graph at one target depth
// under one optimizer, solved both ways.
type paperCell struct {
	graph int
	naive item
	two   item
}

func paperCells(seed int64, s *paperSetup) []paperCell {
	var cells []paperCell
	for g := range s.heldOut {
		for oi, opt := range optimizerNames {
			for pt := 2; pt <= paperMaxDepth; pt++ {
				mk := func(strategy string, k int) item {
					return item{
						ID:    fmt.Sprintf("g%d-%s-p%d-%s", g, opt, pt, strategy),
						Spec:  s.heldOut[g].Spec,
						Depth: pt, Strategy: strategy, Opt: opt,
						Seed: mixSeed(seed, g, oi, pt, k),
					}
				}
				cells = append(cells, paperCell{graph: g, naive: mk(strategyNaive, 0), two: mk(strategyTwoLevel, 1)})
			}
		}
	}
	// A seeded shuffle makes any prefix of the list a representative
	// sample, so a run cut by the clock mid-pass keeps the mix.
	rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

func setupPaper(ctx context.Context, seed int64) (*paperSetup, error) {
	_, pred, _, trainMs, err := trainPredictor(ctx, core.DataGenConfig{
		NumGraphs: paperTrainGraphs, Nodes: 8, EdgeProb: 0.5, MaxDepth: paperMaxDepth,
		Starts: paperStarts, Tol: 1e-6, Seed: trainSeed, Workers: callers,
	}, 1)
	if err != nil {
		return nil, err
	}
	s := &paperSetup{pred: pred, trainMs: trainMs}
	rng := rand.New(rand.NewSource(seed ^ 0x7e57))
	for g := 0; g < paperHeldOut; g++ {
		pb, err := qaoa.NewProblem(graph.ErdosRenyiConnected(8, 0.5, rng))
		if err != nil {
			return nil, err
		}
		s.heldOut = append(s.heldOut, pb)
	}
	return s, nil
}

type cellResult struct {
	naive, two solveOut
}

func runPaperTable1(ctx context.Context, cfg runConfig, rep *report) error {
	m := newValues()
	s, setupSecs, err := repeatSetup(func() (*paperSetup, error) { return setupPaper(ctx, cfg.Seed) }, func(*paperSetup) {})
	if err != nil {
		return err
	}
	cells := paperCells(cfg.Seed, s)

	// Closed loop: each caller takes the next cell as soon as its last
	// one is done, until the clock runs out. Passes repeat the list;
	// a repeated cell must reproduce its first result bit for bit.
	var next atomic.Int64
	var mu sync.Mutex
	first := make(map[int]cellResult)
	var errs []string
	solves, failed := 0, 0
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Seconds) * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := qaoa.NewArena(0)
			defer arena.Close()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				k := int(next.Add(1)-1) % len(cells)
				cell := cells[k]
				pb := s.heldOut[cell.graph]
				var res cellResult
				var lats, ends []float64
				var cellErr error
				for _, it := range []item{cell.naive, cell.two} {
					t0 := time.Now()
					out, err := solvePlain(ctx, it, pb, s.pred, arena, nil, false)
					if err != nil {
						cellErr = fmt.Errorf("%s: %w", it.ID, err)
						break
					}
					lats = append(lats, ms(time.Since(t0)))
					ends = append(ends, ms(time.Since(start)))
					if it.Strategy == strategyNaive {
						res.naive = out
					} else {
						res.two = out
					}
				}
				mu.Lock()
				solves += 2
				if cellErr != nil {
					failed += 2
					errs = append(errs, cellErr.Error())
				} else {
					for j := range lats {
						rep.Timeline = append(rep.Timeline, [2]float64{ends[j], lats[j]})
					}
					if prev, ok := first[k]; !ok {
						first[k] = res
					} else if e1, e2 := sameBits(res.naive, prev.naive), sameBits(res.two, prev.two); e1 != nil || e2 != nil {
						errs = append(errs, fmt.Sprintf("cell %s repeated with a different result: %v %v", cell.two.ID, e1, e2))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	rep.Attempted, rep.Failed = solves, failed

	// Quality over the distinct cells solved; Table I's rows are
	// (optimizer, depth) pairs.
	var fev, ars []float64
	type row struct{ naive, two []float64 }
	rows := map[string]*row{}
	arOK := true
	for k, r := range first {
		for _, o := range []solveOut{r.naive, r.two} {
			fev = append(fev, float64(o.NFev))
			ars = append(ars, o.AR)
			arOK = arOK && o.AR > 0 && o.AR <= 1
		}
		key := fmt.Sprintf("%s/p%d", cells[k].two.Opt, cells[k].two.Depth)
		if rows[key] == nil {
			rows[key] = &row{}
		}
		rows[key].naive = append(rows[key].naive, float64(r.naive.NFev))
		rows[key].two = append(rows[key].two, float64(r.two.NFev))
	}
	rep.check(len(errs) == 0, "every solve completed and repeated cells reproduced bit for bit (%d problems)", len(errs))
	for i, e := range errs {
		if i < 5 {
			rep.Notes = append(rep.Notes, e)
		}
	}
	rep.check(arOK, "every AR is in (0, 1]")
	rep.check(len(first) > 0, "at least one cell completed (%d of %d distinct cells)", len(first), len(cells))

	// Re-solve a fixed sample off the clock with no arena: the timed
	// results must reproduce bit for bit.
	mismatch := 0
	checked := 0
	for k := 0; k < len(cells) && checked < 4; k++ {
		r, ok := first[k]
		if !ok {
			continue
		}
		checked++
		pb := s.heldOut[cells[k].graph]
		for _, pair := range []struct {
			it  item
			got solveOut
		}{{cells[k].naive, r.naive}, {cells[k].two, r.two}} {
			want, err := solvePlain(ctx, pair.it, pb, s.pred, nil, nil, false)
			if err != nil || sameBits(pair.got, want) != nil {
				mismatch++
			}
		}
	}
	rep.check(mismatch == 0 && checked > 0, "%d sampled cells re-solved through core off the clock match bit for bit", checked)
	if cfg.Trace {
		return tracePaper(ctx, cfg, rep, m, s, cells)
	}

	m.set("setup_s", median(setupSecs), len(setupSecs))

	m.set("throughput_per_s", float64(solves-failed)/elapsed, solves-failed)
	if err := m.latencyMetrics(rep.Timeline); err != nil {
		return err
	}
	m.set("completed_share", float64(solves-failed)/float64(solves), solves)
	m.set("fev_per_solve", mean(fev), len(fev))
	m.set("ar_mean", mean(ars), len(ars))
	m.set("peak_rss_mb", peakRSSMB(), 1)
	rep.fill(endToEnd, m.v, m.n)

	var redSum float64
	for _, r := range rows {
		redSum += 100 * (1 - mean(r.two)/mean(r.naive))
	}
	rep.extra("fc_reduction_pct", "%", redSum/float64(len(rows)), len(rows))
	for _, o := range optimizerNames {
		var nv, tw []float64
		for k, r := range first {
			if cells[k].two.Opt == o {
				nv = append(nv, float64(r.naive.NFev))
				tw = append(tw, float64(r.two.NFev))
			}
		}
		if len(nv) > 0 {
			rep.extra("fc_reduction_pct."+o, "%", 100*(1-mean(tw)/mean(nv)), len(nv))
		}
	}
	if lat := latencies(rep.Timeline); len(lat) >= minSamples(99) {
		p99, _ := percentile(lat, 99)
		rep.extra("latency_p99_ms", "ms", p99, len(lat))
	}
	rep.extra("failed_share", "share", float64(failed)/float64(solves), solves)
	rep.extra("distinct_cells", "count", float64(len(first)), len(cells))
	rep.extra("ml.train_ms", "ms", s.trainMs, 1)
	return nil
}

// tracePaper finishes a traced run: after the timed closed loop it
// replays the first cells of the shuffled list through the instrumented
// path and times the kernels at every width.
func tracePaper(ctx context.Context, cfg runConfig, rep *report, m values, s *paperSetup, cells []paperCell) error {
	n := paperTraceCells
	if n > len(cells) {
		n = len(cells)
	}
	var items []item
	var pbs []*qaoa.Problem
	var specs []problem.Spec
	for _, c := range cells[:n] {
		pb := s.heldOut[c.graph]
		items = append(items, c.naive, c.two)
		pbs = append(pbs, pb, pb)
		specs = append(specs, pb.Spec)
	}
	flow := newSpanRecorder()
	st, err := replayItems(ctx, items, pbs, s.pred, false, flow)
	if err != nil {
		return err
	}
	rep.check(true, "%d replayed solves are bit-identical to core.NaiveRunArena / core.TwoLevelArena", len(items))
	rep.check(st.arOK(), "every AR is in (0, 1]")
	if err := solverLayerMetrics(m, st, flow); err != nil {
		return err
	}
	if err := problemMetrics(m, specs); err != nil {
		return err
	}
	m.set("ml.train_ms", s.trainMs, 1)
	if err := kernelMetrics(m); err != nil {
		return err
	}
	// The timed workload runs on one arena per caller; its reuse ratio
	// is the replay arena's.
	m.set("qaoa.arena_reuse_ratio", st.arenaReuse(), 1)
	rep.fill(perLayer, m.v, m.n)
	return writeSpans(cfg.OutDir, rep, st.spans)
}
