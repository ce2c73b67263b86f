package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/telemetry"
)

// cancelAfterIters is a Recorder that cancels a context after seeing a
// fixed number of optimizer iteration events, and counts how many more
// arrive afterwards — a direct probe of "cancellation takes effect
// within one optimizer step".
type cancelAfterIters struct {
	telemetry.Nop
	cancel  context.CancelFunc
	trigger int64
	seen    atomic.Int64
	late    atomic.Int64
}

func (c *cancelAfterIters) Iteration(telemetry.IterEvent) {
	n := c.seen.Add(1)
	if n == c.trigger {
		c.cancel()
	} else if n > c.trigger {
		c.late.Add(1)
	}
}

// Cancelling mid-GenerateCtx stops within one optimizer step and still
// returns the fully completed records as a usable partial dataset.
func TestGenerateCtxCancelReturnsPartialData(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &cancelAfterIters{cancel: cancel, trigger: 40}
	cfg := DataGenConfig{
		NumGraphs: 8, Nodes: 6, EdgeProb: 0.5, MaxDepth: 3,
		Starts: 4, Seed: 7, Workers: 1, Recorder: rec,
	}
	data, err := GenerateCtx(ctx, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Promptness: after the cancelling event, the in-flight run exits at
	// its next loop top without emitting, and later runs never start.
	if late := rec.late.Load(); late > 1 {
		t.Errorf("%d iteration events after cancellation", late)
	}
	// Partial data: fewer records than the full 8×3 sweep, and every
	// record that was kept is complete and in-domain.
	total := 0
	for g, recs := range data.Records {
		for d, r := range recs {
			if r.Depth != d+1 || r.GraphID != g || r.NFev <= 0 {
				t.Errorf("partial record malformed: %+v", r)
			}
			if err := r.Params.Validate(true); err != nil {
				t.Errorf("partial record out of domain: %v", err)
			}
			total++
		}
	}
	if total >= cfg.NumGraphs*cfg.MaxDepth {
		t.Errorf("cancelled sweep completed all %d records", total)
	}
}

// A completed GenerateCtx run reports nil error and full telemetry.
func TestGenerateCtxTelemetry(t *testing.T) {
	mem := telemetry.NewMemory()
	cfg := DataGenConfig{
		NumGraphs: 3, Nodes: 5, EdgeProb: 0.6, MaxDepth: 2,
		Starts: 2, Seed: 11, Recorder: mem,
	}
	data, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.CounterValue("datagen.records"); got != 6 {
		t.Errorf("datagen.records = %d, want 6", got)
	}
	if got := mem.CounterValue("datagen.graphs_done"); got != 3 {
		t.Errorf("datagen.graphs_done = %d, want 3", got)
	}
	for d := 1; d <= 2; d++ {
		name := map[int]string{1: "datagen.fc.p1", 2: "datagen.fc.p2"}[d]
		h, ok := mem.HistogramSnapshot(name)
		if !ok || h.Count != 3 {
			t.Errorf("%s histogram: ok=%v count=%d", name, ok, h.Count)
		}
		wantSum := 0.0
		for g := 0; g < 3; g++ {
			wantSum += float64(data.Record(g, d).NFev)
		}
		if h.Sum != wantSum {
			t.Errorf("%s sum = %v, want %v", name, h.Sum, wantSum)
		}
	}
	if snap := mem.Snapshot(); snap.Spans["datagen.generate"].Count != 1 {
		t.Error("datagen.generate span not recorded")
	}
}

// GenerateCtx with a recorder stays bit-identical to plain Generate:
// observability must not perturb the numerics.
func TestGenerateCtxMatchesGenerate(t *testing.T) {
	cfg := DataGenConfig{NumGraphs: 4, Nodes: 5, EdgeProb: 0.6, MaxDepth: 2, Starts: 2, Seed: 3}
	plain, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = telemetry.NewMemory()
	traced, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for g := range plain.Records {
		for d := range plain.Records[g] {
			a, b := plain.Records[g][d], traced.Records[g][d]
			if a.NegF != b.NegF || a.NFev != b.NFev {
				t.Fatalf("recorder perturbed generation at graph %d depth %d", g, d+1)
			}
		}
	}
}

func TestNaiveRunCtxCancelled(t *testing.T) {
	data := testData(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := NaiveRunArena(ctx, nil, data.Problems[0], 2, &optimize.LBFGSB{}, rand.New(rand.NewSource(1)), nil)
	if err == nil {
		t.Fatal("cancelled NaiveRunArena returned nil error")
	}
	if r.NFev > 1 {
		t.Errorf("pre-cancelled run spent %d evaluations", r.NFev)
	}
	if r.Params.Depth() != 2 {
		t.Errorf("partial result lost its shape: %+v", r)
	}
}

func TestTwoLevelCtxSpansAndCancellation(t *testing.T) {
	data := testData(t)
	train, test := data.SplitIndices(0.5, 1)
	pred := NewPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		t.Fatal(err)
	}
	opt := &optimize.LBFGSB{Tol: 1e-6}
	pb := data.Problems[test[0]]

	// Full run: all three flow spans recorded, result matches the
	// untraced run.
	mem := telemetry.NewMemory()
	res, err := TwoLevelArena(context.Background(), nil, pb, 3, opt, pred, rand.New(rand.NewSource(3)), mem)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TwoLevelArena(context.Background(), nil, pb, 3, opt, pred, rand.New(rand.NewSource(3)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalNFev != want.TotalNFev || res.AR() != want.AR() {
		t.Errorf("traced TwoLevelArena diverged from untraced: %d/%v vs %d/%v",
			res.TotalNFev, res.AR(), want.TotalNFev, want.AR())
	}
	snap := mem.Snapshot()
	for _, span := range []string{"twolevel.level1", "twolevel.predict", "twolevel.level2"} {
		if snap.Spans[span].Count != 1 {
			t.Errorf("span %s not recorded: %+v", span, snap.Spans[span])
		}
	}

	// Pre-cancelled: the flow stops after the level-1 probe with the
	// partial result and a non-nil error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial, err := TwoLevelArena(ctx, nil, pb, 3, opt, pred, rand.New(rand.NewSource(3)), nil)
	if err == nil {
		t.Fatal("cancelled TwoLevelArena returned nil error")
	}
	if partial.TotalNFev > 1 || partial.Level2.NFev != 0 {
		t.Errorf("cancelled flow kept optimizing: %+v", partial)
	}
}

// trainedPredictors trains the two-level and hierarchical predictors
// on half of the test dataset and returns a held-out problem.
func trainedPredictors(t *testing.T) (*qaoa.Problem, *Predictor, *HierPredictor) {
	t.Helper()
	data := testData(t)
	train, test := data.SplitIndices(0.5, 1)
	pred, hpred := NewPredictor(nil), NewHierPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		t.Fatal(err)
	}
	if err := hpred.Train(data, train); err != nil {
		t.Fatal(err)
	}
	return data.Problems[test[0]], pred, hpred
}

// Hierarchical's depth-1 and depth-2 stages are the two-level flow at
// target depth 2: same rng draw, same predicted init, same bits.
func TestHierarchicalStagesMatchTwoLevel(t *testing.T) {
	pb, pred, hpred := trainedPredictors(t)
	opt := &optimize.LBFGSB{Tol: 1e-6}
	hier, err := Hierarchical(context.Background(), nil, pb, 3, opt, pred, hpred, rand.New(rand.NewSource(5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	two, err := TwoLevelArena(context.Background(), nil, pb, 2, opt, pred, rand.New(rand.NewSource(5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hier.Level1, two.Level1) || !reflect.DeepEqual(hier.Level2, two.Level2) {
		t.Errorf("hierarchical stages diverge from two-level at pt=2:\nhier %+v %+v\ntwo  %+v %+v",
			hier.Level1, hier.Level2, two.Level1, two.Level2)
	}
}

func TestHierarchicalCancelled(t *testing.T) {
	pb, pred, hpred := trainedPredictors(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Hierarchical(ctx, nil, pb, 3, &optimize.LBFGSB{}, pred, hpred, rand.New(rand.NewSource(5)), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Hierarchical returned %v, want %v", err, context.Canceled)
	}
	if res.TotalNFev > 1 || res.Level2.NFev != 0 || res.Level3.NFev != 0 {
		t.Errorf("cancelled flow kept optimizing: %+v", res)
	}
}

// The acceptance pin for the telemetry layer's overhead: with the
// no-op Recorder in the loop, the QAOA evaluation hot path — one
// NegExpectation call plus the per-iteration record/count/observe/span
// calls Run makes — stays at 0 allocs/op.
func TestNopRecorderZeroAllocEvalPath(t *testing.T) {
	gr := graph.ErdosRenyiConnected(8, 0.5, rand.New(rand.NewSource(1)))
	pb, err := qaoa.NewProblem(gr)
	if err != nil {
		t.Fatal(err)
	}
	ev := qaoa.NewEvaluator(pb, 3)
	x := ParamBounds(3).Random(rand.New(rand.NewSource(2)))
	rec := telemetry.OrNop(nil)
	iter := 0
	allocs := testing.AllocsPerRun(50, func() {
		f := ev.NegExpectation(x)
		rec.Iteration(telemetry.IterEvent{Source: "L-BFGS-B", Iter: iter, F: f, NFev: iter})
		rec.Count("optimize.fev_total", 1)
		rec.Observe("optimize.nfev", f)
		rec.Span("twolevel.level1")()
		iter++
	})
	if allocs != 0 {
		t.Errorf("eval hot path with Nop recorder allocates %v/op", allocs)
	}
}
