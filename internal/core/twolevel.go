package core

import (
	"context"
	"fmt"
	"math/rand"

	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/telemetry"
)

// RunResult is the outcome of one QAOA optimization run (one random or
// predicted initialization followed to convergence).
type RunResult struct {
	Params qaoa.Params
	AR     float64
	NFev   int // QC calls for this run
}

// Every flow below is context-first with a nil-able arena and a
// nil-able recorder: ctx threads into each optimizer run, so a cancel
// or deadline takes effect within one optimizer step; the arena (nil
// allocates fresh) only changes where the evaluation workspaces' 2^n
// state buffers come from, never what the kernels compute; rec (nil is
// telemetry.Nop) receives the flow spans and optimizer traces. On
// cancellation a flow returns the stages completed so far, the last
// one holding its optimizer's incumbent, together with ctx.Err().

// runLevel optimizes the depth-p instance from x0 and returns the
// canonicalized optimum with its approximation ratio and QC-call cost.
// cancelled reports that ctx stopped the optimizer, in which case the
// result holds the incumbent.
func runLevel(ctx context.Context, arena *qaoa.Arena, pb *qaoa.Problem, p int, x0 []float64, opt optimize.Optimizer, rec telemetry.Recorder) (res RunResult, cancelled bool) {
	ev := qaoa.NewEvaluatorArena(pb, p, arena)
	defer ev.Release()
	be := qaoa.NewBatchEvaluatorArena(pb, p, 0, arena)
	defer be.Release()
	r := optimize.Run(ctx, optimize.Problem{F: ev.NegExpectation, Batch: be.EvalBatch, Grad: ev.NegGrad, X0: x0, Bounds: ParamBounds(p)},
		optimize.Options{Optimizer: opt, Recorder: rec})
	// Canonical form keeps downstream feature extraction consistent
	// with the (canonicalized) training dataset.
	params := pb.Canonicalize(qaoa.FromVector(r.X))
	return RunResult{Params: params, AR: ev.ApproximationRatio(params), NFev: r.NFev}, r.Status == optimize.Cancelled
}

// NaiveRunArena solves the depth-pt instance from one random
// initialization (the paper's baseline QCR flow, Fig. 1(a)).
func NaiveRunArena(ctx context.Context, arena *qaoa.Arena, pb *qaoa.Problem, pt int, opt optimize.Optimizer, rng *rand.Rand, rec telemetry.Recorder) (RunResult, error) {
	r, cancelled := runLevel(ctx, arena, pb, pt, ParamBounds(pt).Random(rng), opt, rec)
	if cancelled {
		return r, ctx.Err()
	}
	return r, nil
}

// TwoLevelResult is the outcome of the paper's Fig. 4 flow: the depth-1
// optimization cost plus the ML-initialized target-depth cost.
type TwoLevelResult struct {
	Level1    RunResult   // depth-1 optimization from a random start
	Predicted qaoa.Params // ML-predicted target-depth initialization
	Level2    RunResult   // target-depth optimization from Predicted
	TotalNFev int         // Level1.NFev + Level2.NFev (the paper's FC)
}

// AR returns the final approximation ratio (of the level-2 solution).
func (t TwoLevelResult) AR() float64 { return t.Level2.AR }

// TwoLevelArena runs the two-level flow of Fig. 4 on one problem:
//
//	level 1: optimize the p = 1 instance from a random initialization;
//	level 2: predict the 2·pt target-depth parameters from
//	         (γ1OPT(p=1), β1OPT(p=1), pt) and finish with the local
//	         optimizer from that initialization.
//
// Each stage runs under a flow span ("twolevel.level1",
// "twolevel.predict", "twolevel.level2"). TotalNFev counts the QC calls
// of both levels, as the paper does, including those spent before a
// cancellation. Both levels share the arena: the depth-1 and depth-pt
// workspaces are the same register width, so level 2 reuses level 1's
// buffers.
func TwoLevelArena(ctx context.Context, arena *qaoa.Arena, pb *qaoa.Problem, pt int, opt optimize.Optimizer, pred *Predictor, rng *rand.Rand, rec telemetry.Recorder) (TwoLevelResult, error) {
	if pt < 2 {
		return TwoLevelResult{}, fmt.Errorf("core: two-level target depth %d < 2", pt)
	}
	r := telemetry.OrNop(rec)

	end := r.Span("twolevel.level1")
	level1, err := NaiveRunArena(ctx, arena, pb, 1, opt, rng, r)
	end()
	out := TwoLevelResult{Level1: level1, TotalNFev: level1.NFev}
	if err != nil {
		return out, err
	}

	end = r.Span("twolevel.predict")
	init, err := pred.Predict(FeaturesFromParams(level1.Params, pt))
	end()
	if err != nil {
		return out, err
	}

	end = r.Span("twolevel.level2")
	level2, cancelled := runLevel(ctx, arena, pb, pt, init.Vector(), opt, r)
	end()
	out.Predicted, out.Level2 = init, level2
	out.TotalNFev += level2.NFev
	if cancelled {
		return out, ctx.Err()
	}
	return out, nil
}

// HierarchicalResult is the outcome of the hierarchical flow: depth-1,
// then an ML-initialized depth-2 refinement, then the ML-initialized
// target depth using both optima as features.
type HierarchicalResult struct {
	Level1    RunResult
	Level2    RunResult   // depth-2 refinement (ML-initialized)
	Predicted qaoa.Params // target-depth initialization
	Level3    RunResult   // target-depth optimization
	TotalNFev int
}

// AR returns the final approximation ratio.
func (h HierarchicalResult) AR() float64 { return h.Level3.AR }

// Hierarchical runs the Sec. I(d) hierarchical variant for pt ≥ 3: its
// depth-1 and depth-2 stages are the two-level flow at target depth 2
// (the intermediate instance is itself ML-initialized by pred), and
// both optima then feed the hierarchical predictor of the target depth.
func Hierarchical(ctx context.Context, arena *qaoa.Arena, pb *qaoa.Problem, pt int, opt optimize.Optimizer, pred *Predictor, hpred *HierPredictor, rng *rand.Rand, rec telemetry.Recorder) (HierarchicalResult, error) {
	if pt < 3 {
		return HierarchicalResult{}, fmt.Errorf("core: hierarchical target depth %d < 3", pt)
	}
	two, err := TwoLevelArena(ctx, arena, pb, 2, opt, pred, rng, rec)
	out := HierarchicalResult{Level1: two.Level1, Level2: two.Level2, TotalNFev: two.TotalNFev}
	if err != nil {
		return out, err
	}
	initT, err := hpred.Predict(HierFeaturesFromParams(two.Level1.Params, two.Level2.Params, pt))
	if err != nil {
		return out, err
	}
	level3, cancelled := runLevel(ctx, arena, pb, pt, initT.Vector(), opt, rec)
	out.Predicted, out.Level3 = initT, level3
	out.TotalNFev += level3.NFev
	if cancelled {
		return out, ctx.Err()
	}
	return out, nil
}
