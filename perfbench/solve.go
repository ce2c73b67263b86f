package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"qaoaml/internal/core"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/telemetry"
)

const (
	strategyNaive    = "naive"
	strategyTwoLevel = "two-level"
)

// optimizerNames are the paper's four local optimizers, in Table I
// order, by their API names.
var optimizerNames = []string{"lbfgsb", "neldermead", "slsqp", "cobyla"}

// optimizerFor configures an optimizer the way the daemon does: the
// paper's tolerance of 1e-6.
func optimizerFor(name string) optimize.Optimizer {
	switch name {
	case "lbfgsb":
		return &optimize.LBFGSB{Tol: 1e-6}
	case "neldermead":
		return &optimize.NelderMead{Tol: 1e-6}
	case "slsqp":
		return &optimize.SLSQP{Tol: 1e-6}
	case "cobyla":
		return &optimize.COBYLA{Tol: 1e-6}
	}
	panic("perfbench: unknown optimizer " + name)
}

// item is one solve a workload asks for. Seed seeds the run RNG, as
// the daemon's request seed does.
type item struct {
	ID       string
	Spec     problem.Spec
	Depth    int
	Strategy string
	Opt      string
	Seed     int64
}

// solveOut is everything a solve returns that must reproduce bit for
// bit: the flow's result and, when read out, the most probable
// assignment.
type solveOut struct {
	AR, Level1AR float64
	Gamma, Beta  []float64
	NFev         int
	L1Fev, L2Fev int
	Predicted    []float64
	Objective    float64
	Assign       uint64
	HasReadout   bool
	TwoLevel     bool
}

// sameBits reports whether two solve outputs are bit-identical.
func sameBits(a, b solveOut) error {
	eqf := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	eqv := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !eqf(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	switch {
	case !eqf(a.AR, b.AR):
		return fmt.Errorf("AR %v != %v", a.AR, b.AR)
	case !eqf(a.Level1AR, b.Level1AR):
		return fmt.Errorf("level-1 AR %v != %v", a.Level1AR, b.Level1AR)
	case !eqv(a.Gamma, b.Gamma) || !eqv(a.Beta, b.Beta):
		return fmt.Errorf("parameters differ: %v/%v vs %v/%v", a.Gamma, a.Beta, b.Gamma, b.Beta)
	case a.NFev != b.NFev || a.L1Fev != b.L1Fev || a.L2Fev != b.L2Fev:
		return fmt.Errorf("FC %d (%d+%d) != %d (%d+%d)", a.NFev, a.L1Fev, a.L2Fev, b.NFev, b.L1Fev, b.L2Fev)
	case !eqv(a.Predicted, b.Predicted):
		return fmt.Errorf("predicted start %v != %v", a.Predicted, b.Predicted)
	case a.HasReadout != b.HasReadout || !eqf(a.Objective, b.Objective) || a.Assign != b.Assign:
		return fmt.Errorf("readout %v/%b != %v/%b", a.Objective, a.Assign, b.Objective, b.Assign)
	}
	return nil
}

// solvePlain runs one item the way the program does, with no
// instrumentation: qaoa.New when pb is nil (the daemon builds per
// request; paper-table1 reuses the dataset's problems), the core flow
// on the arena, and, when readout is set, the daemon's most-probable
// assignment readout. rec receives core's own flow spans.
func solvePlain(ctx context.Context, it item, pb *qaoa.Problem, pred *core.Predictor, arena *qaoa.Arena, rec telemetry.Recorder, readout bool) (solveOut, error) {
	var out solveOut
	if pb == nil {
		var err error
		if pb, err = qaoa.New(it.Spec); err != nil {
			return out, err
		}
	}
	rng := rand.New(rand.NewSource(it.Seed))
	opt := optimizerFor(it.Opt)
	switch it.Strategy {
	case strategyNaive:
		r, err := core.NaiveRunArena(ctx, arena, pb, it.Depth, opt, rng, rec)
		if err != nil {
			return out, err
		}
		out.AR, out.Gamma, out.Beta, out.NFev = r.AR, r.Params.Gamma, r.Params.Beta, r.NFev
	case strategyTwoLevel:
		r, err := core.TwoLevelArena(ctx, arena, pb, it.Depth, opt, pred, rng, rec)
		if err != nil {
			return out, err
		}
		out.TwoLevel = true
		out.AR, out.Level1AR = r.AR(), r.Level1.AR
		out.Gamma, out.Beta = r.Level2.Params.Gamma, r.Level2.Params.Beta
		out.NFev, out.L1Fev, out.L2Fev = r.TotalNFev, r.Level1.NFev, r.Level2.NFev
		out.Predicted = r.Predicted.Vector()
	default:
		return out, fmt.Errorf("unknown strategy %q", it.Strategy)
	}
	if readout {
		rd := qaoa.NewEvaluatorArena(pb, len(out.Gamma), arena)
		out.Objective, out.Assign = rd.BestSampled(qaoa.Params{Gamma: out.Gamma, Beta: out.Beta})
		rd.Release()
		out.HasReadout = true
	}
	return out, nil
}

// replaySolve is solvePlain with every call into a layer timed from
// outside: it makes the same calls core makes, in the same order, with
// the optimizer's objective, gradient and batch callbacks wrapped in
// timers. The result must be bit-identical to solvePlain's; the caller
// checks that.
func replaySolve(ctx context.Context, tr *tracer, it item, pb *qaoa.Problem, pred *core.Predictor, arena *qaoa.Arena, readout bool) (solveOut, error) {
	var out solveOut
	req := it.ID
	root := tr.begin(rootSpan, req, -1)
	defer tr.end(root)
	if pb == nil {
		b := tr.begin("problem.build", req, root)
		var err error
		pb, err = qaoa.New(it.Spec)
		tr.end(b)
		if err != nil {
			return out, err
		}
	}
	rng := rand.New(rand.NewSource(it.Seed))
	opt := optimizerFor(it.Opt)
	switch it.Strategy {
	case strategyNaive:
		c := tr.begin("core.naive", req, root)
		bounds := core.ParamBounds(it.Depth)
		r := replayRun(ctx, tr, req, c, pb, it.Depth, opt, arena, func() []float64 { return bounds.Random(rng) })
		tr.end(c)
		out.AR, out.Gamma, out.Beta, out.NFev = r.AR, r.Params.Gamma, r.Params.Beta, r.NFev
	case strategyTwoLevel:
		c := tr.begin("core.twolevel", req, root)
		l1 := tr.begin("core.level1", req, c)
		b1 := core.ParamBounds(1)
		level1 := replayRun(ctx, tr, req, l1, pb, 1, opt, arena, func() []float64 { return b1.Random(rng) })
		tr.end(l1)
		p := tr.begin("ml.predict", req, c)
		init, err := pred.Predict(core.FeaturesFromParams(level1.Params, it.Depth))
		tr.end(p)
		if err != nil {
			tr.end(c)
			return out, err
		}
		l2 := tr.begin("core.level2", req, c)
		level2 := replayRun(ctx, tr, req, l2, pb, it.Depth, opt, arena, init.Vector)
		tr.end(l2)
		tr.end(c)
		out.TwoLevel = true
		out.AR, out.Level1AR = level2.AR, level1.AR
		out.Gamma, out.Beta = level2.Params.Gamma, level2.Params.Beta
		out.NFev, out.L1Fev, out.L2Fev = level1.NFev+level2.NFev, level1.NFev, level2.NFev
		out.Predicted = init.Vector()
	default:
		return out, fmt.Errorf("unknown strategy %q", it.Strategy)
	}
	if readout {
		s := tr.begin("server.readout", req, root)
		a := tr.begin("qaoa.arena", req, s)
		rd := qaoa.NewEvaluatorArena(pb, len(out.Gamma), arena)
		tr.end(a)
		q := tr.begin("qaoa.bestsampled", req, s)
		out.Objective, out.Assign = rd.BestSampled(qaoa.Params{Gamma: out.Gamma, Beta: out.Beta})
		tr.end(q)
		a = tr.begin("qaoa.arena", req, s)
		rd.Release()
		tr.end(a)
		tr.end(s)
		out.HasReadout = true
	}
	return out, nil
}

// replayRun mirrors core.NaiveRunArena from the start point on: build
// the evaluators, run the optimizer, canonicalize and read the AR.
// start draws or supplies the start point at the moment core does.
func replayRun(ctx context.Context, tr *tracer, req string, parent int, pb *qaoa.Problem, depth int, opt optimize.Optimizer, arena *qaoa.Arena, start func() []float64) core.RunResult {
	a := tr.begin("qaoa.arena", req, parent)
	ev := qaoa.NewEvaluatorArena(pb, depth, arena)
	tr.end(a)
	bounds := core.ParamBounds(depth)
	a = tr.begin("qaoa.arena", req, parent)
	be := qaoa.NewBatchEvaluatorArena(pb, depth, 0, arena)
	tr.end(a)

	o := tr.begin("optimize.run", req, parent)
	f := func(x []float64) float64 {
		s := tr.begin("qaoa.expect", req, o)
		v := ev.NegExpectation(x)
		tr.end(s)
		return v
	}
	grad := func(x, g []float64) {
		s := tr.begin("qaoa.grad", req, o)
		ev.NegGrad(x, g)
		tr.end(s)
	}
	batch := func(pts [][]float64) []float64 {
		s := tr.begin("qaoa.batch", req, o)
		v := be.EvalBatch(pts)
		tr.end(s)
		tr.spans[s].points = len(pts)
		return v
	}
	r := optimize.Run(ctx, optimize.Problem{F: f, Batch: batch, Grad: grad, X0: start(), Bounds: bounds},
		optimize.Options{Optimizer: opt})
	tr.end(o)
	tr.spans[o].iters = r.Iters
	tr.spans[o].ngev = r.NGev

	rd := tr.begin("core.readout", req, parent)
	c := tr.begin("qaoa.canonicalize", req, rd)
	params := pb.Canonicalize(qaoa.FromVector(r.X))
	tr.end(c)
	q := tr.begin("qaoa.ratio", req, rd)
	ar := ev.ApproximationRatio(params)
	tr.end(q)
	tr.end(rd)

	a = tr.begin("qaoa.arena", req, parent)
	be.Release()
	ev.Release()
	tr.end(a)
	return core.RunResult{Params: params, AR: ar, NFev: r.NFev}
}

// assignBits renders an assignment as the daemon does: character i is
// variable i, auxiliary qubits masked off.
func assignBits(z uint64, vars int) string {
	b := make([]byte, vars)
	for i := 0; i < vars; i++ {
		b[i] = byte('0' + (z>>uint(i))&1)
	}
	return string(b)
}

// decisionVars is the number of decision variables the daemon reads
// out for a problem.
func decisionVars(pb *qaoa.Problem) int {
	if pb.Inst != nil {
		return pb.Inst.Vars
	}
	return pb.NumQubits()
}
