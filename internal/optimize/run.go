package optimize

import (
	"context"
	"time"

	"qaoaml/internal/telemetry"
)

// GradFunc computes the analytic gradient ∇f(x) into grad
// (len(grad) == len(x)). It must not retain either slice.
type GradFunc func(x, grad []float64)

// ValueGradFunc computes f(x) and ∇f(x) in one pass, filling grad and
// returning the value. The value must equal what F(x) would return.
type ValueGradFunc func(x, grad []float64) float64

// Problem bundles everything that defines one minimization: the
// objective, an optional batch fast path for independent probe points,
// optional analytic gradients, the start point and the box bounds.
type Problem struct {
	F      Func      // objective (required)
	Batch  BatchFunc // optional batch evaluator for FD probe stencils
	X0     []float64 // start point (clipped into Bounds)
	Bounds *Bounds   // box constraints (required)

	// Grad, when non-nil, supplies analytic gradients. The gradient-based
	// optimizers (L-BFGS-B, SLSQP) then skip finite differences entirely:
	// gradients cost zero function evaluations and are counted in
	// Result.NGev instead. Optimizers that do not use gradients ignore it.
	Grad GradFunc
	// ValueGrad is the fused alternative to Grad (one pass for f and ∇f).
	// When both are set, Grad wins; when only ValueGrad is set the
	// optimizers use it as a gradient source (the fused value is ignored —
	// every point a gradient is requested at has already been evaluated by
	// the line search, so NFev accounting is unchanged).
	ValueGrad ValueGradFunc
}

// Options carries the cross-cutting run controls. The zero value is
// valid: L-BFGS-B, no recording, no callback, optimizer-default
// evaluation budget.
type Options struct {
	// Optimizer selects the algorithm (default &LBFGSB{}). The value is
	// read-only during the run, so one Optimizer may serve concurrent
	// Runs.
	Optimizer Optimizer
	// Recorder receives per-iteration traces and per-run FC/latency
	// observations (default telemetry.Nop). It is shared across
	// goroutines when Runs execute concurrently, so implementations
	// must be thread-safe (telemetry.Memory is).
	Recorder telemetry.Recorder
	// Callback, when non-nil, is invoked with every iteration event;
	// returning true stops the run with Status == Cancelled.
	Callback func(telemetry.IterEvent) (stop bool)
	// MaxNFev, when positive, caps the function-evaluation budget below
	// the optimizer's own default/ configured cap.
	MaxNFev int
}

// Run is the context-first entry point every optimizer run goes
// through: Minimize and MinimizeBatch are one-line wrappers around it.
// The context is checked once per outer iteration, so cancellation and
// deadlines take effect within one optimizer step and the returned
// Result carries the best point found so far with Status == Cancelled.
func Run(ctx context.Context, p Problem, opts Options) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	opt := opts.Optimizer
	if opt == nil {
		opt = &LBFGSB{}
	}
	rec := telemetry.OrNop(opts.Recorder)
	if err := ctx.Err(); err != nil {
		// Cancelled before the run: report the clipped start as the
		// incumbent (one evaluation, so F is consistent with X).
		x := prepareStart(p.X0, p.Bounds)
		return Result{X: x, F: p.F(x), NFev: 1, Status: Cancelled,
			Message: "context cancelled before start: " + err.Error()}
	}
	env := &runEnv{
		f: p.F, bf: p.Batch, agrad: analyticGrad(p), x0: p.X0, bounds: p.Bounds,
		ctx: ctx, rec: rec, cb: opts.Callback, maxFev: opts.MaxNFev,
		name: opt.Name(),
	}
	start := time.Now()
	var res Result
	if r, ok := opt.(runner); ok {
		res = r.run(env)
	} else {
		// External Optimizer implementations without the internal run
		// hook: no mid-run cancellation, but batch dispatch and status
		// mapping still apply.
		if bm, ok := opt.(BatchMinimizer); ok && p.Batch != nil {
			res = bm.MinimizeBatch(p.F, p.Batch, p.X0, p.Bounds)
		} else {
			res = opt.Minimize(p.F, p.X0, p.Bounds)
		}
		if res.Converged {
			res.Status = Converged
		} else {
			res.Status = MaxIter
		}
	}
	rec.Count("optimize.runs", 1)
	rec.Count("optimize.fev_total", int64(res.NFev))
	rec.Observe("optimize.nfev", float64(res.NFev))
	if res.NGev > 0 {
		rec.Count("optimize.gev_total", int64(res.NGev))
		rec.Observe("optimize.ngev", float64(res.NGev))
	}
	rec.Observe("optimize.run_ms", float64(time.Since(start).Nanoseconds())/1e6)
	return res
}

// analyticGrad folds the Problem's two gradient fields into one GradFunc
// (Grad preferred, then ValueGrad with the value discarded), or nil when
// the problem has no analytic gradient and finite differences apply.
func analyticGrad(p Problem) GradFunc {
	switch {
	case p.Grad != nil:
		return p.Grad
	case p.ValueGrad != nil:
		return func(x, grad []float64) { p.ValueGrad(x, grad) }
	}
	return nil
}

// runner is the internal per-algorithm hook Run dispatches to; all
// five optimizers in this package implement it.
type runner interface {
	run(env *runEnv) Result
}

// runEnv carries one run's inputs and cross-cutting concerns (context,
// recorder, callback, budget cap) into the optimizer inner loops.
type runEnv struct {
	f      Func
	bf     BatchFunc
	agrad  GradFunc // non-nil: analytic gradient replaces finite differences
	x0     []float64
	bounds *Bounds
	ctx    context.Context
	rec    telemetry.Recorder
	cb     func(telemetry.IterEvent) bool
	maxFev int    // > 0 caps the optimizer's evaluation budget
	name   string // Source for emitted events
}

// capFev returns the effective evaluation budget given the optimizer's
// own cap.
func (e *runEnv) capFev(optCap int) int {
	if e.maxFev > 0 && e.maxFev < optCap {
		return e.maxFev
	}
	return optCap
}

// stop reports whether the context is done; when it is, *msg is set to
// the termination reason.
func (e *runEnv) stop(msg *string) bool {
	if err := e.ctx.Err(); err != nil {
		*msg = "context cancelled: " + err.Error()
		return true
	}
	return false
}

// emit publishes the state entering iteration iter and reports whether
// the callback requests a stop.
func (e *runEnv) emit(iter int, f, gnorm, step float64, nfev int) bool {
	ev := telemetry.IterEvent{Source: e.name, Iter: iter, F: f, GNorm: gnorm, Step: step, NFev: nfev}
	e.rec.Iteration(ev)
	return e.cb != nil && e.cb(ev)
}

// statusOf folds the two termination booleans into a Status.
func statusOf(converged, cancelled bool) Status {
	switch {
	case cancelled:
		return Cancelled
	case converged:
		return Converged
	default:
		return MaxIter
	}
}

const callbackStopMsg = "stopped by callback"
