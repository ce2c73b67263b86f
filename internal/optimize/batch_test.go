package optimize

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// resultsEqual compares two Results for exact (bit-for-bit) equality.
func resultsEqual(a, b Result) bool {
	return reflect.DeepEqual(a.X, b.X) && a.F == b.F && a.NFev == b.NFev &&
		a.Iters == b.Iters && a.Converged == b.Converged && a.Message == b.Message
}

// countingBatch wraps SerialBatch and records how many batches and
// points flowed through it.
type countingBatch struct {
	f       Func
	batches int
	points  int
}

func (c *countingBatch) eval(points [][]float64) []float64 {
	c.batches++
	c.points += len(points)
	return SerialBatch(c.f)(points)
}

// MinimizeBatch must reproduce Minimize exactly — same point, value,
// iteration count, NFev and message — for every batch-capable
// optimizer, scheme and objective, because the batched probes are the
// same points the serial path evaluates.
func TestMinimizeBatchIsBitIdenticalToMinimize(t *testing.T) {
	objectives := []struct {
		name string
		f    Func
		x0   []float64
		b    *Bounds
	}{
		{"sphere", sphere([]float64{0.3, -0.2}), []float64{-1, 1}, UniformBounds(2, -2, 2)},
		{"rosenbrock", rosenbrock, []float64{-1.2, 1}, UniformBounds(2, -2, 2)},
		{"qaoa-like", qaoaLike, []float64{0.3, 0.4}, UniformBounds(2, 0, math.Pi)},
	}
	for _, scheme := range []FDScheme{CentralDiff, ForwardDiff} {
		opts := []BatchMinimizer{
			&LBFGSB{Scheme: scheme},
			&SLSQP{Scheme: scheme},
		}
		for _, opt := range opts {
			for _, obj := range objectives {
				serial := opt.Minimize(obj.f, obj.x0, obj.b)
				cb := &countingBatch{f: obj.f}
				batched := opt.MinimizeBatch(obj.f, cb.eval, obj.x0, obj.b)
				if !resultsEqual(serial, batched) {
					t.Errorf("%s/%s/%s: batch result %+v != serial %+v",
						opt.Name(), scheme, obj.name, batched, serial)
				}
				if cb.batches == 0 {
					t.Errorf("%s/%s/%s: batch objective never consulted", opt.Name(), scheme, obj.name)
				}
			}
		}
	}
}

// Run with a batch objective must route to MinimizeBatch when the
// optimizer has one and fall back to Minimize otherwise.
func TestMinimizeWithDispatch(t *testing.T) {
	b := UniformBounds(2, -2, 2)
	f := sphere([]float64{0.5, 0.5})
	x0 := []float64{-1, 1}
	cb := &countingBatch{f: f}
	run := func(opt Optimizer, bf BatchFunc) Result {
		return Run(context.Background(), Problem{F: f, Batch: bf, X0: x0, Bounds: b}, Options{Optimizer: opt})
	}
	got := run(&LBFGSB{}, cb.eval)
	want := (&LBFGSB{}).Minimize(f, x0, b)
	if !resultsEqual(got, want) {
		t.Errorf("Run(LBFGSB, batch) = %+v, want %+v", got, want)
	}
	if cb.batches == 0 {
		t.Error("Run did not use the batch path for a BatchMinimizer")
	}
	// NelderMead has no batch path: bf must be ignored, not break anything.
	nm := run(&NelderMead{}, cb.eval)
	nmWant := (&NelderMead{}).Minimize(f, x0, b)
	if !resultsEqual(nm, nmWant) {
		t.Errorf("Run(NelderMead, batch) = %+v, want %+v", nm, nmWant)
	}
	// nil bf always takes the serial path.
	if got := run(&LBFGSB{}, nil); !resultsEqual(got, want) {
		t.Errorf("Run(LBFGSB, nil batch) = %+v, want %+v", got, want)
	}
}

// The workspace gradient must agree bit-for-bit with the package-level
// Gradient, and GradientBatch with both, for both schemes — including
// at box faces where steps shrink or flip.
func TestGradientWorkspaceMatchesGradient(t *testing.T) {
	b := &Bounds{Lo: []float64{-1, 0, 0.5}, Hi: []float64{1, 0.7, 0.5}}
	xs := [][]float64{
		{0.2, 0.3, 0.5},
		{1, 0.7, 0.5},              // at upper faces (and degenerate lo==hi coordinate)
		{-1, 0, 0.5},               // at lower faces
		{0.999999, 0.0000005, 0.5}, // within one step of the faces
	}
	f := sphere([]float64{0.1, 0.2, 0.3})
	ws := NewGradientWorkspace(3)
	dst := make([]float64, 3)
	for _, scheme := range []FDScheme{CentralDiff, ForwardDiff} {
		for _, x := range xs {
			for _, fx := range []float64{f(x), math.NaN()} {
				want := Gradient(f, x, fx, b, scheme, 0)
				got := ws.Gradient(dst, f, x, fx, b, scheme, 0)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s at %v: workspace %v != package %v", scheme, x, got, want)
				}
				cnt := &counter{f: f}
				bdst := make([]float64, 3)
				_, nev := ws.GradientBatch(bdst, SerialBatch(cnt.call), x, fx, b, scheme, 0)
				if !reflect.DeepEqual(want, bdst) {
					t.Errorf("%s at %v: batch %v != serial %v", scheme, x, bdst, want)
				}
				if nev != cnt.n {
					t.Errorf("%s at %v: reported %d evals, objective saw %d", scheme, x, nev, cnt.n)
				}
			}
		}
	}
}

// A reused workspace gradient must not allocate.
func TestGradientWorkspaceZeroAllocs(t *testing.T) {
	f := sphere([]float64{0.1, -0.4, 0.2, 0.6})
	b := UniformBounds(4, -2, 2)
	x := []float64{0.5, 0.5, -0.5, 1}
	ws := NewGradientWorkspace(4)
	dst := make([]float64, 4)
	ws.Gradient(dst, f, x, math.NaN(), b, CentralDiff, 0)
	if allocs := testing.AllocsPerRun(50, func() {
		ws.Gradient(dst, f, x, math.NaN(), b, CentralDiff, 0)
	}); allocs != 0 {
		t.Errorf("reused workspace Gradient allocates %v objects per call, want 0", allocs)
	}
}
