package optimize

// BatchFunc evaluates the same objective at several independent points
// and returns the values in input order. Implementations may evaluate
// the points concurrently (qaoa.BatchEvaluator does, on per-worker
// workspaces) but must return exactly the values serial evaluation
// would, so optimizers that batch their probe evaluations stay
// bit-identical to their serial form. Objectives over large quantum
// registers already parallelize inside their kernels (chunked gates and
// reductions); such implementations should evaluate points serially
// rather than stack a second layer of workers on oversubscribed cores
// — qaoa.BatchEvaluator collapses to one worker above the kernel
// parallelism threshold for exactly this reason.
type BatchFunc func(points [][]float64) []float64

// SerialBatch adapts a plain Func to BatchFunc by evaluating points in
// order — useful for tests and for objectives with no batch fast path.
func SerialBatch(f Func) BatchFunc {
	return func(points [][]float64) []float64 {
		out := make([]float64, len(points))
		for i, x := range points {
			out[i] = f(x)
		}
		return out
	}
}

// BatchMinimizer is implemented by optimizers that can evaluate
// independent probe points (finite-difference gradient stencils) in
// one batch. MinimizeBatch must produce the same Result — point,
// value, iterations and NFev — as Minimize with the same f; bf is
// consulted only for probe batches.
type BatchMinimizer interface {
	Optimizer
	MinimizeBatch(f Func, bf BatchFunc, x0 []float64, bounds *Bounds) Result
}
