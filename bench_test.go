package qaoaml

// One benchmark per paper table/figure plus the ablation benches called
// out in DESIGN.md. Experiment benches run at a reduced scale (the
// structure of the computation is identical to the paper scale; only
// counts differ) so `go test -bench=. -benchmem` finishes in minutes.

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"qaoaml/internal/core"
	"qaoaml/internal/experiments"
	"qaoaml/internal/graph"
	"qaoaml/internal/linalg"
	"qaoaml/internal/ml"
	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/quantum"
)

// benchScale is the reduced experiment scale shared by the per-figure
// benchmarks.
func benchScale() experiments.Scale {
	return experiments.Scale{
		NumGraphs:  16,
		Nodes:      8,
		EdgeProb:   0.5,
		MaxDepth:   3,
		Starts:     4,
		TrainFrac:  0.4,
		Reps:       1,
		TestGraphs: 4,
		MaxTarget:  3,
		Seed:       1,
	}
}

var (
	benchEnvOnce sync.Once
	benchEnvVal  *experiments.Env
	benchEnvErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() { benchEnvVal, benchEnvErr = experiments.NewEnvCtx(context.Background(), benchScale(), nil) })
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnvVal
}

// --- one bench per paper artifact ---

// BenchmarkDataGen regenerates the Sec. III-A optimal-parameter dataset
// (reduced scale).
func BenchmarkDataGen(b *testing.B) {
	cfg := core.DataGenConfig{
		NumGraphs: 4, Nodes: 8, EdgeProb: 0.5,
		MaxDepth: 3, Starts: 3, Tol: 1e-6, Seed: 2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I (naive vs two-level, 4 optimizers).
func BenchmarkTable1(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(context.Background(), env)
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("bad result (%v)", err)
		}
	}
}

// BenchmarkFig1c regenerates Fig. 1(c) (AR/FC distributions vs depth).
func BenchmarkFig1c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig1c(3, 3, 3)
		if len(res.Points) != 3 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig2 regenerates Fig. 2 (within-depth parameter patterns).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig2(3, 4)
		if len(res.Schedules) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig3 regenerates Fig. 3 (parameter trends vs depth).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig3(3, 3, 5)
		if len(res.GammaByDepth) != 3 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5 (correlation analysis).
func BenchmarkFig5(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig5(env)
		if len(res.Gamma) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6 (prediction-error distributions).
func BenchmarkFig6(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig6(env)
		if len(res.Points) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkModelComparison regenerates the Sec. III-C model ranking.
func BenchmarkModelComparison(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunModelComparison(env)
		if err != nil || len(res.Scores) != 4 {
			b.Fatalf("bad result (%v)", err)
		}
	}
}

// --- ablation benches (design choices from DESIGN.md) ---

func benchProblem(b *testing.B) *qaoa.Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	pb, err := qaoa.NewProblem(graph.ErdosRenyiConnected(8, 0.5, rng))
	if err != nil {
		b.Fatal(err)
	}
	return pb
}

// BenchmarkPhaseSeparatorDiagonal measures the fast diagonal path for
// one full depth-3 expectation evaluation.
func BenchmarkPhaseSeparatorDiagonal(b *testing.B) {
	pb := benchProblem(b)
	pr := qaoa.Params{Gamma: []float64{0.4, 0.7, 0.9}, Beta: []float64{0.5, 0.3, 0.2}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pb.Expectation(pr)
	}
}

// BenchmarkPhaseSeparatorGates measures the explicit CNOT·RZ·CNOT gate
// decomposition for the same circuit (the paper's literal circuit).
func BenchmarkPhaseSeparatorGates(b *testing.B) {
	pb := benchProblem(b)
	pr := qaoa.Params{Gamma: []float64{0.4, 0.7, 0.9}, Beta: []float64{0.5, 0.3, 0.2}}
	cut := pb.Graph.WeightedCutTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := pb.BuildCircuit(pr).Simulate()
		_ = st.ExpectationDiagonal(cut)
	}
}

// BenchmarkExpectation measures one expectation evaluation per depth.
func BenchmarkExpectation(b *testing.B) {
	pb := benchProblem(b)
	for _, depth := range []int{1, 3, 5} {
		pr := qaoa.NewParams(depth)
		for i := range pr.Gamma {
			pr.Gamma[i] = 0.5
			pr.Beta[i] = 0.3
		}
		b.Run(map[int]string{1: "p1", 3: "p3", 5: "p5"}[depth], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = pb.Expectation(pr)
			}
		})
	}
}

// BenchmarkGradient compares the central vs forward finite-difference
// schemes on a depth-3 QAOA objective.
func BenchmarkGradient(b *testing.B) {
	pb := benchProblem(b)
	ev := qaoa.NewEvaluator(pb, 3)
	bounds := core.ParamBounds(3)
	x := bounds.Random(rand.New(rand.NewSource(8)))
	for _, scheme := range []optimize.FDScheme{optimize.CentralDiff, optimize.ForwardDiff} {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = optimize.Gradient(ev.NegExpectation, x, ev.NegExpectation(x), bounds, scheme, 1e-6)
			}
		})
	}
}

// BenchmarkOptimizer runs each of the four local optimizers to
// convergence on the same depth-2 instance from the same start.
func BenchmarkOptimizer(b *testing.B) {
	pb := benchProblem(b)
	bounds := core.ParamBounds(2)
	x0 := bounds.Random(rand.New(rand.NewSource(9)))
	for _, opt := range experiments.Optimizers() {
		b.Run(opt.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev := qaoa.NewEvaluator(pb, 2)
				r := opt.Minimize(ev.NegExpectation, append([]float64(nil), x0...), bounds)
				if r.NFev == 0 {
					b.Fatal("no evaluations")
				}
			}
		})
	}
}

// BenchmarkTwoLevelVsNaive measures one naive run and one two-level run
// at target depth 3 — the per-instance cost Table I aggregates.
func BenchmarkTwoLevelVsNaive(b *testing.B) {
	env := benchEnv(b)
	pb := env.Data.Problems[env.TestIDs[0]]
	opt := &optimize.LBFGSB{Tol: 1e-6}
	b.Run("naive", func(b *testing.B) {
		rng := rand.New(rand.NewSource(10))
		for i := 0; i < b.N; i++ {
			if _, err := core.NaiveRunArena(context.Background(), nil, pb, 3, opt, rng, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("twolevel", func(b *testing.B) {
		rng := rand.New(rand.NewSource(10))
		for i := 0; i < b.N; i++ {
			if _, err := core.TwoLevelArena(context.Background(), nil, pb, 3, opt, env.Predictor, rng, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGPR measures predictor-model fit and predict costs on a
// dataset-shaped task (3 features, 60 samples).
func BenchmarkGPR(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := make([][]float64, 60)
	y := make([]float64, 60)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), float64(2 + rng.Intn(4))}
		y[i] = x[i][0]*0.5 + x[i][1]*0.2 + 0.1*x[i][2]
	}
	b.Run("fit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var g ml.GPR
			if err := g.Fit(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("predict", func(b *testing.B) {
		var g ml.GPR
		if err := g.Fit(x, y); err != nil {
			b.Fatal(err)
		}
		q := []float64{0.4, 0.3, 3}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.Predict(q)
		}
	})
}

// BenchmarkMaxCutBruteForce measures the exact classical solve used for
// approximation ratios (8 nodes → 128 assignments).
func BenchmarkMaxCutBruteForce(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	g := graph.ErdosRenyiConnected(8, 0.5, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.MaxCut()
	}
}

// BenchmarkStateGates measures raw simulator gate throughput at 8 qubits.
func BenchmarkStateGates(b *testing.B) {
	b.Run("H", func(b *testing.B) {
		s := quantum.NewState(8)
		for i := 0; i < b.N; i++ {
			s.H(i % 8)
		}
	})
	b.Run("RX", func(b *testing.B) {
		s := quantum.NewState(8)
		for i := 0; i < b.N; i++ {
			s.RX(i%8, 0.3)
		}
	})
	b.Run("CNOT", func(b *testing.B) {
		s := quantum.NewState(8)
		for i := 0; i < b.N; i++ {
			s.CNOT(i%8, (i+1)%8)
		}
	})
	b.Run("ZZ", func(b *testing.B) {
		s := quantum.NewState(8)
		for i := 0; i < b.N; i++ {
			s.ZZ(i%8, (i+1)%8, 0.4)
		}
	})
}

// BenchmarkHierarchical regenerates the Sec. I(d) hierarchical-vs-
// two-level ablation.
func BenchmarkHierarchical(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHierarchical(context.Background(), env)
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("bad result (%v)", err)
		}
	}
}

// BenchmarkSPSA measures the hardware-practical SPSA optimizer on the
// same instance as BenchmarkOptimizer for comparison.
func BenchmarkSPSA(b *testing.B) {
	pb := benchProblem(b)
	bounds := core.ParamBounds(2)
	x0 := bounds.Random(rand.New(rand.NewSource(9)))
	for i := 0; i < b.N; i++ {
		ev := qaoa.NewEvaluator(pb, 2)
		r := (&optimize.SPSA{Seed: 13}).Minimize(ev.NegExpectation, append([]float64(nil), x0...), bounds)
		if r.NFev == 0 {
			b.Fatal("no evaluations")
		}
	}
}

// BenchmarkCanonicalize measures the symmetry folding applied to every
// recorded optimum.
func BenchmarkCanonicalize(b *testing.B) {
	pb := benchProblem(b)
	pr := qaoa.Params{Gamma: []float64{5.9, 1.2, 4.4}, Beta: []float64{2.3, -0.4, 1.9}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pb.Canonicalize(pr)
	}
}

// BenchmarkWeightedExpectation measures a weighted-MaxCut expectation
// evaluation (same code path as Table I but with non-unit weights).
func BenchmarkWeightedExpectation(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	g := graph.New(8)
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			if rng.Float64() < 0.5 {
				if err := g.AddWeightedEdge(u, v, 0.5+rng.Float64()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	pb, err := qaoa.NewProblem(g)
	if err != nil {
		b.Fatal(err)
	}
	pr := qaoa.Params{Gamma: []float64{0.4, 0.7}, Beta: []float64{0.5, 0.3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pb.Expectation(pr)
	}
}

// BenchmarkDatasetPersistence measures dataset save/load round trips.
func BenchmarkDatasetPersistence(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := env.Data.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNoiseSweep regenerates the depolarizing-noise extension
// figure at reduced trajectory count.
func BenchmarkNoiseSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunNoiseSweep(2, 2, 20, 15)
		if len(res.Points) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkNoisyExpectation measures one Monte-Carlo noisy expectation
// (100 trajectories) vs the exact path in BenchmarkExpectation.
func BenchmarkNoisyExpectation(b *testing.B) {
	pb := benchProblem(b)
	pr := qaoa.Params{Gamma: []float64{0.4, 0.7}, Beta: []float64{0.5, 0.3}}
	nm := quantum.NoiseModel{P1: 0.001, P2: 0.01}
	rng := rand.New(rand.NewSource(16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pb.NoisyExpectation(pr, nm, 100, rng)
	}
}

// --- evaluation-engine kernel benches ---

// BenchmarkRXAll compares the fused all-qubit mixing layer against the
// equivalent per-qubit RX loop it replaces.
func BenchmarkRXAll(b *testing.B) {
	b.Run("fused", func(b *testing.B) {
		s := quantum.NewUniformState(8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.RXAll(0.6)
		}
	})
	b.Run("perqubit", func(b *testing.B) {
		s := quantum.NewUniformState(8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for q := 0; q < 8; q++ {
				s.RX(q, 0.6)
			}
		}
	})
}

// BenchmarkNegExpectation measures the evaluator hot path the optimizers
// drive — one depth-3 objective call on a warm workspace (0 allocs).
func BenchmarkNegExpectation(b *testing.B) {
	pb := benchProblem(b)
	ev := qaoa.NewEvaluator(pb, 3)
	x := []float64{0.4, 0.7, 0.9, 0.5, 0.3, 0.2}
	_ = ev.NegExpectation(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.NegExpectation(x)
	}
}

// BenchmarkBatchEval measures worker-pool throughput on a 12-point batch
// (the size of one depth-3 central-difference gradient stencil).
func BenchmarkBatchEval(b *testing.B) {
	pb := benchProblem(b)
	be := qaoa.NewBatchEvaluator(pb, 3, 0)
	rng := rand.New(rand.NewSource(18))
	bounds := core.ParamBounds(3)
	points := make([][]float64, 12)
	for i := range points {
		points[i] = bounds.Random(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = be.EvalBatch(points)
	}
}

// BenchmarkSampleCounts measures measurement sampling with the CDF +
// binary-search path (1024 shots from a depth-2 8-qubit state).
func BenchmarkSampleCounts(b *testing.B) {
	pb := benchProblem(b)
	st := pb.State(qaoa.Params{Gamma: []float64{0.4, 0.7}, Beta: []float64{0.5, 0.3}})
	rng := rand.New(rand.NewSource(19))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.SampleCounts(1024, rng)
	}
}

// BenchmarkGradientWorkspace measures a full depth-3 central-difference
// gradient through the reusable workspace (serial and batched probes).
func BenchmarkGradientWorkspace(b *testing.B) {
	pb := benchProblem(b)
	bounds := core.ParamBounds(3)
	x := bounds.Random(rand.New(rand.NewSource(20)))
	ws := optimize.NewGradientWorkspace(len(x))
	dst := make([]float64, len(x))
	b.Run("serial", func(b *testing.B) {
		ev := qaoa.NewEvaluator(pb, 3)
		fx := ev.NegExpectation(x)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ws.Gradient(dst, ev.NegExpectation, x, fx, bounds, optimize.CentralDiff, 1e-6)
		}
	})
	b.Run("batch", func(b *testing.B) {
		ev := qaoa.NewEvaluator(pb, 3)
		be := qaoa.NewBatchEvaluator(pb, 3, 0)
		fx := ev.NegExpectation(x)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = ws.GradientBatch(dst, be.EvalBatch, x, fx, bounds, optimize.CentralDiff, 1e-6)
		}
	})
}

// BenchmarkGradientAdjoint measures one adjoint-mode value+gradient
// sweep per depth — the analytic replacement for the 4p-evaluation
// central-difference stencil in BenchmarkGradientWorkspace.
func BenchmarkGradientAdjoint(b *testing.B) {
	pb := benchProblem(b)
	for _, depth := range []int{1, 3, 5} {
		b.Run(map[int]string{1: "p1", 3: "p3", 5: "p5"}[depth], func(b *testing.B) {
			ev := qaoa.NewEvaluator(pb, depth)
			x := core.ParamBounds(depth).Random(rand.New(rand.NewSource(20)))
			grad := make([]float64, len(x))
			_ = ev.NegValueGrad(x, grad) // warm the workspace + adjoint buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ev.NegValueGrad(x, grad)
			}
		})
	}
}

// BenchmarkLBFGSBGradientPath runs L-BFGS-B to convergence on the same
// depth-5 instance from the same start with finite-difference vs
// adjoint gradients — the end-to-end speedup the adjoint engine buys.
func BenchmarkLBFGSBGradientPath(b *testing.B) {
	pb := benchProblem(b)
	bounds := core.ParamBounds(5)
	x0 := bounds.Random(rand.New(rand.NewSource(21)))
	b.Run("fd", func(b *testing.B) {
		ev := qaoa.NewEvaluator(pb, 5)
		for i := 0; i < b.N; i++ {
			r := optimize.Run(context.Background(),
				optimize.Problem{F: ev.NegExpectation, X0: x0, Bounds: bounds},
				optimize.Options{Optimizer: &optimize.LBFGSB{}})
			if r.NFev == 0 {
				b.Fatal("no evaluations")
			}
		}
	})
	b.Run("adjoint", func(b *testing.B) {
		ev := qaoa.NewEvaluator(pb, 5)
		for i := 0; i < b.N; i++ {
			r := optimize.Run(context.Background(),
				optimize.Problem{F: ev.NegExpectation, Grad: ev.NegGrad, X0: x0, Bounds: bounds},
				optimize.Options{Optimizer: &optimize.LBFGSB{}})
			if r.NGev == 0 {
				b.Fatal("no gradient evaluations")
			}
		}
	})
}

// --- large-register scaling benches (streaming cost + parallel kernels) ---

// largeBenchProblem builds a 3-regular streaming-mode MaxCut instance.
// Above the streaming threshold no 2^n cost table exists; C(z) is
// generated from the compiled couplings per fixed-geometry chunk.
func largeBenchProblem(b *testing.B, n int) *qaoa.Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(40 + n)))
	pb, err := qaoa.NewProblem(graph.RandomRegular(n, 3, rng))
	if err != nil {
		b.Fatal(err)
	}
	return pb
}

// BenchmarkExpectationLargeN measures one depth-1 expectation at 16,
// 20, 22 and 24 qubits through the streaming kernel — the scaling
// targets the small-n engine could not reach (a 2^22 cost+index table
// pair alone would cost 48 MiB). n=26 and n=28 run through qaoabench
// only, to keep the go-test bench smoke fast.
func BenchmarkExpectationLargeN(b *testing.B) {
	for _, n := range []int{16, 20, 22, 24} {
		n := n
		b.Run(map[int]string{16: "n16", 20: "n20", 22: "n22", 24: "n24"}[n], func(b *testing.B) {
			pb := largeBenchProblem(b, n)
			ev := qaoa.NewEvaluator(pb, 1)
			x := []float64{0.4, 0.3}
			_ = ev.NegExpectation(x) // warm the workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ev.NegExpectation(x)
			}
		})
	}
}

// BenchmarkGradientAdjointLargeN measures one adjoint value+gradient
// sweep on a 20-qubit depth-3 instance — the large-register gradient
// path (streamed observable application and matrix elements).
func BenchmarkGradientAdjointLargeN(b *testing.B) {
	pb := largeBenchProblem(b, 20)
	b.Run("n20-p3", func(b *testing.B) {
		ev := qaoa.NewEvaluator(pb, 3)
		x := []float64{0.4, 0.7, 0.9, 0.5, 0.3, 0.2}
		grad := make([]float64, len(x))
		_ = ev.NegValueGrad(x, grad) // warm workspace + adjoint buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ev.NegValueGrad(x, grad)
		}
	})
}

// BenchmarkShardedExpectation measures the depth-1 expectation over the
// sharded state layout (4 shards) against the same streaming kernels
// the flat benches use. At these sizes sharding is about exercising the
// cross-shard exchange and per-shard reduction drivers, not memory —
// the values are asserted bit-identical to the flat path in the test
// suite.
func BenchmarkShardedExpectation(b *testing.B) {
	for _, n := range []int{18, 20} {
		n := n
		b.Run(map[int]string{18: "n18-s4", 20: "n20-s4"}[n], func(b *testing.B) {
			pb := largeBenchProblem(b, n)
			w := pb.NewWorkspaceShards(2)
			defer w.Close()
			x := []float64{0.4, 0.3}
			_ = w.ExpectationVec(x) // warm the shard workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = w.ExpectationVec(x)
			}
		})
	}
}

// BenchmarkShardedGradient measures the adjoint value+gradient sweep
// over two sharded state sets (state + adjoint, 4 shards each).
func BenchmarkShardedGradient(b *testing.B) {
	pb := largeBenchProblem(b, 20)
	b.Run("n20-p3-s4", func(b *testing.B) {
		w := pb.NewWorkspaceShards(2)
		defer w.Close()
		x := []float64{0.4, 0.7, 0.9, 0.5, 0.3, 0.2}
		grad := make([]float64, len(x))
		_ = w.ValueGrad(x, grad) // warm workers + adjoint shard set
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = w.ValueGrad(x, grad)
		}
	})
}

// BenchmarkSampleOutcomes measures the pooled sampling path underlying
// SampleCounts (1024 shots; ≤ 2 allocations per warm call).
func BenchmarkSampleOutcomes(b *testing.B) {
	pb := benchProblem(b)
	st := pb.State(qaoa.Params{Gamma: []float64{0.4, 0.7}, Beta: []float64{0.5, 0.3}})
	rng := rand.New(rand.NewSource(19))
	_ = st.SampleOutcomes(1024, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.SampleOutcomes(1024, rng)
	}
}

// BenchmarkEigenSym measures the Jacobi eigensolver on an 8×8 graph
// Laplacian (the spectral-utility hot path).
func BenchmarkEigenSym(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	g := graph.ErdosRenyiConnected(8, 0.5, rng)
	l := g.LaplacianMatrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := linalg.EigenSym(l); err != nil {
			b.Fatal(err)
		}
	}
}
