package qaoa

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
)

func testParams(p int) Params {
	pr := NewParams(p)
	for s := 0; s < p; s++ {
		pr.Gamma[s] = 0.37 + 0.21*float64(s)
		pr.Beta[s] = 0.19 + 0.11*float64(s)
	}
	return pr
}

func mustCompileMaxCut(t testing.TB, g *graph.Graph) *problem.Instance {
	t.Helper()
	in, err := problem.CompileMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// Integer-weighted MaxCut graphs above the streaming threshold must
// match the materialized path EXACTLY, both the compiled instance's
// tables and the cut table built straight from the graph: the streaming
// walker accumulates in int64, the phase factors use the same
// distinct-value arithmetic, and the chunk reductions share their
// geometry.
func TestStreamKernelMatchesMaterializedExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := map[string]*graph.Graph{
		"unweighted-3reg-n14": graph.RandomRegular(14, 3, rng),
		"erdos-renyi-n13":     graph.ErdosRenyiConnected(13, 0.3, rng),
		"int-weighted-n14":    reweighted(t, graph.RandomRegular(14, 3, rng), func(i int) float64 { return float64(1 + i%5) }),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			pb := mustProblem(t, g)
			checkStreamExact(t, pb)
			ref, got := newWorkspace(cutTableKernel(g), nil), pb.NewWorkspace()
			for _, p := range []int{1, 3} {
				x := testParams(p).Vector()
				if rv, gv := ref.ExpectationVec(x), got.ExpectationVec(x); rv != gv {
					t.Errorf("p=%d: streaming expectation %v != cut-table %v", p, gv, rv)
				}
			}
		})
	}
}

// Float-weighted graphs stream per-amplitude Sincos phases instead of
// the distinct-value table, so agreement is to rounding error, not
// bit-exact.
func TestStreamKernelMatchesMaterializedFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := reweighted(t, graph.ErdosRenyiConnected(13, 0.3, rng), func(i int) float64 { return 0.5 + 0.37*float64(i%7) + 0.01*math.Pi })
	pb := mustProblem(t, g)
	checkStreamFloat(t, pb)
	x := testParams(2).Vector()
	scale := math.Max(1, pb.TotalWeight)
	if rv, gv := newWorkspace(cutTableKernel(g), nil).ExpectationVec(x), pb.NewWorkspace().ExpectationVec(x); math.Abs(rv-gv) > 1e-12*scale {
		t.Errorf("streaming expectation %v != cut-table %v", gv, rv)
	}
}

// reweighted copies base's edges with weight w(i) on the i-th edge.
func reweighted(t *testing.T, base *graph.Graph, w func(i int) float64) *graph.Graph {
	t.Helper()
	g := graph.New(base.N)
	for i, e := range base.Edges() {
		if err := g.AddWeightedEdge(e.U, e.V, w(i)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// A streaming kernel built below the threshold (n=8, one chunk) must
// agree exactly with the standard materialized MaxCut problem —
// single-chunk streaming coverage.
func TestStreamKernelSmallRegister(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	g := graph.ErdosRenyiConnected(8, 0.4, rng)
	ref := mustProblem(t, g)
	if _, ok := ref.kernel().(*diagKernel); !ok {
		t.Fatalf("n=8 problem built %T, want the materialized *diagKernel", ref.kernel())
	}
	stream := newIsingStreamKernel(mustCompileMaxCut(t, g))
	x := testParams(3).Vector()
	if rv, gv := ref.NewWorkspace().ExpectationVec(x), newWorkspace(stream, nil).ExpectationVec(x); rv != gv {
		t.Errorf("streaming n=8 expectation %v != materialized %v", gv, rv)
	}
}

// The point of streaming mode: a 2^20 problem must hold no 2^n cost or
// index table. The only O(2^n) allocation an evaluation needs is the
// workspace state vector (16 MiB at n=20); the materialized kernel
// would add 12 MiB of tables on top.
func TestStreamingMemoryBudgetN20(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 2^20 memory-budget test in short mode")
	}
	rng := rand.New(rand.NewSource(37))
	g := graph.RandomRegular(20, 3, rng)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pb := mustProblem(t, g)
	if _, ok := pb.kernel().(*isingStreamKernel); !ok {
		t.Fatalf("n=20 kernel is %T, want *isingStreamKernel", pb.kernel())
	}
	ws := pb.NewWorkspace()
	e := ws.Expectation(testParams(1))
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pb)
	runtime.KeepAlive(ws)

	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const stateBytes = 16 << 20 // 2^20 complex128
	if delta > stateBytes+stateBytes/4 {
		t.Errorf("n=20 problem and evaluation retain %d bytes; budget is the state vector (%d) plus slack — a 2^n table leaked", delta, stateBytes)
	}
	if e <= 0 || e >= pb.TotalWeight {
		t.Errorf("n=20 streamed expectation %v outside (0, total weight %v)", e, pb.TotalWeight)
	}
}

// CutValue must agree with the graph in streaming mode, and the
// readout must report the cut weight of the sampled assignment.
func TestCutValueStreamingMode(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	g := graph.RandomRegular(14, 3, rng)
	pb := mustProblem(t, g)
	if _, ok := pb.kernel().(*isingStreamKernel); !ok {
		t.Fatalf("n=14 kernel is %T, want *isingStreamKernel", pb.kernel())
	}
	for _, z := range []uint64{0, 1, 4097, 1<<14 - 1} {
		if got, want := pb.CutValue(z), g.WeightedCutValue(z); got != want {
			t.Errorf("CutValue(%d) = %v, want %v", z, got, want)
		}
	}
	cut, assign := pb.BestSampledCut(testParams(1))
	if want := g.WeightedCutValue(assign); cut != want {
		t.Errorf("BestSampledCut cut %v != WeightedCutValue(%d) = %v", cut, assign, want)
	}
}
