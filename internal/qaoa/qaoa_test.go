package qaoa

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"qaoaml/internal/graph"
)

func mustProblem(t testing.TB, g *graph.Graph) *Problem {
	t.Helper()
	pb, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

func randomParams(rng *rand.Rand, p int) Params {
	pr := NewParams(p)
	for i := 0; i < p; i++ {
		pr.Gamma[i] = rng.Float64() * GammaMax
		pr.Beta[i] = rng.Float64() * BetaMax
	}
	return pr
}

func TestParamsVectorRoundTrip(t *testing.T) {
	pr := Params{Gamma: []float64{1, 2, 3}, Beta: []float64{4, 5, 6}}
	v := pr.Vector()
	want := []float64{1, 2, 3, 4, 5, 6}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("Vector = %v", v)
		}
	}
	rt := FromVector(v)
	if rt.Depth() != 3 || rt.Gamma[2] != 3 || rt.Beta[0] != 4 {
		t.Errorf("round trip = %+v", rt)
	}
}

func TestFromVectorOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromVector([]float64{1, 2, 3})
}

func TestParamsValidate(t *testing.T) {
	good := Params{Gamma: []float64{1}, Beta: []float64{1}}
	if err := good.Validate(true); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := Params{Gamma: []float64{7}, Beta: []float64{1}}
	if err := bad.Validate(true); err == nil {
		t.Error("gamma out of domain accepted")
	}
	bad2 := Params{Gamma: []float64{1}, Beta: []float64{4}}
	if err := bad2.Validate(true); err == nil {
		t.Error("beta out of domain accepted")
	}
	mis := Params{Gamma: []float64{1, 2}, Beta: []float64{1}}
	if err := mis.Validate(false); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestNewProblemRejectsEmptyGraph(t *testing.T) {
	if _, err := NewProblem(graph.New(3)); err == nil {
		t.Error("edgeless graph accepted")
	}
}

// Single edge, p = 1: with U_B = exp(−iβΣX) (i.e. RX(2β) mixers) the
// known closed form is ⟨C⟩ = (1 + sin(γ)·sin(4β)) / 2.
func TestSingleEdgeClosedForm(t *testing.T) {
	g := graph.Path(2)
	pb := mustProblem(t, g)
	for _, gamma := range []float64{0, 0.3, 1.1, math.Pi / 2, 3.0} {
		for _, beta := range []float64{0, 0.2, math.Pi / 8, 1.0, 3.0} {
			pr := Params{Gamma: []float64{gamma}, Beta: []float64{beta}}
			want := 0.5 * (1 + math.Sin(gamma)*math.Sin(4*beta))
			if got := pb.Expectation(pr); math.Abs(got-want) > 1e-10 {
				t.Errorf("γ=%v β=%v: <C> = %v, want %v", gamma, beta, got, want)
			}
		}
	}
}

// The optimal p = 1 single-edge parameters (γ = π/2, β = π/8 gives
// sin·sin = 1) achieve AR = 1.
func TestSingleEdgeOptimal(t *testing.T) {
	pb := mustProblem(t, graph.Path(2))
	pr := Params{Gamma: []float64{math.Pi / 2}, Beta: []float64{math.Pi / 8}}
	if ar := pb.ApproximationRatio(pr); math.Abs(ar-1) > 1e-10 {
		t.Errorf("AR = %v, want 1", ar)
	}
}

func TestZeroParamsGiveUniformExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ErdosRenyiConnected(6, 0.5, rng)
	pb := mustProblem(t, g)
	pr := NewParams(2) // all-zero angles: state stays uniform
	want := float64(g.NumEdges()) / 2
	if got := pb.Expectation(pr); math.Abs(got-want) > 1e-10 {
		t.Errorf("<C> = %v, want m/2 = %v", got, want)
	}
	if us := pb.UniformState().ExpectationDiagonal(g.WeightedCutTable()); math.Abs(us-want) > 1e-10 {
		t.Errorf("uniform <C> = %v, want %v", us, want)
	}
}

// The fast diagonal path must equal the explicit gate circuit exactly,
// including global phase.
func TestFastPathMatchesGateCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := graph.ErdosRenyiConnected(5, 0.5, rng)
		pb := mustProblem(t, g)
		p := 1 + rng.Intn(3)
		pr := randomParams(rng, p)
		fast := pb.State(pr)
		slow := pb.BuildCircuit(pr).Simulate()
		if !fast.Equal(slow, 1e-10) {
			t.Fatalf("trial %d: fast path != gate circuit (p=%d, %v)", trial, p, g)
		}
	}
}

func TestGlobalPhaseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.ErdosRenyiConnected(4, 0.6, rng)
	pb := mustProblem(t, g)
	gamma := 1.3
	pr := Params{Gamma: []float64{gamma}, Beta: []float64{0}}
	st := pb.State(pr)
	for z := uint64(0); z < 16; z++ {
		want := pb.GlobalPhaseReference(gamma, z)
		if cmplx.Abs(st.Amplitude(z)-want) > 1e-10 {
			t.Fatalf("amp(%d) = %v, want %v", z, st.Amplitude(z), want)
		}
	}
}

func TestBuildCircuitStructure(t *testing.T) {
	g := graph.Cycle(4) // 4 edges
	pb := mustProblem(t, g)
	p := 3
	c := pb.BuildCircuit(randomParams(rand.New(rand.NewSource(4)), p))
	wantLen := 4 + p*(4*3+4) // H layer + p·(per-edge CNOT,RZ,CNOT + RX per qubit)
	if c.Len() != wantLen {
		t.Errorf("circuit len = %d, want %d", c.Len(), wantLen)
	}
}

func TestExpectationBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyiConnected(6, 0.5, rng)
		pb, err := NewProblem(g)
		if err != nil {
			return false
		}
		pr := randomParams(rng, 1+rng.Intn(4))
		e := pb.Expectation(pr)
		return e >= -1e-9 && e <= pb.OptValue+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestApproximationRatioAtMostOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyiConnected(6, 0.5, rng)
		pb, err := NewProblem(g)
		if err != nil {
			return false
		}
		ar := pb.ApproximationRatio(randomParams(rng, 2))
		return ar > 0 && ar <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEvaluatorCountsCalls(t *testing.T) {
	pb := mustProblem(t, graph.Cycle(4))
	ev := NewEvaluator(pb, 2)
	if ev.Dim() != 4 {
		t.Fatalf("Dim = %d", ev.Dim())
	}
	x := []float64{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < 5; i++ {
		_ = ev.NegExpectation(x)
	}
	if ev.NFev() != 5 {
		t.Errorf("NFev = %d, want 5", ev.NFev())
	}
	ev.ResetNFev()
	if ev.NFev() != 0 {
		t.Error("ResetNFev failed")
	}
}

func TestEvaluatorNegatesExpectation(t *testing.T) {
	pb := mustProblem(t, graph.Path(2))
	ev := NewEvaluator(pb, 1)
	x := []float64{math.Pi / 2, math.Pi / 8}
	if got := ev.NegExpectation(x); math.Abs(got+1) > 1e-10 {
		t.Errorf("NegExpectation = %v, want -1", got)
	}
}

func TestEvaluatorWrongDimPanics(t *testing.T) {
	pb := mustProblem(t, graph.Path(2))
	ev := NewEvaluator(pb, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ev.NegExpectation([]float64{1, 2})
}

func TestBestSampledCut(t *testing.T) {
	pb := mustProblem(t, graph.Path(2))
	// At the optimal single-edge parameters the state concentrates on the
	// cut states |01>, |10>.
	pr := Params{Gamma: []float64{math.Pi / 2}, Beta: []float64{math.Pi / 8}}
	cut, assign := pb.BestSampledCut(pr)
	if cut != 1 {
		t.Errorf("cut = %g, want 1", cut)
	}
	if assign != 0b01 && assign != 0b10 {
		t.Errorf("assign = %b", assign)
	}
}

// Higher depth should not hurt the best achievable AR: we verify that
// the depth-2 optimum found by a coarse grid refine is >= the depth-1
// optimum on a triangle (the classic non-bipartite example).
func TestDepthImprovesTriangle(t *testing.T) {
	pb := mustProblem(t, graph.Cycle(3))
	best1 := bestOnGrid(pb, 1, 24)
	best2 := bestOnGridAround(pb, 2, best1, 8)
	if best2.ar+1e-9 < best1.ar {
		t.Errorf("depth 2 AR %v < depth 1 AR %v", best2.ar, best1.ar)
	}
	if best1.ar < 0.65 {
		t.Errorf("depth-1 triangle AR %v suspiciously low", best1.ar)
	}
}

type gridBest struct {
	pr Params
	ar float64
}

func bestOnGrid(pb *Problem, p, steps int) gridBest {
	if p != 1 {
		panic("grid search only for p=1")
	}
	best := gridBest{ar: -1}
	for i := 0; i < steps; i++ {
		for j := 0; j < steps; j++ {
			pr := Params{
				Gamma: []float64{GammaMax * float64(i) / float64(steps)},
				Beta:  []float64{BetaMax * float64(j) / float64(steps)},
			}
			if ar := pb.ApproximationRatio(pr); ar > best.ar {
				best = gridBest{pr: pr, ar: ar}
			}
		}
	}
	return best
}

// bestOnGridAround scans depth-2 params seeded by the depth-1 optimum
// (second stage scanned coarsely) — enough to witness monotonicity.
func bestOnGridAround(pb *Problem, p int, seed gridBest, steps int) gridBest {
	best := gridBest{ar: -1}
	for i := 0; i < steps; i++ {
		for j := 0; j < steps; j++ {
			pr := Params{
				Gamma: []float64{seed.pr.Gamma[0], GammaMax * float64(i) / float64(steps)},
				Beta:  []float64{seed.pr.Beta[0], BetaMax * float64(j) / float64(steps)},
			}
			if ar := pb.ApproximationRatio(pr); ar > best.ar {
				best = gridBest{pr: pr, ar: ar}
			}
		}
	}
	return best
}

// Cross-check the diagonal-cost expectation against the Pauli identity
// ⟨C⟩ = Σ_e w_e (1 − ⟨Z_u Z_v⟩)/2 evaluated on the simulator.
func TestExpectationMatchesPauliDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		g := graph.ErdosRenyiConnected(6, 0.5, rng)
		pb := mustProblem(t, g)
		pr := randomParams(rng, 2)
		st := pb.State(pr)
		viaPauli := 0.0
		for _, e := range g.Edges() {
			viaPauli += (1 - st.ExpectationZZ(e.U, e.V)) / 2
		}
		if got := pb.Expectation(pr); math.Abs(got-viaPauli) > 1e-10 {
			t.Fatalf("diagonal %v != Pauli decomposition %v", got, viaPauli)
		}
	}
}
