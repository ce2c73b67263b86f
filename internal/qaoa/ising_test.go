package qaoa

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
)

func mustIsing(t testing.TB, in *problem.Instance) *Problem {
	t.Helper()
	pb, err := NewIsing(in)
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

// cutTableKernel is the reference MaxCut evaluator: the materialized
// cut table C(z) with phase generator (m − 2C(z))/2, built straight
// from the graph rather than from a compiled instance.
func cutTableKernel(g *graph.Graph) *diagKernel {
	cut := g.WeightedCutTable()
	m := g.TotalWeight()
	gen := make([]float64, len(cut))
	for z, c := range cut {
		gen[z] = (m - 2*c) / 2
	}
	return newDiagKernelFromGen(g.N, cut, gen)
}

// MaxCut evaluates through its compiled Ising instance, and that must be
// bit-identical to the cut-table evaluator — expectation AND adjoint
// gradient — across the materialized (n=8), streaming (n=14) and
// full-size (n=20) regimes at GOMAXPROCS 1, 2 and 8. T = 2C − m is
// exact in int64, halving is an exponent shift and m/2 + T/2 = C
// exactly, so every table, factor and reduction the two paths build
// holds the same doubles.
func TestMaxCutViaQUBOBitIdentical(t *testing.T) {
	type cfg struct {
		n, deg int
		short  bool
	}
	cfgs := []cfg{
		{n: 8, deg: 3, short: true},
		{n: 14, deg: 3, short: true},
		{n: 20, deg: 3, short: false},
	}
	workers := []int{1, 2, 8}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, c := range cfgs {
		if testing.Short() && !c.short {
			continue
		}
		rng := rand.New(rand.NewSource(int64(400 + c.n)))
		g := graph.RandomRegular(c.n, c.deg, rng)
		pb := mustProblem(t, g)
		if opt, _ := g.WeightedMaxCut(); pb.OptValue != opt {
			t.Errorf("n=%d: compiled optimum %v != MaxCut optimum %v", c.n, pb.OptValue, opt)
		}
		ref := cutTableKernel(g)
		for _, p := range []int{1, 3} {
			x := testParams(p).Vector()
			for _, w := range workers {
				runtime.GOMAXPROCS(w)
				rw, qw := newWorkspace(ref, nil), pb.NewWorkspace()
				if rv, qv := rw.ExpectationVec(x), qw.ExpectationVec(x); rv != qv {
					t.Errorf("n=%d p=%d w=%d: cut-table <C> %v != compiled %v", c.n, p, w, rv, qv)
				}
				rg, qg := make([]float64, len(x)), make([]float64, len(x))
				rv, qv := rw.ValueGrad(x, rg), qw.ValueGrad(x, qg)
				if rv != qv {
					t.Errorf("n=%d p=%d w=%d: cut-table grad value %v != compiled %v", c.n, p, w, rv, qv)
				}
				for i := range rg {
					if rg[i] != qg[i] {
						t.Errorf("n=%d p=%d w=%d: grad[%d] cut-table %v != compiled %v", c.n, p, w, i, rg[i], qg[i])
					}
				}
			}
		}
	}
}

// checkStreamExact compares pb's streaming kernel against the
// materialized kernel of the same compiled instance, bit for bit at 1,
// 2 and 8 workers: expectation, gradient value and every gradient
// component. Integer-coefficient instances derive every double from the
// same int64 accumulator on both paths.
func checkStreamExact(t *testing.T, pb *Problem) {
	t.Helper()
	sk, ok := pb.kernel().(*isingStreamKernel)
	if !ok {
		t.Fatalf("n=%d instance built %T, want *isingStreamKernel", pb.NumQubits(), pb.kernel())
	}
	if !sk.integer {
		t.Fatal("integer-coefficient instance did not take the exact integer path")
	}
	diag, gen := buildIsingTables(pb.Inst)
	mat := newDiagKernelFromGen(pb.Inst.N, diag, gen)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range []int{1, 3} {
		x := testParams(p).Vector()
		for _, w := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(w)
			sw, mw := newWorkspace(sk, nil), newWorkspace(mat, nil)
			if sv, mv := sw.ExpectationVec(x), mw.ExpectationVec(x); sv != mv {
				t.Errorf("p=%d w=%d: streaming <Score> %v != materialized %v", p, w, sv, mv)
			}
			sg, mg := make([]float64, len(x)), make([]float64, len(x))
			sv, mv := sw.ValueGrad(x, sg), mw.ValueGrad(x, mg)
			if sv != mv {
				t.Errorf("p=%d w=%d: streaming grad value %v != materialized %v", p, w, sv, mv)
			}
			for i := range sg {
				if sg[i] != mg[i] {
					t.Errorf("p=%d w=%d: grad[%d] streaming %v != materialized %v", p, w, i, sg[i], mg[i])
				}
			}
		}
	}
}

// checkStreamFloat is checkStreamExact for float-coefficient instances,
// which can't share an integer accumulator: streaming matches
// materialized to rounding error only.
func checkStreamFloat(t *testing.T, pb *Problem) {
	t.Helper()
	if pb.Inst.IntegerCoeffs() {
		t.Fatal("instance should have float coefficients")
	}
	sk, ok := pb.kernel().(*isingStreamKernel)
	if !ok {
		t.Fatalf("kernel is %T, want *isingStreamKernel", pb.kernel())
	}
	if sk.integer {
		t.Fatal("float instance must take the float streaming path")
	}
	diag, gen := buildIsingTables(pb.Inst)
	mat := newDiagKernelFromGen(pb.Inst.N, diag, gen)
	x := testParams(2).Vector()
	sw, mw := newWorkspace(sk, nil), newWorkspace(mat, nil)
	scale := math.Max(1, math.Abs(pb.OptValue)+math.Abs(pb.MinScore))
	if sv, mv := sw.ExpectationVec(x), mw.ExpectationVec(x); math.Abs(sv-mv) > 1e-12*scale {
		t.Errorf("float streaming <Score> %v != materialized %v", sv, mv)
	}
	sg, mg := make([]float64, len(x)), make([]float64, len(x))
	sv, mv := sw.ValueGrad(x, sg), mw.ValueGrad(x, mg)
	if math.Abs(sv-mv) > 1e-12*scale {
		t.Errorf("float streaming grad value %v != materialized %v", sv, mv)
	}
	for i := range sg {
		if math.Abs(sg[i]-mg[i]) > 1e-11*scale {
			t.Errorf("grad[%d] streaming %v != materialized %v", i, sg[i], mg[i])
		}
	}
}

// Streaming vs materialized for an integer spin glass WITH linear
// terms; n ≥ 13 takes the streaming kernel through the constructor.
// The MaxCut graphs are covered by TestStreamKernelMatchesMaterializedExactly.
func TestIsingStreamMatchesMaterializedExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	glass := problem.RandomIsing(14, rng)
	if !glass.IntegerCoeffs() {
		t.Fatal("RandomIsing should have integer coefficients")
	}
	hasLinear := false
	for _, h := range glass.Linear {
		if h != 0 {
			hasLinear = true
		}
	}
	if !hasLinear {
		t.Fatal("test instance has no linear terms; raise n or reseed")
	}
	checkStreamExact(t, mustIsing(t, glass))
}

// Float-coefficient streaming for a spin glass with a fractional field.
// The float-weighted MaxCut graph is covered by
// TestStreamKernelMatchesMaterializedFloat.
func TestIsingStreamFloatCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	glass := problem.RandomIsing(14, rng)
	glass.Linear[3] = 0.37 // break integrality
	checkStreamFloat(t, mustIsing(t, glass))
}

// The generic gate circuit (RZ per field, CNOT·RZ·CNOT per coupling)
// must equal the fast diagonal path exactly, global phase included —
// for both senses, with linear terms present.
func TestIsingFastPathMatchesGateCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		in := problem.RandomIsing(6, rng)
		if trial%2 == 1 {
			in.Sense = problem.Maximize
		}
		pb := mustIsing(t, in)
		pr := randomParams(rng, 1+rng.Intn(3))
		fast := pb.State(pr)
		slow := pb.BuildCircuit(pr).Simulate()
		if !fast.Equal(slow, 1e-10) {
			t.Fatalf("trial %d: fast path != gate circuit (sense %v)", trial, in.Sense)
		}
	}
}

// Expectation must equal the probability-weighted Score sum, and the
// normalized AR must sit in [0, 1] with the brute-force extremes as
// anchors.
func TestIsingExpectationAndRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := problem.RandomIsing(8, rng)
	pb := mustIsing(t, in)
	pr := randomParams(rng, 2)
	e := pb.Expectation(pr)
	want := 0.0
	st := pb.State(pr)
	for z := uint64(0); z < 1<<8; z++ {
		want += st.Probability(z) * in.Score(z)
	}
	if math.Abs(e-want) > 1e-9*(1+math.Abs(want)) {
		t.Errorf("<Score> = %v, want probability sum %v", e, want)
	}
	ar := pb.ApproximationRatio(pr)
	if ar < 0 || ar > 1 {
		t.Errorf("normalized score %v out of [0, 1]", ar)
	}
	if pb.OptValue <= pb.MinScore {
		t.Errorf("degenerate score range [%v, %v]", pb.MinScore, pb.OptValue)
	}
	score, assign := pb.BestSampled(pr)
	if got := in.Score(assign); got != score {
		t.Errorf("BestSampled score %v != Score(%d) = %v", score, assign, got)
	}
}

// New must build a working problem for every family, and the compiled
// families must report sane normalized ratios.
func TestNewAllFamilies(t *testing.T) {
	for _, fam := range problem.Families() {
		rng := rand.New(rand.NewSource(90))
		spec, err := problem.RandomSpec(fam, 9, rng)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		pb, err := New(spec)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if pb.Inst == nil {
			t.Fatalf("%s: problem did not populate its compiled Inst", fam)
		}
		if (pb.Graph != nil) != (fam == problem.FamilyMaxCut) {
			t.Fatalf("%s: Graph set = %v; only MaxCut carries its graph", fam, pb.Graph != nil)
		}
		pr := testParams(1)
		ar := pb.ApproximationRatio(pr)
		if math.IsNaN(ar) || ar < -1e-12 || ar > 1+1e-12 {
			t.Errorf("%s: approximation ratio %v out of [0, 1]", fam, ar)
		}
	}
}

// Generic canonicalization must preserve the expectation: β mod π and
// (for integer coefficients) γ mod 2π plus the joint conjugation are
// exact symmetries of Hamiltonians with linear terms — while the
// MaxCut-only β mod π/2 fold is NOT, which is why the Inst guard
// exists.
func TestIsingCanonicalizePreservesExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := problem.RandomIsing(8, rng)
	pb := mustIsing(t, in)
	for trial := 0; trial < 8; trial++ {
		pr := NewParams(2)
		for i := range pr.Gamma {
			pr.Gamma[i] = (rng.Float64() - 0.5) * 4 * GammaMax
			pr.Beta[i] = (rng.Float64() - 0.5) * 4 * BetaMax
		}
		canon := pb.Canonicalize(pr)
		for i := range canon.Beta {
			if canon.Beta[i] < 0 || canon.Beta[i] >= math.Pi {
				t.Fatalf("canonical beta[%d] = %v out of [0, π)", i, canon.Beta[i])
			}
		}
		if canon.Gamma[0] < 0 || canon.Gamma[0] > math.Pi+1e-12 {
			t.Fatalf("canonical gamma[0] = %v out of [0, π]", canon.Gamma[0])
		}
		e0, e1 := pb.Expectation(pr), pb.Expectation(canon)
		if math.Abs(e0-e1) > 1e-9*(1+math.Abs(e0)) {
			t.Fatalf("trial %d: canonicalization changed <Score>: %v -> %v", trial, e0, e1)
		}
	}
}

func mustNew(t testing.TB, spec problem.Spec) *Problem {
	t.Helper()
	pb, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

// Number partitioning compiles to Score(z) = −(Σ s_i·n_i)²: perfect
// partitions score 0.
func TestNumberPartitionProblem(t *testing.T) {
	// {5, 4, 3, 2} has perfect partitions, e.g. {5,2} vs {4,3}.
	pb := mustNew(t, problem.Partition([]float64{5, 4, 3, 2}))
	if pb.OptValue != 0 {
		t.Errorf("perfect partition optimum = %v, want 0", pb.OptValue)
	}
	// z = 0110 means sets {5,2} / {4,3}: diff 0.
	if got := pb.ScoreValue(0b0110); got != 0 {
		t.Errorf("score(0110) = %v, want 0", got)
	}
	// All on one side: diff = 14 → score −196.
	if got := pb.ScoreValue(0); got != -196 {
		t.Errorf("score(0000) = %v, want -196", got)
	}
}

func TestNumberPartitionValidation(t *testing.T) {
	if _, err := New(problem.Partition([]float64{1})); err == nil {
		t.Error("single number accepted")
	}
	if _, err := New(problem.Partition([]float64{1, -2})); err == nil {
		t.Error("negative weight accepted")
	}
}

// QAOA on a small partition instance should concentrate probability on
// perfect partitions.
func TestQAOASolvesNumberPartitioning(t *testing.T) {
	pb := mustNew(t, problem.Partition([]float64{5, 4, 3, 2}))
	// Coarse grid at p = 1 over a scaled-down γ range (scores are
	// O(100), so useful γ values are small).
	best := math.Inf(-1)
	var bestPr Params
	for i := 1; i <= 60; i++ {
		for j := 1; j < 60; j++ {
			pr := Params{
				Gamma: []float64{0.2 * float64(i) / 60},
				Beta:  []float64{BetaMax * float64(j) / 60},
			}
			if e := pb.Expectation(pr); e > best {
				best, bestPr = e, pr
			}
		}
	}
	score, assign := pb.BestSampled(bestPr)
	if score != 0 {
		t.Errorf("most probable assignment %04b has score %v, want a perfect partition", assign, score)
	}
	if s := pb.ApproximationRatio(bestPr); s <= 0.5 {
		t.Errorf("optimized normalized score %v not above the uniform baseline", s)
	}
}

// At zero angles the state stays uniform, so ⟨Score⟩ is the mean of the
// diagonal. {1, 2} scores −9, −1, −1, −9: mean −5, normalized 0.5.
func TestDiagonalZeroParamsUniform(t *testing.T) {
	pb := mustNew(t, problem.Partition([]float64{1, 2}))
	if got := pb.Expectation(NewParams(2)); math.Abs(got+5) > 1e-12 {
		t.Errorf("uniform <Score> = %v, want -5", got)
	}
	if s := pb.ApproximationRatio(NewParams(2)); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("uniform normalized score = %v, want 0.5", s)
	}
}

func TestDiagonalEvaluatorCounts(t *testing.T) {
	ev := NewEvaluator(mustNew(t, problem.Partition([]float64{1, 2})), 2)
	if ev.Dim() != 4 {
		t.Fatalf("Dim = %d", ev.Dim())
	}
	x := []float64{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < 3; i++ {
		_ = ev.NegExpectation(x)
	}
	if ev.NFev() != 3 {
		t.Errorf("NFev = %d", ev.NFev())
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong-length vector accepted")
		}
	}()
	ev.NegExpectation([]float64{1})
}

// NewIsing must reject instances it cannot evaluate or rank — an empty
// register, a non-finite coefficient, a constant objective — and report
// the exact Score extremes of the rest.
func TestNewIsingValidation(t *testing.T) {
	bad := map[string]*problem.Instance{
		"no qubits":     {Family: problem.FamilyQUBO, Sense: problem.Maximize},
		"NaN field":     {Family: problem.FamilyQUBO, Sense: problem.Maximize, N: 1, Vars: 1, Linear: []float64{math.NaN()}},
		"constant":      {Family: problem.FamilyQUBO, Sense: problem.Maximize, N: 1, Vars: 1, Offset: 3},
		"no fields set": {Family: problem.FamilyQUBO, Sense: problem.Maximize, N: 2, Vars: 2, Linear: []float64{0, 0}},
	}
	for name, in := range bad {
		if _, err := NewIsing(in); err == nil {
			t.Errorf("%s: instance accepted", name)
		}
	}
	// Value(z) = 1 + 2·s0 − s1 takes 2, −2, 4, 0; minimized, the best
	// Score is −(−2) and the worst −4.
	in := &problem.Instance{Family: problem.FamilyQUBO, Sense: problem.Minimize, N: 2, Vars: 2, Linear: []float64{2, -1}, Offset: 1}
	pb := mustIsing(t, in)
	if pb.OptValue != 2 || pb.MinScore != -4 {
		t.Errorf("opt/min = %v/%v, want 2/-4", pb.OptValue, pb.MinScore)
	}
}

// A MaxCut instance evaluated as a generic diagonal Hamiltonian (its
// compiled instance relabelled, so no MaxCut policy applies) must agree
// with the MaxCut Problem at every parameter point: the policy layer
// changes no evaluation bits, and with a zero worst cut the normalized
// score is exactly the approximation ratio.
func TestDiagonalMatchesMaxCutProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	g := graph.ErdosRenyiConnected(5, 0.5, rng)
	pb := mustProblem(t, g)
	in := mustCompileMaxCut(t, g)
	in.Family = problem.FamilyQUBO
	generic := mustIsing(t, in)
	if generic.Graph != nil || generic.MinScore != 0 || generic.OptValue != pb.OptValue {
		t.Fatalf("generic instance: graph %v, score range [%v, %v], want nil, [0, %v]",
			generic.Graph, generic.MinScore, generic.OptValue, pb.OptValue)
	}
	for trial := 0; trial < 10; trial++ {
		pr := randomParams(rng, 1+rng.Intn(3))
		if a, b := pb.Expectation(pr), generic.Expectation(pr); a != b {
			t.Fatalf("trial %d: MaxCut %v != diagonal %v", trial, a, b)
		}
		if a, b := pb.ApproximationRatio(pr), generic.ApproximationRatio(pr); a != b {
			t.Fatalf("trial %d: MaxCut ratio %v != normalized score %v", trial, a, b)
		}
	}
}
