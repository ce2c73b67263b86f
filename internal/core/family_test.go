package core

import (
	"context"
	"math/rand"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

// Datagen over non-MaxCut families: the ensemble generator must
// produce optimizable instances, records must carry normalized ARs in
// [0, 1], and the family-aware training set must assemble with the
// 4-wide feature rows.
func TestGenerateFamilyEnsembles(t *testing.T) {
	for _, fam := range []string{problem.FamilyQUBO, problem.FamilyPartition} {
		cfg := DataGenConfig{
			NumGraphs: 3,
			Nodes:     6,
			EdgeProb:  0.5,
			MaxDepth:  2,
			Starts:    2,
			Seed:      11,
			Family:    fam,
			Optimizer: &optimize.LBFGSB{Tol: 1e-4, MaxIter: 40},
		}
		data, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		for g, recs := range data.Records {
			if len(recs) != cfg.MaxDepth {
				t.Fatalf("%s: instance %d has %d records, want %d", fam, g, len(recs), cfg.MaxDepth)
			}
			for _, r := range recs {
				if r.AR < -1e-12 || r.AR > 1+1e-12 {
					t.Errorf("%s: instance %d depth %d AR %v out of [0, 1]", fam, g, r.Depth, r.AR)
				}
			}
		}
		ds, err := FamilyTrainingSet(data, []int{0, 1, 2}, 2)
		if err != nil {
			t.Fatalf("%s: training set: %v", fam, err)
		}
		if len(ds.X) != 3 || len(ds.X[0]) != 4 {
			t.Fatalf("%s: training set shape %dx%d, want 3x4", fam, len(ds.X), len(ds.X[0]))
		}
		if code := ds.X[0][3]; code != FamilyCode(fam) {
			t.Errorf("%s: family code column %v != %v", fam, code, FamilyCode(fam))
		}
	}
}

// Family determinism: same (family, seed) must regenerate the same
// instances — the contract that lets non-MaxCut datasets skip
// persistence.
func TestGenerateFamilyDeterministic(t *testing.T) {
	cfg := DataGenConfig{
		NumGraphs: 2, Nodes: 6, EdgeProb: 0.5, MaxDepth: 1, Starts: 1, Seed: 5,
		Family:    problem.FamilyQUBO,
		Optimizer: &optimize.LBFGSB{Tol: 1e-4, MaxIter: 20},
	}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for g := range a.Problems {
		fa, fb := a.Problems[g].Inst.Fingerprint(), b.Problems[g].Inst.Fingerprint()
		if fa != fb {
			t.Errorf("instance %d fingerprint differs across identical configs", g)
		}
		if a.Record(g, 1).NegF != b.Record(g, 1).NegF {
			t.Errorf("instance %d optimum differs across identical configs", g)
		}
	}
}

// A MaxCut spec compiled through qaoa.New must run the flows
// bit-identically to the direct qaoa.NewProblem construction (qaoa.New
// routes MaxCut specs through NewProblem).
func TestSpecEntryPointsMatchDirect(t *testing.T) {
	g := graph.ErdosRenyiConnected(6, 0.5, rand.New(rand.NewSource(9)))
	opt := &optimize.LBFGSB{Tol: 1e-6}
	direct, err := qaoa.NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := qaoa.New(problem.MaxCut(g))
	if err != nil {
		t.Fatal(err)
	}
	want, err := NaiveRunArena(context.Background(), nil, direct, 2, opt, rand.New(rand.NewSource(3)), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NaiveRunArena(context.Background(), nil, viaSpec, 2, opt, rand.New(rand.NewSource(3)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.AR != want.AR || got.NFev != want.NFev {
		t.Errorf("spec-built problem diverges: AR %v vs %v, NFev %d vs %d",
			got.AR, want.AR, got.NFev, want.NFev)
	}
}
