package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"qaoaml/internal/core"
	"qaoaml/internal/optimize"
	"qaoaml/internal/stats"
)

// HierRow compares the three flows at one target depth: naive random
// initialization, the two-level flow, and the hierarchical variant the
// paper sketches in Sec. I(d) (intermediate-depth optimum joins the
// feature vector).
type HierRow struct {
	Depth int

	NaiveMeanFC, NaiveMeanAR float64
	TwoMeanFC, TwoMeanAR     float64
	HierMeanFC, HierMeanAR   float64

	TwoReductionPct  float64
	HierReductionPct float64
}

// HierResult is the hierarchical-vs-two-level ablation (DESIGN.md).
type HierResult struct {
	Optimizer string
	Rows      []HierRow
}

// RunHierarchical evaluates naive vs two-level vs hierarchical with
// L-BFGS-B for target depths 3..MaxTarget over the test graphs. The
// first flow error, a cancel or deadline of ctx included, ends the
// sweep and is returned.
func RunHierarchical(ctx context.Context, env *Env) (HierResult, error) {
	if env.Scale.MaxDepth < 3 {
		return HierResult{}, fmt.Errorf("experiments: hierarchical needs MaxDepth >= 3")
	}
	hpred := core.NewHierPredictor(nil)
	if err := hpred.Train(env.Data, env.TrainIDs); err != nil {
		return HierResult{}, err
	}
	opt := &optimize.LBFGSB{Tol: 1e-6}
	res := HierResult{Optimizer: opt.Name()}

	type sample struct{ nFC, nAR, tFC, tAR, hFC, hAR []float64 }
	for pt := 3; pt <= env.Scale.MaxTarget; pt++ {
		samples := make([]sample, len(env.testSubset()))
		err := env.forEachTestGraph(ctx, func(ctx context.Context, k, g int) error {
			pb := env.Data.Problems[g]
			rng := rand.New(rand.NewSource(env.Scale.Seed + int64(g)*33331 + int64(pt)))
			s := &samples[k]
			for rep := 0; rep < env.Scale.Reps; rep++ {
				nv, err := core.NaiveRunArena(ctx, nil, pb, pt, opt, rng, env.Recorder)
				if err != nil {
					return err
				}
				tl, err := core.TwoLevelArena(ctx, nil, pb, pt, opt, env.Predictor, rng, env.Recorder)
				if err != nil {
					return err
				}
				hr, err := core.Hierarchical(ctx, nil, pb, pt, opt, env.Predictor, hpred, rng, env.Recorder)
				if err != nil {
					return err
				}
				s.nFC = append(s.nFC, float64(nv.NFev))
				s.nAR = append(s.nAR, nv.AR)
				s.tFC = append(s.tFC, float64(tl.TotalNFev))
				s.tAR = append(s.tAR, tl.AR())
				s.hFC = append(s.hFC, float64(hr.TotalNFev))
				s.hAR = append(s.hAR, hr.AR())
			}
			return nil
		})
		if err != nil {
			return HierResult{}, err
		}
		var all sample
		for _, s := range samples {
			all.nFC = append(all.nFC, s.nFC...)
			all.nAR = append(all.nAR, s.nAR...)
			all.tFC = append(all.tFC, s.tFC...)
			all.tAR = append(all.tAR, s.tAR...)
			all.hFC = append(all.hFC, s.hFC...)
			all.hAR = append(all.hAR, s.hAR...)
		}
		row := HierRow{
			Depth:       pt,
			NaiveMeanFC: stats.Mean(all.nFC), NaiveMeanAR: stats.Mean(all.nAR),
			TwoMeanFC: stats.Mean(all.tFC), TwoMeanAR: stats.Mean(all.tAR),
			HierMeanFC: stats.Mean(all.hFC), HierMeanAR: stats.Mean(all.hAR),
		}
		if row.NaiveMeanFC > 0 {
			row.TwoReductionPct = 100 * (1 - row.TwoMeanFC/row.NaiveMeanFC)
			row.HierReductionPct = 100 * (1 - row.HierMeanFC/row.NaiveMeanFC)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the three-way comparison.
func (h HierResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec. I(d) tweak: hierarchical vs two-level vs naive (%s)\n", h.Optimizer)
	var rows [][]string
	for _, r := range h.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Depth),
			fmt.Sprintf("%.1f", r.NaiveMeanFC), fmt.Sprintf("%.4f", r.NaiveMeanAR),
			fmt.Sprintf("%.1f", r.TwoMeanFC), fmt.Sprintf("%.4f", r.TwoMeanAR),
			fmt.Sprintf("%.1f", r.HierMeanFC), fmt.Sprintf("%.4f", r.HierMeanAR),
			fmt.Sprintf("%.1f", r.TwoReductionPct), fmt.Sprintf("%.1f", r.HierReductionPct),
		})
	}
	b.WriteString(renderTable(
		[]string{"p", "naive FC", "AR", "2-level FC", "AR", "hier FC", "AR", "2-lvl red.%", "hier red.%"},
		rows))
	return b.String()
}
