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

// Table1Row is one row of the paper's Table I: one (optimizer, target
// depth) cell with the naive-vs-two-level comparison.
type Table1Row struct {
	Optimizer string
	Depth     int

	NaiveMeanAR, NaiveSDAR float64
	NaiveMeanFC, NaiveSDFC float64

	TwoMeanAR, TwoSDAR float64
	TwoMeanFC, TwoSDFC float64

	FCReductionPct float64
}

// Table1Result is the full table plus the paper's headline aggregate.
type Table1Result struct {
	Rows []Table1Row
	// AvgFCReductionPct is the mean reduction over all rows
	// (paper: 44.9%).
	AvgFCReductionPct float64
	// MaxFCReductionPct is the best row (paper: 65.7%).
	MaxFCReductionPct float64
}

// RunTable1 reproduces Table I: for every local optimizer and target
// depth 2..MaxTarget it solves each test graph Reps times with random
// initialization (naive) and with the two-level flow, reporting
// mean/SD of approximation ratio and function calls. FC counts are raw
// QC-call counts (the paper reports normalized values; the reduction
// percentages are directly comparable). The first flow error, a
// cancel or deadline of ctx included, ends the sweep and is returned.
func RunTable1(ctx context.Context, env *Env) (Table1Result, error) {
	var res Table1Result
	for _, opt := range Optimizers() {
		for pt := 2; pt <= env.Scale.MaxTarget; pt++ {
			row, err := runTable1Cell(ctx, env, opt, pt)
			if err != nil {
				return Table1Result{}, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	if len(res.Rows) > 0 {
		sum := 0.0
		maxRed := res.Rows[0].FCReductionPct
		for _, r := range res.Rows {
			sum += r.FCReductionPct
			if r.FCReductionPct > maxRed {
				maxRed = r.FCReductionPct
			}
		}
		res.AvgFCReductionPct = sum / float64(len(res.Rows))
		res.MaxFCReductionPct = maxRed
	}
	return res, nil
}

type cellSample struct {
	naiveAR, naiveFC []float64
	twoAR, twoFC     []float64
}

// runTable1Cell collects Reps runs per test graph for one cell,
// parallelized over graphs with per-graph deterministic seeds.
func runTable1Cell(ctx context.Context, env *Env, opt optimize.Optimizer, pt int) (Table1Row, error) {
	samples := make([]cellSample, len(env.testSubset()))
	err := env.forEachTestGraph(ctx, func(ctx context.Context, k, g int) error {
		pb := env.Data.Problems[g]
		rng := rand.New(rand.NewSource(env.Scale.Seed + int64(g)*104729 + int64(pt)*31 + int64(len(opt.Name()))))
		s := &samples[k]
		for rep := 0; rep < env.Scale.Reps; rep++ {
			nv, err := core.NaiveRunArena(ctx, nil, pb, pt, opt, rng, env.Recorder)
			if err != nil {
				return err
			}
			s.naiveAR = append(s.naiveAR, nv.AR)
			s.naiveFC = append(s.naiveFC, float64(nv.NFev))
			tl, err := core.TwoLevelArena(ctx, nil, pb, pt, opt, env.Predictor, rng, env.Recorder)
			if err != nil {
				return err
			}
			s.twoAR = append(s.twoAR, tl.AR())
			s.twoFC = append(s.twoFC, float64(tl.TotalNFev))
		}
		return nil
	})
	if err != nil {
		return Table1Row{}, err
	}

	var all cellSample
	for _, s := range samples {
		all.naiveAR = append(all.naiveAR, s.naiveAR...)
		all.naiveFC = append(all.naiveFC, s.naiveFC...)
		all.twoAR = append(all.twoAR, s.twoAR...)
		all.twoFC = append(all.twoFC, s.twoFC...)
	}
	row := Table1Row{
		Optimizer:   opt.Name(),
		Depth:       pt,
		NaiveMeanAR: stats.Mean(all.naiveAR), NaiveSDAR: stats.StdDev(all.naiveAR),
		NaiveMeanFC: stats.Mean(all.naiveFC), NaiveSDFC: stats.StdDev(all.naiveFC),
		TwoMeanAR: stats.Mean(all.twoAR), TwoSDAR: stats.StdDev(all.twoAR),
		TwoMeanFC: stats.Mean(all.twoFC), TwoSDFC: stats.StdDev(all.twoFC),
	}
	if row.NaiveMeanFC > 0 {
		row.FCReductionPct = 100 * (1 - row.TwoMeanFC/row.NaiveMeanFC)
	}
	return row, nil
}

// String renders the table in the layout of the paper's Table I.
func (t Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table I: run-time comparison, naive random initialization vs two-level approach\n")
	b.WriteString(renderTable(
		[]string{"Optimizer", "p", "AR(naive)", "SD", "FC(naive)", "SD", "AR(2-level)", "SD", "FC(2-level)", "SD", "FC red. %"},
		func() [][]string {
			var rows [][]string
			for _, r := range t.Rows {
				rows = append(rows, []string{
					r.Optimizer,
					fmt.Sprintf("%d", r.Depth),
					fmt.Sprintf("%.4f", r.NaiveMeanAR),
					fmt.Sprintf("%.4f", r.NaiveSDAR),
					fmt.Sprintf("%.1f", r.NaiveMeanFC),
					fmt.Sprintf("%.1f", r.NaiveSDFC),
					fmt.Sprintf("%.4f", r.TwoMeanAR),
					fmt.Sprintf("%.4f", r.TwoSDAR),
					fmt.Sprintf("%.1f", r.TwoMeanFC),
					fmt.Sprintf("%.1f", r.TwoSDFC),
					fmt.Sprintf("%.1f", r.FCReductionPct),
				})
			}
			return rows
		}(),
	))
	fmt.Fprintf(&b, "average FC reduction: %.1f%% (paper: 44.9%%), max: %.1f%% (paper: 65.7%%)\n",
		t.AvgFCReductionPct, t.MaxFCReductionPct)
	return b.String()
}
