package experiments

import (
	"context"
	"fmt"
	"strings"

	"qaoaml/internal/optimize"
)

// SPSAResult extends the paper's optimizer-agnosticism claim to SPSA,
// the optimizer most used for variational circuits on real quantum
// hardware (not one of the paper's four). Rows reuse the Table I cell
// machinery.
type SPSAResult struct {
	Rows []Table1Row
}

// RunSPSAExtension evaluates naive vs two-level initialization under
// SPSA for target depths 2..MaxTarget over the test graphs. The first
// flow error, a cancel or deadline of ctx included, is returned.
func RunSPSAExtension(ctx context.Context, env *Env) (SPSAResult, error) {
	var res SPSAResult
	opt := &optimize.SPSA{Tol: 1e-6, Seed: env.Scale.Seed + 77}
	for pt := 2; pt <= env.Scale.MaxTarget; pt++ {
		row, err := runTable1Cell(ctx, env, opt, pt)
		if err != nil {
			return SPSAResult{}, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the SPSA extension rows in the Table I layout.
func (s SPSAResult) String() string {
	var b strings.Builder
	b.WriteString("Extension: two-level initialization under SPSA (hardware-practical optimizer)\n")
	var rows [][]string
	for _, r := range s.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Depth),
			fmt.Sprintf("%.4f", r.NaiveMeanAR), fmt.Sprintf("%.1f", r.NaiveMeanFC),
			fmt.Sprintf("%.4f", r.TwoMeanAR), fmt.Sprintf("%.1f", r.TwoMeanFC),
			fmt.Sprintf("%.1f", r.FCReductionPct),
		})
	}
	b.WriteString(renderTable([]string{"p", "AR(naive)", "FC(naive)", "AR(2-level)", "FC(2-level)", "FC red. %"}, rows))
	return b.String()
}
