package qaoa

import (
	"math"

	"qaoaml/internal/graph"
)

// The QAOA MaxCut landscape has exact symmetries that leave ⟨C⟩
// invariant:
//
//  1. βi → βi ± π/2 for any single stage i. Shifting a mixer angle by
//     π/2 multiplies the stage by X⊗n (up to global phase); the cut
//     value is invariant under complementing every vertex, so X⊗n
//     commutes with every later phase separator and mixer and with the
//     cost observable.
//  2. (γ⃗, β⃗) → (−γ⃗, −β⃗) (complex conjugation of the state; C is a
//     real diagonal observable). Combined with periodicity this is
//     γi → 2π − γi, βi → −βi (mod π/2) applied to all stages jointly.
//
// Optimizers therefore return one of many equivalent optima. For the
// paper's parameter-trend analysis and ML features to be consistent
// across graphs and runs, every optimum must be mapped into one
// fundamental domain: βi ∈ [0, π/2) per stage, and γ1 ∈ [0, π] via the
// joint conjugation.

// BetaPeriod is the effective mixer-angle period π/2 (symmetry 1).
const BetaPeriod = math.Pi / 2

// Canonicalize maps params into the fundamental domain described above
// without changing the expectation value. The receiver is not modified.
func Canonicalize(pr Params) Params {
	p := pr.Depth()
	out := NewParams(p)
	for i := 0; i < p; i++ {
		out.Gamma[i] = mod(pr.Gamma[i], GammaMax)
		out.Beta[i] = mod(pr.Beta[i], BetaPeriod)
	}
	// Joint conjugation to bring γ1 into [0, π].
	if p > 0 && out.Gamma[0] > math.Pi {
		for i := 0; i < p; i++ {
			out.Gamma[i] = mod(-out.Gamma[i], GammaMax)
			out.Beta[i] = mod(-out.Beta[i], BetaPeriod)
		}
	}
	return out
}

// mod returns x modulo m in [0, m).
func mod(x, m float64) float64 {
	r := math.Mod(x, m)
	if r < 0 {
		r += m
	}
	return r
}

// Canonicalize maps params into the problem's fundamental domain. On
// top of the graph-independent symmetries of Canonicalize, graphs in
// which every vertex degree is odd admit one more exact symmetry:
//
//	exp(−iπC) applies phase (−1)^{C(z)} = Π_v s_v^{deg(v)} = Z⊗n
//
// when all degrees are odd, and pushing Z⊗n through the rest of the
// circuit flips every later mixer angle while commuting with the cost.
// Hence γi → γi + π together with βj → −βj for all j ≥ i leaves ⟨C⟩
// unchanged, which folds every γi into [0, π) and (combined with
// conjugation) γ1 into [0, π/2]. The paper's Fig. 2/3 graphs are
// 3-regular, where this folding is what makes the per-stage patterns
// comparable across graphs.
func (pb *Problem) Canonicalize(pr Params) Params {
	// Non-MaxCut Ising instances: linear terms break the bit-flip (X⊗n)
	// symmetry behind the β mod π/2 folding, so only the full-period
	// reductions apply — β mod π always (RX(2β) is π-periodic up to
	// global phase), plus γ mod 2π and the joint conjugation when the
	// doubled coefficients are integral (phase-generator differences are
	// then integers, making the separator 2π-periodic in γ). MaxCut
	// problems carry a compiled Inst too, so the graph is what selects
	// the MaxCut rules below.
	if pb.Graph == nil {
		if pb.Inst.IntegerCoeffs() {
			return canonicalizeIsing(pr)
		}
		return foldBetaPeriod(pr, math.Pi)
	}
	// Non-integer edge weights break the 2π-periodicity of the phase
	// separator, so only the weight-independent β folding applies.
	if pb.Graph.Weighted() && !pb.Graph.IntegerWeighted() {
		return foldBetaOnly(pr)
	}
	out := Canonicalize(pr)
	// The odd-degree γ+π folding relies on unit weights (the parity
	// argument counts edges, not weights).
	if pb.Graph.Weighted() || !allDegreesOdd(pb.Graph) {
		return out
	}
	out = foldGammaModPi(out)
	// Conjugation (γ → −γ, β → −β jointly) followed by refolding brings
	// γ1 from (π/2, π) into [0, π/2].
	if out.Gamma[0] > math.Pi/2 {
		for i := range out.Gamma {
			out.Gamma[i] = mod(-out.Gamma[i], GammaMax)
			out.Beta[i] = mod(-out.Beta[i], BetaPeriod)
		}
		out = foldGammaModPi(out)
	}
	return out
}

// foldBetaOnly applies only the mixer-period symmetry: βi mod π/2 per
// stage, with γ untouched (valid for any edge weights, since the cut
// weight is invariant under complementing every vertex).
func foldBetaOnly(pr Params) Params { return foldBetaPeriod(pr, BetaPeriod) }

// foldBetaPeriod folds every mixer angle into [0, period) with γ
// untouched. Generic Ising instances use period π (the RX(2β) layer
// itself), MaxCut uses π/2 (the extra X⊗n symmetry).
func foldBetaPeriod(pr Params, period float64) Params {
	p := pr.Depth()
	out := NewParams(p)
	copy(out.Gamma, pr.Gamma)
	for i := 0; i < p; i++ {
		out.Beta[i] = mod(pr.Beta[i], period)
	}
	return out
}

// canonicalizeIsing maps params of an integer-coefficient Ising
// instance into its fundamental domain: γi mod 2π, βi mod π, then the
// joint conjugation (γ⃗, β⃗) → (−γ⃗, −β⃗) — exact for any real diagonal
// observable — to bring γ1 into [0, π].
func canonicalizeIsing(pr Params) Params {
	p := pr.Depth()
	out := NewParams(p)
	for i := 0; i < p; i++ {
		out.Gamma[i] = mod(pr.Gamma[i], GammaMax)
		out.Beta[i] = mod(pr.Beta[i], math.Pi)
	}
	if p > 0 && out.Gamma[0] > math.Pi {
		for i := 0; i < p; i++ {
			out.Gamma[i] = mod(-out.Gamma[i], GammaMax)
			out.Beta[i] = mod(-out.Beta[i], math.Pi)
		}
	}
	return out
}

// foldGammaModPi applies the odd-degree symmetry stage by stage,
// reducing every γi into [0, π) while flipping the affected mixers.
func foldGammaModPi(pr Params) Params {
	p := pr.Depth()
	out := NewParams(p)
	copy(out.Gamma, pr.Gamma)
	copy(out.Beta, pr.Beta)
	for i := 0; i < p; i++ {
		out.Gamma[i] = mod(out.Gamma[i], GammaMax)
		if out.Gamma[i] >= math.Pi {
			out.Gamma[i] -= math.Pi
			for j := i; j < p; j++ {
				out.Beta[j] = mod(-out.Beta[j], BetaPeriod)
			}
		}
	}
	return out
}

func allDegreesOdd(g *graph.Graph) bool {
	for v := 0; v < g.N; v++ {
		if g.Degree(v)%2 == 0 {
			return false
		}
	}
	return g.N > 0
}
