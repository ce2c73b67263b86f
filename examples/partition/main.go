// Number partitioning: QAOA beyond MaxCut through the Ising front-end.
//
// Splits a set of numbers into two halves with equal sums. The
// objective (Σᵢ sᵢ(−1)^{zᵢ})² is a diagonal Ising Hamiltonian, so
// problem.Partition compiles it like any other family and the same QAOA
// machinery (phase separator, RX mixers, the classical optimizers)
// applies unchanged. QAOA maximizes Score(z) = −(difference)², whose
// best value 0 is a perfect partition.
//
//	go run ./examples/partition
package main

import (
	"fmt"
	"math/rand"

	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

func main() {
	numbers := []float64{9, 7, 6, 5, 4, 3}
	fmt.Printf("numbers: %v (sum %v)\n", numbers, sum(numbers))

	pb, err := qaoa.New(problem.Partition(numbers))
	if err != nil {
		panic(err)
	}
	fmt.Printf("best achievable squared difference: %g (0 = perfect partition)\n\n", -pb.OptValue)

	// The cost scale is O(sum²), so useful γ are much smaller than the
	// MaxCut domain; give the optimizer a scaled box.
	const depth = 3
	lo := make([]float64, 2*depth)
	hi := make([]float64, 2*depth)
	for i := 0; i < depth; i++ {
		hi[i] = 0.2                // γ
		hi[depth+i] = qaoa.BetaMax // β
	}
	bounds := optimize.NewBounds(lo, hi)

	ev := qaoa.NewEvaluator(pb, depth)
	opt := &optimize.LBFGSB{Tol: 1e-6}
	rng := rand.New(rand.NewSource(2))
	ms := optimize.MultiStart(opt, ev.NegExpectation, bounds, 20, rng)
	params := qaoa.FromVector(ms.Best.X)

	fmt.Printf("QAOA depth %d, 20 starts, %d QC calls\n", depth, ms.TotalNFev)
	fmt.Printf("⟨Score⟩ = %.4f, normalized score %.4f\n",
		-ms.Best.F, ev.ApproximationRatio(params))

	score, assign := ev.BestSampled(params)
	var left, right []float64
	for i, s := range numbers {
		if (assign>>uint(i))&1 == 0 {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}
	fmt.Printf("partition: %v (sum %g) | %v (sum %g), squared difference %g\n",
		left, sum(left), right, sum(right), -score)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
