package main

import (
	"fmt"
	"math"
	"time"

	"qaoaml/internal/quantum"
)

// kernelWidths are the register widths the kernel metrics are taken
// at: 8 qubits (paper-table1, fleet-hot) and 12–13 (serve-cold).
var kernelWidths = []int{8, 12, 13}

// Computed bytes per amplitude: what the unfused kernels would read
// and write, counted once per pass. These are not DRAM traffic — at
// n ≤ 16 the whole state is cache-resident — so the rates are cache
// rates. One layer is the uniform fill (write 16 B), the indexed phase
// (read the 4 B index, read and write the amplitude) and one RX pass
// per qubit (read and write the amplitude); a copy reads 16 B and
// writes 16 B.
func layerBytesPerAmp(n int) float64 { return 16 + 4 + 32 + 32*float64(n) }

const copyBytesPerAmp = 16 + 16

// kernelRates times the public kernels the QAOA evaluator runs for one
// stage: the fused layer (uniform fill, diagonal phase, RX on every
// qubit), the diagonal expectation, and a same-size state copy as the
// reference rate. Each figure is the median of reps timed batches.
func kernelRates(n int, reps int) (map[string]float64, error) {
	dim := 1 << uint(n)
	st := quantum.NewState(n)
	src := quantum.NewUniformState(n)
	idx := make([]int32, dim)
	diag := make([]float64, dim)
	factors := make([]complex128, 16)
	for i := range factors {
		factors[i] = complex(math.Cos(0.1*float64(i)), math.Sin(0.1*float64(i)))
	}
	for z := 0; z < dim; z++ {
		idx[z] = int32(z % len(factors))
		diag[z] = float64(z % 7)
	}
	runner := quantum.NewLayerRunner(st)
	phase := func(lo, hi int) { st.MulDiagonalIndexedRange(lo, idx[lo:hi], factors) }

	// Size each timed batch to ~2 ms of work so timer overhead vanishes.
	calls := 1 + (1<<21)/dim
	sink := 0.0
	timeIt := func(f func()) float64 {
		f() // warm
		var per []float64
		for r := 0; r < reps; r++ {
			start := time.Now()
			for c := 0; c < calls; c++ {
				f()
			}
			per = append(per, float64(time.Since(start).Nanoseconds())/float64(calls*dim))
		}
		return median(per)
	}
	layer := timeIt(func() { runner.Layer(0.7, true, phase) })
	expect := timeIt(func() { sink += st.ExpectationDiagonal(diag) })
	cp := timeIt(func() { st.CopyFrom(src) })
	if math.IsNaN(sink) || layer <= 0 || expect <= 0 || cp <= 0 {
		return nil, fmt.Errorf("kernel timing at n=%d is degenerate", n)
	}
	sfx := fmt.Sprintf(".n%d", n)
	return map[string]float64{
		"quantum.layer_ns_per_amp" + sfx:  layer,
		"quantum.expect_ns_per_amp" + sfx: expect,
		"quantum.computed_gbps" + sfx:     layerBytesPerAmp(n) / layer, // bytes/ns = GB/s
		"quantum.copy_gbps" + sfx:         copyBytesPerAmp / cp,
	}, nil
}
