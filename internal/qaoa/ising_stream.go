package qaoa

import (
	"math"
	"math/bits"

	"qaoaml/internal/problem"
	"qaoaml/internal/quantum"
)

// Streaming cost path for large instances. The materialized diagKernel
// needs a 2^n float64 Score table plus a 2^n int32 index table — 12 MiB
// at n = 20, 200 MiB at n = 24 — on top of the state vector itself. The
// streaming kernel eliminates both: Score(z) is recomputed on the fly,
// chunk by chunk over the same fixed geometry every other kernel uses
// (quantum.ChunkLen amplitudes per chunk).
//
// The Hamiltonian is evaluated through the doubled accumulator
//
//	T(z) = Σ_q (2J_q)·s_i·s_j + Σ_i (2h_i)·s_i
//
// so that instances with half-integral couplings (every compiled
// MaxCut: J = −w/2) still take the exact int64 path. The observable
// and phase generator recover from T exactly:
//
//	Score(z) = sense·Offset + sense·T(z)/2
//	gen(z)   = −sense·T(z)/2
//
// (phase factor e^{iγ·gen(z)}, matching diagKernel's convention: for a
// compiled integer-weight MaxCut, T = 2C − m, so gen = (m − 2C)/2 and
// Score = C bit-for-bit — the identity the MaxCut-via-QUBO acceptance
// tests assert).
//
// Within a chunk, the low cb = log2(chunk length) bits of z run through
// all values while the high bits are frozen, so T splits three ways:
//
//   - quadratic terms with both spins below cb and linear terms below
//     cb fold into a 2^cb table (≤ 256 KiB — chunk-sized, not
//     state-sized) built once at construction and shared by every chunk;
//   - terms entirely in the high bits are a per-chunk constant,
//     computed once per chunk;
//   - cross terms (i < cb ≤ j) reduce, for frozen high bits, to a
//     per-low-spin linear form base + Σ_{set bits} d_u. It updates in
//     O(1) per increment of the chunk index: when zl−1 → zl flips the
//     trailing run up to bit t = TrailingZeros(zl), the sum changes by
//     d_t − Σ_{u<t} d_u — a prefix-sum lookup.
//
// All per-chunk values depend only on the chunk bounds, so results are
// bit-identical at every GOMAXPROCS; on the integer path they are also
// bit-identical to the materialized Ising kernel, which derives its
// tables from the same T accumulator. Float-coefficient instances
// stream per-amplitude phases through math.Sincos (no finite
// distinct-value set to memoize) and agree with the materialized path
// to rounding error.

// StreamingThreshold is the qubit count from which problems stop
// materializing the 2^n Score table and evaluate in streaming mode. At
// n = 13 the table pair costs 96 KiB + 32 KiB — already bigger than the
// reduction chunk — and doubles per qubit.
const StreamingThreshold = 13

// maxStreamFactorTable caps the distinct-value phase-factor table of
// the integer streaming path. Instances whose T range exceeds it
// (extreme coefficients) fall back to per-amplitude Sincos streaming.
const maxStreamFactorTable = 1 << 16

// maxStreamChunkBits bounds the chunk width the kernel's stack arrays
// are sized for; quantum.LargeReduceChunkLen = 2^15 keeps us below it.
const maxStreamChunkBits = 16

// streamScratch holds one chunk's worth of generated cost data.
type streamScratch struct {
	idx []int32
	gen []float64
}

// scratchList recycles chunk scratch through a bounded channel, one
// list per kernel. A global sync.Pool has per-P caches that every GC
// clears, so long runs would re-allocate scratch once per P per GC
// cycle — bytes/op growing with GOMAXPROCS. A channel freelist survives
// GC and is shared across Ps: in steady state at most maxPoolWorkers
// buffers circulate and warm chunk bodies allocate nothing.
type scratchList struct {
	ch chan *streamScratch
}

func newScratchList() scratchList {
	return scratchList{ch: make(chan *streamScratch, 64)}
}

func (l scratchList) get() *streamScratch {
	select {
	case ws := <-l.ch:
		return ws
	default:
		return new(streamScratch)
	}
}

func (l scratchList) put(ws *streamScratch) {
	select {
	case l.ch <- ws:
	default:
	}
}

func (ws *streamScratch) idxBuf(n int) []int32 {
	if cap(ws.idx) < n {
		ws.idx = make([]int32, n)
	}
	return ws.idx[:n]
}

func (ws *streamScratch) genBuf(n int) []float64 {
	if cap(ws.gen) < n {
		ws.gen = make([]float64, n)
	}
	return ws.gen[:n]
}

// isingStreamKernel evaluates an arbitrary diagonal Hamiltonian from
// its term lists. Immutable after construction; scratch comes from the
// kernel's own bounded freelist.
type isingStreamKernel struct {
	scratch scratchList

	n           int
	sense       float64 // +1 maximize, −1 minimize
	senseOffset float64 // sense·Offset: the constant part of Score
	cb          int     // chunk width in bits

	// Low-low table: T restricted to terms living in the chunk bits.
	tllInt []int64
	tllF   []float64

	// Cross quadratic terms (low spin u < cb ≤ high spin v), CSR by u.
	crossStart []int32
	crossVert  []int32
	crossAInt  []int64
	crossAF    []float64

	// Terms entirely in the high bits: quadratic (u, v ≥ cb) and linear.
	hhU, hhV []int32
	hhAInt   []int64
	hhAF     []float64
	hiLinIdx []int32
	hiLinInt []int64
	hiLinF   []float64

	// Integer path: T is exact int64 in [tmin, −tmin] and shares the
	// parity of tmin (flipping a spin moves T by an even 2a), so the
	// nfac = −tmin+1 values it takes index the factor table as
	// (T−tmin)/2.
	integer bool
	tmin    int64
	nfac    int
}

// newIsingStreamKernel builds the streaming kernel for an instance.
func newIsingStreamKernel(in *problem.Instance) *isingStreamKernel {
	k := &isingStreamKernel{
		scratch:     newScratchList(),
		n:           in.N,
		sense:       in.Sense.Sign(),
		senseOffset: in.Sense.Sign() * in.Offset,
	}
	dim := 1 << uint(in.N)
	clen := quantum.ChunkLen(dim)
	if clen > dim {
		clen = dim
	}
	k.cb = bits.TrailingZeros(uint(clen))

	// Doubled coefficients: a_q = 2J_q per quadratic term, g_i = 2h_i.
	if in.IntegerCoeffs() {
		var span int64
		for _, t := range in.Quad {
			span += int64(math.Abs(2 * t.W))
		}
		for _, h := range in.Linear {
			span += int64(math.Abs(2 * h))
		}
		if span+1 <= maxStreamFactorTable {
			k.integer = true
			k.tmin = -span
			k.nfac = int(span + 1)
		}
	}

	// Classify quadratic terms against the chunk width (i < j already).
	var lowI, lowJ []int32
	var lowA []float64
	k.crossStart = make([]int32, k.cb+1)
	for _, t := range in.Quad {
		switch {
		case t.J < k.cb:
			lowI, lowJ = append(lowI, int32(t.I)), append(lowJ, int32(t.J))
			lowA = append(lowA, 2*t.W)
		case t.I >= k.cb:
			k.hhU, k.hhV = append(k.hhU, int32(t.I)), append(k.hhV, int32(t.J))
			k.hhAF = append(k.hhAF, 2*t.W)
		default:
			k.crossStart[t.I+1]++
		}
	}
	for u := 1; u <= k.cb; u++ {
		k.crossStart[u] += k.crossStart[u-1]
	}
	nCross := int(k.crossStart[k.cb])
	k.crossVert = make([]int32, nCross)
	k.crossAF = make([]float64, nCross)
	fill := append([]int32(nil), k.crossStart[:k.cb]...)
	for _, t := range in.Quad {
		if t.J >= k.cb && t.I < k.cb {
			k.crossVert[fill[t.I]] = int32(t.J)
			k.crossAF[fill[t.I]] = 2 * t.W
			fill[t.I]++
		}
	}
	// Linear terms split by chunk width; low ones fold into the table.
	var lowLinG []float64
	lowLinIdx := []int32{}
	for i, h := range in.Linear {
		if h == 0 {
			continue
		}
		if i < k.cb {
			lowLinIdx = append(lowLinIdx, int32(i))
			lowLinG = append(lowLinG, 2*h)
		} else {
			k.hiLinIdx = append(k.hiLinIdx, int32(i))
			k.hiLinF = append(k.hiLinF, 2*h)
		}
	}

	// One-time low-bits table: T over the in-chunk terms per local state.
	nLow := 1 << uint(k.cb)
	spin := func(z, b int32) float64 {
		if (z>>uint(b))&1 == 0 {
			return 1
		}
		return -1
	}
	if k.integer {
		k.crossAInt = make([]int64, len(k.crossAF))
		for i, a := range k.crossAF {
			k.crossAInt[i] = int64(a)
		}
		k.hhAInt = make([]int64, len(k.hhAF))
		for i, a := range k.hhAF {
			k.hhAInt[i] = int64(a)
		}
		k.hiLinInt = make([]int64, len(k.hiLinF))
		for i, g := range k.hiLinF {
			k.hiLinInt[i] = int64(g)
		}
		k.tllInt = make([]int64, nLow)
		for z := range k.tllInt {
			var t int64
			for i := range lowI {
				t += int64(lowA[i]) * int64(spin(int32(z), lowI[i])*spin(int32(z), lowJ[i]))
			}
			for i, g := range lowLinG {
				t += int64(g) * int64(spin(int32(z), lowLinIdx[i]))
			}
			k.tllInt[z] = t
		}
	} else {
		k.tllF = make([]float64, nLow)
		for z := range k.tllF {
			t := 0.0
			for i := range lowI {
				t += lowA[i] * spin(int32(z), lowI[i]) * spin(int32(z), lowJ[i])
			}
			for i, g := range lowLinG {
				t += g * spin(int32(z), lowLinIdx[i])
			}
			k.tllF[z] = t
		}
	}
	return k
}

// scoreFromT and genFromT are the only places T becomes a float: both
// operations (int64→float64 for |T| well under 2^53, halving, sign
// flip) are exact, so every consumer sees the same doubles.
func (k *isingStreamKernel) scoreFromT(t int64) float64 {
	return k.senseOffset + k.sense*(float64(t)/2)
}

func (k *isingStreamKernel) genFromT(t int64) float64 {
	return -k.sense * (float64(t) / 2)
}

// chunkSetupInt computes the chunk-constant part of T for the chunk
// based at lo — high-high quadratic terms, high linear terms, and the
// cross-term contribution at all-zero low bits — plus the per-low-spin
// flip deltas d with prefix sums p.
func (k *isingStreamKernel) chunkSetupInt(lo uint64, d, p *[maxStreamChunkBits]int64) int64 {
	var base int64
	for i, u := range k.hhU {
		if (lo>>uint(u))&1 == (lo>>uint(k.hhV[i]))&1 {
			base += k.hhAInt[i]
		} else {
			base -= k.hhAInt[i]
		}
	}
	for i, q := range k.hiLinIdx {
		if (lo>>uint(q))&1 == 0 {
			base += k.hiLinInt[i]
		} else {
			base -= k.hiLinInt[i]
		}
	}
	var acc int64
	for u := 0; u < k.cb; u++ {
		p[u] = acc
		var du int64
		for e := k.crossStart[u]; e < k.crossStart[u+1]; e++ {
			av := k.crossAInt[e]
			if (lo>>uint(k.crossVert[e]))&1 != 0 {
				av = -av // s_v = −1 freezes the term to −a·s_u
			}
			base += av // low bit clear: s_u = +1
			du -= 2 * av
		}
		d[u] = du
		acc += du
	}
	return base
}

// chunkSetupFloat is chunkSetupInt with float64 coefficients.
func (k *isingStreamKernel) chunkSetupFloat(lo uint64, d, p *[maxStreamChunkBits]float64) float64 {
	base := 0.0
	for i, u := range k.hhU {
		if (lo>>uint(u))&1 == (lo>>uint(k.hhV[i]))&1 {
			base += k.hhAF[i]
		} else {
			base -= k.hhAF[i]
		}
	}
	for i, q := range k.hiLinIdx {
		if (lo>>uint(q))&1 == 0 {
			base += k.hiLinF[i]
		} else {
			base -= k.hiLinF[i]
		}
	}
	acc := 0.0
	for u := 0; u < k.cb; u++ {
		p[u] = acc
		du := 0.0
		for e := k.crossStart[u]; e < k.crossStart[u+1]; e++ {
			av := k.crossAF[e]
			if (lo>>uint(k.crossVert[e]))&1 != 0 {
				av = -av
			}
			base += av
			du -= 2 * av
		}
		d[u] = du
		acc += du
	}
	return base
}

// fillScore writes Score(z) for the chunk [lo, hi).
func (k *isingStreamKernel) fillScore(lo, hi int, score []float64) {
	if k.integer {
		var d, p [maxStreamChunkBits]int64
		base := k.chunkSetupInt(uint64(lo), &d, &p)
		tll := k.tllInt
		var lin int64
		score[0] = k.scoreFromT(base + tll[0])
		for i := 1; i < hi-lo; i++ {
			t := bits.TrailingZeros64(uint64(i))
			lin += d[t] - p[t]
			score[i] = k.scoreFromT(base + tll[i] + lin)
		}
		return
	}
	var d, p [maxStreamChunkBits]float64
	base := k.chunkSetupFloat(uint64(lo), &d, &p)
	tll := k.tllF
	lin := 0.0
	score[0] = k.senseOffset + k.sense*((base+tll[0])/2)
	for i := 1; i < hi-lo; i++ {
		t := bits.TrailingZeros64(uint64(i))
		lin += d[t] - p[t]
		score[i] = k.senseOffset + k.sense*((base+tll[i]+lin)/2)
	}
}

// fillIdx writes the factor-table index (T(z)−tmin)/2 for the chunk
// [lo, hi). Integer path only.
func (k *isingStreamKernel) fillIdx(lo, hi int, idx []int32) {
	var d, p [maxStreamChunkBits]int64
	base := k.chunkSetupInt(uint64(lo), &d, &p) - k.tmin
	tll := k.tllInt
	var lin int64
	idx[0] = int32((base + tll[0]) >> 1)
	for i := 1; i < hi-lo; i++ {
		t := bits.TrailingZeros64(uint64(i))
		lin += d[t] - p[t]
		idx[i] = int32((base + tll[i] + lin) >> 1)
	}
}

// fillGen writes the phase generator gen(z) = −sense·T(z)/2 for the
// chunk [lo, hi).
func (k *isingStreamKernel) fillGen(lo, hi int, gen []float64) {
	if k.integer {
		var d, p [maxStreamChunkBits]int64
		base := k.chunkSetupInt(uint64(lo), &d, &p)
		tll := k.tllInt
		var lin int64
		gen[0] = k.genFromT(base + tll[0])
		for i := 1; i < hi-lo; i++ {
			t := bits.TrailingZeros64(uint64(i))
			lin += d[t] - p[t]
			gen[i] = k.genFromT(base + tll[i] + lin)
		}
		return
	}
	var d, p [maxStreamChunkBits]float64
	base := k.chunkSetupFloat(uint64(lo), &d, &p)
	tll := k.tllF
	lin := 0.0
	gen[0] = -k.sense * ((base + tll[0]) / 2)
	for i := 1; i < hi-lo; i++ {
		t := bits.TrailingZeros64(uint64(i))
		lin += d[t] - p[t]
		gen[i] = -k.sense * ((base + tll[i] + lin) / 2)
	}
}

// --- costKernel implementation ---

func (k *isingStreamKernel) qubits() int { return k.n }

func (k *isingStreamKernel) factorLen() int { return k.nfac }

// prepareFactors fills the per-distinct-T phase factor table
// exp(iγ·gen(T)) with exactly the genFromT doubles fillGen streams, so
// indexed application and generator-streamed application agree bit for
// bit. The float path streams per-amplitude phases instead.
func (k *isingStreamKernel) prepareFactors(factors []complex128, gamma float64, conj bool) {
	if !k.integer {
		return
	}
	sign := 1.0
	if conj {
		sign = -1
	}
	for j := range factors {
		sin, cos := math.Sincos(gamma * k.genFromT(k.tmin+2*int64(j)))
		factors[j] = complex(cos, sign*sin)
	}
}

func (k *isingStreamKernel) applyPhaseRange(st *quantum.State, factors []complex128, gamma float64, conj bool, off, lo, hi int) {
	ws := k.scratch.get()
	if k.integer {
		idx := ws.idxBuf(hi - lo)
		k.fillIdx(off+lo, off+hi, idx)
		st.MulDiagonalIndexedRange(lo, idx, factors)
	} else {
		scale := gamma
		if conj {
			scale = -gamma
		}
		gen := ws.genBuf(hi - lo)
		k.fillGen(off+lo, off+hi, gen)
		st.MulPhaseGenRange(lo, gen, scale)
	}
	k.scratch.put(ws)
}

func (k *isingStreamKernel) applyPhase2Range(a, b *quantum.State, factors []complex128, gamma float64, conj bool, off, lo, hi int) {
	ws := k.scratch.get()
	if k.integer {
		idx := ws.idxBuf(hi - lo)
		k.fillIdx(off+lo, off+hi, idx)
		a.MulDiagonalIndexedRange(lo, idx, factors)
		b.MulDiagonalIndexedRange(lo, idx, factors)
	} else {
		scale := gamma
		if conj {
			scale = -gamma
		}
		gen := ws.genBuf(hi - lo)
		k.fillGen(off+lo, off+hi, gen)
		a.MulPhaseGenRange(lo, gen, scale)
		b.MulPhaseGenRange(lo, gen, scale)
	}
	k.scratch.put(ws)
}

func (k *isingStreamKernel) expectChunk(st *quantum.State, off, lo, hi int) float64 {
	ws := k.scratch.get()
	score := ws.genBuf(hi - lo)
	k.fillScore(off+lo, off+hi, score)
	e := st.ExpectationDiagonalRange(lo, score)
	k.scratch.put(ws)
	return e
}

func (k *isingStreamKernel) seedChunkValue(adj, st *quantum.State, off, lo, hi int) float64 {
	ws := k.scratch.get()
	score := ws.genBuf(hi - lo)
	k.fillScore(off+lo, off+hi, score)
	e := adj.SeedDiagonalRange(st, lo, score)
	k.scratch.put(ws)
	return e
}

func (k *isingStreamKernel) genInnerChunk(adj, st *quantum.State, off, lo, hi int) (re, im float64) {
	ws := k.scratch.get()
	gen := ws.genBuf(hi - lo)
	k.fillGen(off+lo, off+hi, gen)
	re, im = adj.InnerProductDiagonalRange(st, lo, gen)
	k.scratch.put(ws)
	return re, im
}
