// Package quantum implements the exact dense state-vector simulator the
// reproduction uses in place of QuTiP. A State holds the 2^n complex
// amplitudes of an n-qubit register; gates are applied in place. Qubit 0
// is the least-significant bit of the basis-state index.
//
// The simulator is exact (no noise model): the paper's evaluation runs
// on a noiseless QuTiP simulation, so the optimization landscapes seen
// by the classical optimizers here are identical in kind.
package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync/atomic"
)

// MaxQubits bounds state allocation (2^30 amplitudes = 16 GiB). The
// practical ceiling for flat-array evaluations is n = 26–28 depending
// on how many state buffers the caller holds (a gradient workspace
// holds two); n = 29–30 is the territory of the sharded representation
// (shard.go), which splits the register across independently allocated
// shards with the same two-state-vector budget.
const MaxQubits = 30

// State is the dense state vector of an n-qubit register.
type State struct {
	n    int
	amps []complex128
	// serial pins every kernel on this state to the calling goroutine.
	// Shard-local states set it so in-shard work never re-enters the
	// worker pool from a shard worker (locality is the point of a shard).
	serial bool
}

// ampBytes tracks cumulative amplitude-array allocation across the
// process, so benchmarks can report the high-water state memory of a
// workspace (states are held for the workspace lifetime, so the delta
// across setup is the live footprint).
var ampBytes atomic.Int64

// AmpBytesAllocated returns the cumulative bytes of amplitude storage
// allocated by NewState, Clone and NewShardedState since process start.
func AmpBytesAllocated() int64 { return ampBytes.Load() }

// NewState returns the n-qubit computational basis state |0...0⟩.
func NewState(n int) *State {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("quantum: qubit count %d out of [1,%d]", n, MaxQubits))
	}
	s := &State{n: n, amps: make([]complex128, 1<<uint(n))}
	ampBytes.Add(int64(16) << uint(n))
	s.amps[0] = 1
	return s
}

// NewBasisState returns the computational basis state |index⟩.
func NewBasisState(n int, index uint64) *State {
	s := NewState(n)
	if index >= uint64(len(s.amps)) {
		panic(fmt.Sprintf("quantum: basis index %d out of range for %d qubits", index, n))
	}
	s.amps[0] = 0
	s.amps[index] = 1
	return s
}

// NumQubits returns the register width.
func (s *State) NumQubits() int { return s.n }

// Dim returns the Hilbert-space dimension 2^n.
func (s *State) Dim() int { return len(s.amps) }

// Amplitude returns the amplitude of basis state |index⟩.
func (s *State) Amplitude(index uint64) complex128 { return s.amps[index] }

// Clone returns a deep copy of s.
func (s *State) Clone() *State {
	c := &State{n: s.n, amps: make([]complex128, len(s.amps)), serial: s.serial}
	ampBytes.Add(int64(16 * len(s.amps)))
	copy(c.amps, s.amps)
	return c
}

// Norm returns the 2-norm of the state vector (1 for a valid state).
// The sum runs over the fixed reduction geometry (reduce.go), so it is
// bit-identical at every GOMAXPROCS setting.
func (s *State) Norm() float64 {
	if reduceChunkCount(len(s.amps)) == 1 {
		// Single chunk: no reduction closure, no allocation.
		return math.Sqrt(normSqPartial(s.amps))
	}
	t, _ := ReduceChunks(len(s.amps), func(lo, hi int) (float64, float64) {
		return normSqPartial(s.amps[lo:hi]), 0
	})
	return math.Sqrt(t)
}

// normSqPartial returns Σ|a|² over one contiguous amplitude range.
func normSqPartial(amps []complex128) float64 {
	t := 0.0
	for _, a := range amps {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return t
}

// Normalize rescales the state to unit norm. It panics on a zero vector.
func (s *State) Normalize() {
	n := s.Norm()
	if n == 0 {
		panic("quantum: cannot normalize zero state")
	}
	inv := complex(1/n, 0)
	if s.parallel() {
		runRange(len(s.amps), true, func(lo, hi int) {
			amps := s.amps[lo:hi]
			for i := range amps {
				amps[i] *= inv
			}
		})
		return
	}
	for i := range s.amps {
		s.amps[i] *= inv
	}
}

// Probability returns |⟨index|ψ⟩|².
func (s *State) Probability(index uint64) float64 {
	a := s.amps[index]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Probabilities returns the full measurement distribution over the
// computational basis.
func (s *State) Probabilities() []float64 {
	p := make([]float64, len(s.amps))
	for i, a := range s.amps {
		p[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

// InnerProduct returns ⟨s|t⟩. It panics if widths differ. The sum runs
// over the fixed reduction geometry (reduce.go): bit-identical results
// at every GOMAXPROCS setting.
func (s *State) InnerProduct(t *State) complex128 {
	if s.n != t.n {
		panic("quantum: qubit count mismatch in InnerProduct")
	}
	if reduceChunkCount(len(s.amps)) == 1 {
		re, im := dotPartial(s.amps, t.amps)
		return complex(re, im)
	}
	re, im := ReduceChunks(len(s.amps), func(lo, hi int) (float64, float64) {
		return dotPartial(s.amps[lo:hi], t.amps[lo:hi])
	})
	return complex(re, im)
}

// dotPartial returns Σ conj(sa[i])·ta[i] over one contiguous range, in
// split real/imag form.
func dotPartial(sa, ta []complex128) (re, im float64) {
	for i, a := range sa {
		b := ta[i]
		re += real(a)*real(b) + imag(a)*imag(b)
		im += real(a)*imag(b) - imag(a)*real(b)
	}
	return re, im
}

// Fidelity returns |⟨s|t⟩|².
func (s *State) Fidelity(t *State) float64 {
	ip := s.InnerProduct(t)
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// ExpectationDiagonal returns ⟨ψ|D|ψ⟩ for a diagonal observable D given
// by its diagonal in the computational basis. This is how the QAOA
// MaxCut cost Hamiltonian is evaluated. It panics on a length mismatch.
func (s *State) ExpectationDiagonal(diag []float64) float64 {
	if len(diag) != len(s.amps) {
		panic(fmt.Sprintf("quantum: diagonal length %d != dim %d", len(diag), len(s.amps)))
	}
	if reduceChunkCount(len(s.amps)) == 1 {
		return s.ExpectationDiagonalRange(0, diag)
	}
	e, _ := ReduceChunks(len(s.amps), func(lo, hi int) (float64, float64) {
		return s.ExpectationDiagonalRange(lo, diag[lo:hi]), 0
	})
	return e
}

// ExpectationDiagonalRange returns the partial sum Σ |amp[lo+i]|²·diag[i]
// over the range [lo, lo+len(diag)) — one chunk's contribution to
// ExpectationDiagonal. Streaming cost kernels call it with a diagonal
// slice they fill per chunk, inside ReduceChunks, so the combined value
// is bit-identical to the materialized-table path.
func (s *State) ExpectationDiagonalRange(lo int, diag []float64) float64 {
	s.checkRange(lo, len(diag))
	e := 0.0
	for i, d := range diag {
		a := s.amps[lo+i]
		e += (real(a)*real(a) + imag(a)*imag(a)) * d
	}
	return e
}

// ArgmaxProbability returns the basis state with the largest |amp|² and
// that probability, scanning in ascending index order (first maximum
// wins). It replaces Probabilities()-then-scan readouts, which allocate
// a 2^n table.
func (s *State) ArgmaxProbability() (uint64, float64) {
	best := -1.0
	var arg uint64
	for i, a := range s.amps {
		if p := real(a)*real(a) + imag(a)*imag(a); p > best {
			best = p
			arg = uint64(i)
		}
	}
	return arg, best
}

// checkRange panics unless [lo, lo+length) lies within the amplitude
// array.
func (s *State) checkRange(lo, length int) {
	if lo < 0 || length < 0 || lo+length > len(s.amps) {
		panic(fmt.Sprintf("quantum: range [%d,%d) out of dim %d", lo, lo+length, len(s.amps)))
	}
}

// Sample draws one computational-basis measurement outcome.
func (s *State) Sample(rng *rand.Rand) uint64 {
	r := rng.Float64()
	acc := 0.0
	for i, a := range s.amps {
		acc += real(a)*real(a) + imag(a)*imag(a)
		if r < acc {
			return uint64(i)
		}
	}
	return uint64(len(s.amps) - 1) // roundoff: return last state
}

// SampleCounts draws shots measurements and returns outcome counts as a
// map. It is a convenience wrapper over SampleOutcomes (sample.go),
// which is the allocation-lean form; both consume the RNG identically
// to the per-shot linear scan (one Float64 per shot, same outcome per
// shot).
func (s *State) SampleCounts(shots int, rng *rand.Rand) map[uint64]int {
	pairs := s.SampleOutcomes(shots, rng)
	counts := make(map[uint64]int, len(pairs))
	for _, p := range pairs {
		counts[p.Outcome] = p.Count
	}
	return counts
}

// --- single-qubit gates ---

// Apply1Q applies the 2×2 unitary [[u00,u01],[u10,u11]] to qubit q.
// Large registers split the 2^(n−1) amplitude pairs across workers;
// each pair is written by exactly one worker with the same arithmetic
// the serial pass uses, so the result is bit-identical at every
// GOMAXPROCS.
func (s *State) Apply1Q(q int, u00, u01, u10, u11 complex128) {
	s.checkQubit(q)
	bit := 1 << uint(q)
	if s.parallel() {
		runRange(len(s.amps)>>1, true, func(lo, hi int) {
			s.apply1QRange(bit, lo, hi, u00, u01, u10, u11)
		})
		return
	}
	s.apply1QRange(bit, 0, len(s.amps)>>1, u00, u01, u10, u11)
}

// apply1QRange applies the 2×2 kernel for pair representatives
// r ∈ [rlo, rhi). Representative r maps to the lower index of the pair
// by re-inserting a cleared target bit: i = ((r &^ (bit−1)) << 1) |
// (r & (bit−1)); ascending r walks the same (base, offset) order as the
// classic base-stride loop.
func (s *State) apply1QRange(bit, rlo, rhi int, u00, u01, u10, u11 complex128) {
	mask := bit - 1
	for r := rlo; r < rhi; {
		i := ((r &^ mask) << 1) | (r & mask)
		run := bit - (r & mask)
		if run > rhi-r {
			run = rhi - r
		}
		for k := 0; k < run; k++ {
			ii := i + k
			j := ii | bit
			a, b := s.amps[ii], s.amps[j]
			s.amps[ii] = u00*a + u01*b
			s.amps[j] = u10*a + u11*b
		}
		r += run
	}
}

// H applies the Hadamard gate to qubit q.
func (s *State) H(q int) {
	h := complex(1/math.Sqrt2, 0)
	s.Apply1Q(q, h, h, h, -h)
}

// X applies the Pauli-X gate to qubit q.
func (s *State) X(q int) { s.Apply1Q(q, 0, 1, 1, 0) }

// Y applies the Pauli-Y gate to qubit q.
func (s *State) Y(q int) { s.Apply1Q(q, 0, complex(0, -1), complex(0, 1), 0) }

// Z applies the Pauli-Z gate to qubit q.
func (s *State) Z(q int) { s.Apply1Q(q, 1, 0, 0, -1) }

// RX applies RX(θ) = exp(-iθX/2) to qubit q.
func (s *State) RX(q int, theta float64) {
	c := complex(math.Cos(theta/2), 0)
	ms := complex(0, -math.Sin(theta/2))
	s.Apply1Q(q, c, ms, ms, c)
}

// RY applies RY(θ) = exp(-iθY/2) to qubit q.
func (s *State) RY(q int, theta float64) {
	c := complex(math.Cos(theta/2), 0)
	sn := complex(math.Sin(theta/2), 0)
	s.Apply1Q(q, c, -sn, sn, c)
}

// RZ applies RZ(θ) = exp(-iθZ/2) = diag(e^{-iθ/2}, e^{iθ/2}) to qubit q.
// Element-wise diagonal: large registers run parallel chunks with
// bit-identical results.
func (s *State) RZ(q int, theta float64) {
	s.checkQubit(q)
	sin, cos := math.Sincos(theta / 2)
	p0 := complex(cos, -sin)
	p1 := complex(cos, sin)
	bit := 1 << uint(q)
	if s.parallel() {
		runRange(len(s.amps), true, func(lo, hi int) {
			s.rzRange(bit, lo, hi, p0, p1)
		})
		return
	}
	s.rzRange(bit, 0, len(s.amps), p0, p1)
}

func (s *State) rzRange(bit, lo, hi int, p0, p1 complex128) {
	for i := lo; i < hi; i++ {
		if i&bit == 0 {
			s.amps[i] *= p0
		} else {
			s.amps[i] *= p1
		}
	}
}

// Phase applies diag(1, e^{iφ}) to qubit q.
func (s *State) Phase(q int, phi float64) {
	s.checkQubit(q)
	sin, cos := math.Sincos(phi)
	p := complex(cos, sin)
	bit := 1 << uint(q)
	for i := range s.amps {
		if i&bit != 0 {
			s.amps[i] *= p
		}
	}
}

// --- two-qubit gates ---

// CNOT applies a controlled-X with the given control and target qubits.
func (s *State) CNOT(control, target int) {
	s.checkQubit(control)
	s.checkQubit(target)
	if control == target {
		panic("quantum: CNOT control == target")
	}
	cbit := 1 << uint(control)
	tbit := 1 << uint(target)
	for i := range s.amps {
		if i&cbit != 0 && i&tbit == 0 {
			j := i | tbit
			s.amps[i], s.amps[j] = s.amps[j], s.amps[i]
		}
	}
}

// CZ applies a controlled-Z between qubits a and b (symmetric).
func (s *State) CZ(a, b int) {
	s.checkQubit(a)
	s.checkQubit(b)
	if a == b {
		panic("quantum: CZ on identical qubits")
	}
	abit, bbit := 1<<uint(a), 1<<uint(b)
	for i := range s.amps {
		if i&abit != 0 && i&bbit != 0 {
			s.amps[i] = -s.amps[i]
		}
	}
}

// SWAP exchanges qubits a and b.
func (s *State) SWAP(a, b int) {
	s.checkQubit(a)
	s.checkQubit(b)
	if a == b {
		return
	}
	abit, bbit := 1<<uint(a), 1<<uint(b)
	for i := range s.amps {
		// Act once per pair: pick representatives with a-bit set, b-bit clear.
		if i&abit != 0 && i&bbit == 0 {
			j := i&^abit | bbit
			s.amps[i], s.amps[j] = s.amps[j], s.amps[i]
		}
	}
}

// ZZ applies exp(-iθ Z⊗Z/2) between qubits a and b. It equals the gate
// sequence CNOT(a,b)·RZ_b(θ)·CNOT(a,b) and is the fast path for QAOA
// phase separators.
func (s *State) ZZ(a, b int, theta float64) {
	s.checkQubit(a)
	s.checkQubit(b)
	if a == b {
		panic("quantum: ZZ on identical qubits")
	}
	sin, cos := math.Sincos(theta / 2)
	pSame := complex(cos, -sin) // Z⊗Z eigenvalue +1
	pDiff := complex(cos, sin)  // Z⊗Z eigenvalue -1
	abit, bbit := 1<<uint(a), 1<<uint(b)
	if s.parallel() {
		runRange(len(s.amps), true, func(lo, hi int) {
			s.zzRange(abit, bbit, lo, hi, pSame, pDiff)
		})
		return
	}
	s.zzRange(abit, bbit, 0, len(s.amps), pSame, pDiff)
}

func (s *State) zzRange(abit, bbit, lo, hi int, pSame, pDiff complex128) {
	for i := lo; i < hi; i++ {
		if (i&abit != 0) == (i&bbit != 0) {
			s.amps[i] *= pSame
		} else {
			s.amps[i] *= pDiff
		}
	}
}

// ApplyDiagonalPhase multiplies amplitude z by e^{i·phases[z]}.
// It panics on a length mismatch. Large registers (2^16 amplitudes and
// up) are processed in parallel chunks; the chunks are disjoint, so the
// result is bit-identical to a serial pass.
func (s *State) ApplyDiagonalPhase(phases []float64) {
	if len(phases) != len(s.amps) {
		panic("quantum: phase table length mismatch")
	}
	if s.parallel() {
		runRange(len(s.amps), true, func(lo, hi int) {
			applyPhaseRange(s.amps[lo:hi], phases[lo:hi])
		})
		return
	}
	applyPhaseRange(s.amps, phases)
}

// Equal reports whether the two states agree amplitude-wise within tol
// (including global phase).
func (s *State) Equal(t *State, tol float64) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.amps {
		if cmplx.Abs(s.amps[i]-t.amps[i]) > tol {
			return false
		}
	}
	return true
}

// EqualUpToGlobalPhase reports whether the states describe the same ray,
// i.e. fidelity within tol of 1.
func (s *State) EqualUpToGlobalPhase(t *State, tol float64) bool {
	if s.n != t.n {
		return false
	}
	return math.Abs(s.Fidelity(t)-1) <= tol
}

func (s *State) checkQubit(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("quantum: qubit %d out of range [0,%d)", q, s.n))
	}
}
