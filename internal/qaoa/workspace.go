package qaoa

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"qaoaml/internal/quantum"
)

// The fast evaluation engine. The QAOA objective ⟨ψ(γ,β)|C|ψ(γ,β)⟩ is
// the hot path of the entire reproduction — dataset generation, Table I
// and every figure are tens of thousands of such calls — so it gets a
// dedicated zero-allocation kernel:
//
//   - The phase separator exp(−iγC) is diagonal, and C takes only a
//     handful of distinct values (an 8-node unweighted graph has ≲ 30
//     distinct cut sizes against 256 amplitudes). The engine computes
//     e^{iγ·φ} once per *distinct* value with math.Sincos and applies
//     them through a precomputed index table.
//   - A whole QAOA stage — uniform fill, phase separator, RX(2β)
//     mixing layer — runs through one fused quantum.LayerRunner sweep:
//     each cache-resident chunk is filled, phased, and mixed (for every
//     in-chunk qubit pair) back-to-back, so the state vector streams
//     from memory once per stage instead of once per pass. The kernels
//     are bandwidth-bound at large n, so pass-count is the lever.
//   - All buffers (state vector, factor table) and the dispatch
//     closures live in an EvalWorkspace that is reused across objective
//     calls, so a warm NegExpectation performs no heap allocation at
//     all.
//
// The results match the explicit gate-level circuit (BuildCircuit +
// Simulate) to rounding error, global phase included.

// costKernel is the per-problem evaluation engine behind EvalWorkspace:
// how the phase separator exp(iγH_γ) is applied, how ⟨C⟩ is read out,
// and how the adjoint sweep's matrix elements are taken. Two
// implementations exist, both built from a compiled problem.Instance
// (newIsingKernel picks by size):
//
//   - diagKernel (below): materialized 2^n Score diagonal with
//     distinct-value phase memoization — the small-n fast path.
//   - isingStreamKernel (ising_stream.go): computes Score(z) on the fly
//     from the term lists per fixed-geometry chunk, so large instances
//     never hold a 2^n float64 table.
//
// Both produce results over the same fixed reduction geometry
// (quantum.ReduceChunks), so expectations and gradients are
// bit-reproducible across GOMAXPROCS settings.
// The interface is range-based: the workspace drives the chunk loop
// (through quantum.LayerRunner, ReduceChunks and ForEachChunk over the
// fixed geometry) and the kernel supplies per-chunk bodies. That lets
// the phase separator run inside the fused layer sweep while the chunk
// is cache-resident, and lets reductions fuse with streamed diagonal
// generation.
type costKernel interface {
	// qubits returns the register width.
	qubits() int
	// factorLen returns the length of the per-workspace factor scratch
	// the kernel wants (0 if it needs none).
	factorLen() int
	// prepareFactors fills the factor scratch for stage angle gamma
	// (conjugated to un-apply). Called once per stage, before the
	// chunked phase application.
	prepareFactors(factors []complex128, gamma float64, conj bool)
	// Every per-chunk method takes an offset/range pair: [lo, hi) indexes
	// the passed State's amplitudes, off+lo…off+hi is the corresponding
	// GLOBAL basis-state range (for cost tables and streamed fills). The
	// flat path passes off = 0; the sharded path (shard states of a
	// quantum.ShardedState) passes the shard's base index. Chunk bounds
	// follow the fixed global geometry either way, so the two paths
	// generate identical per-chunk values.

	// applyPhaseRange applies the phase separator to st over one chunk.
	// gamma and conj repeat the prepareFactors arguments for kernels
	// that stream phases without a factor table.
	applyPhaseRange(st *quantum.State, factors []complex128, gamma float64, conj bool, off, lo, hi int)
	// applyPhase2Range applies the phase separator to two states over
	// one chunk, generating the chunk's diagonal once. The adjoint
	// reverse sweep un-applies each stage from both states.
	applyPhase2Range(a, b *quantum.State, factors []complex128, gamma float64, conj bool, off, lo, hi int)
	// expectChunk returns one chunk's contribution to ⟨st|C|st⟩.
	expectChunk(st *quantum.State, off, lo, hi int) float64
	// seedChunkValue overwrites adj's chunk with (C|st⟩)'s and returns
	// the chunk's contribution to ⟨st|C|st⟩, with the exact summation
	// order of expectChunk — so a fused value+seed pass stays
	// bit-identical to a plain expectation.
	seedChunkValue(adj, st *quantum.State, off, lo, hi int) float64
	// genInnerChunk returns one chunk's contribution to ⟨adj|H_γ|st⟩ in
	// split real/imag form.
	genInnerChunk(adj, st *quantum.State, off, lo, hi int) (re, im float64)
}

// diagKernel is the immutable per-problem precomputation: the cost
// diagonal, and the distinct-value factorization of the phase-separator
// angles. For parameter γ, amplitude z picks up phase γ·halfAngles[idx[z]];
// gen is the same coefficient table unfactorized (gen[z] =
// halfAngles[idx[z]]), the diagonal generator H_γ of the phase layer
// that adjoint differentiation (gradient.go) takes matrix elements of.
type diagKernel struct {
	n          int
	diag       []float64 // cost diagonal C(z) (the observable)
	idx        []int32   // idx[z] → index into halfAngles
	halfAngles []float64 // distinct per-γ phase coefficients
	gen        []float64 // per-amplitude phase generator h(z)
}

// newDiagKernelFromGen builds the materialized kernel from independent
// observable and phase-generator tables (gen(z) is not a pointwise
// function of diag(z): a minimization instance flips the sign, auxiliary
// penalties shift it). The distinct-value factorization dedupes gen with
// index assignment in first-occurrence, basis-state order, so it is
// deterministic.
func newDiagKernelFromGen(n int, diag, gen []float64) *diagKernel {
	k := &diagKernel{
		n:    n,
		diag: diag,
		idx:  make([]int32, len(diag)),
		gen:  gen,
	}
	seen := make(map[float64]int32, 64)
	for z, a := range gen {
		j, ok := seen[a]
		if !ok {
			j = int32(len(k.halfAngles))
			k.halfAngles = append(k.halfAngles, a)
			seen[a] = j
		}
		k.idx[z] = j
	}
	return k
}

// kernel returns the Problem's phase kernel, building it on first use.
// Lazy construction keeps any Problem value usable regardless of how it
// was created; sync.Once makes first use safe under concurrency.
func (pb *Problem) kernel() costKernel {
	pb.kernOnce.Do(func() { pb.kern = newIsingKernel(pb.Inst) })
	return pb.kern
}

// costKernel implementation for the materialized-table path. The
// per-chunk bodies run exactly the per-element operations the
// pre-interface engine ran (same tables, same summation order within
// and across chunks), so results are byte-for-byte unchanged.
func (k *diagKernel) qubits() int    { return k.n }
func (k *diagKernel) factorLen() int { return len(k.halfAngles) }

func (k *diagKernel) prepareFactors(factors []complex128, gamma float64, conj bool) {
	sign := 1.0
	if conj {
		sign = -1
	}
	for j, h := range k.halfAngles {
		sin, cos := math.Sincos(gamma * h)
		factors[j] = complex(cos, sign*sin)
	}
}

func (k *diagKernel) applyPhaseRange(st *quantum.State, factors []complex128, _ float64, _ bool, off, lo, hi int) {
	st.MulDiagonalIndexedRange(lo, k.idx[off+lo:off+hi], factors)
}

func (k *diagKernel) applyPhase2Range(a, b *quantum.State, factors []complex128, _ float64, _ bool, off, lo, hi int) {
	a.MulDiagonalIndexedRange(lo, k.idx[off+lo:off+hi], factors)
	b.MulDiagonalIndexedRange(lo, k.idx[off+lo:off+hi], factors)
}

func (k *diagKernel) expectChunk(st *quantum.State, off, lo, hi int) float64 {
	return st.ExpectationDiagonalRange(lo, k.diag[off+lo:off+hi])
}

func (k *diagKernel) seedChunkValue(adj, st *quantum.State, off, lo, hi int) float64 {
	return adj.SeedDiagonalRange(st, lo, k.diag[off+lo:off+hi])
}

func (k *diagKernel) genInnerChunk(adj, st *quantum.State, off, lo, hi int) (re, im float64) {
	return adj.InnerProductDiagonalRange(st, lo, k.gen[off+lo:off+hi])
}

// ShardThreshold is the register width from which NewWorkspace switches
// the evaluation state to the sharded representation (quantum.
// ShardedState): at n ≥ 27 a single flat allocation is ≥ 2 GiB, the
// regime where per-worker shard ownership pays for itself. The sharded
// path computes bit-identical results; the threshold only picks the
// memory layout.
const ShardThreshold = 27

// DefaultShardBits is the shard count exponent NewWorkspace uses above
// ShardThreshold: 2^2 = 4 shards keeps per-shard allocations ≤ 2 GiB
// through n = 30 while the exchange passes stay a small fraction of a
// layer.
const DefaultShardBits = 2

// EvalWorkspace owns the preallocated buffers one evaluation stream
// needs: the state vector, the distinct-phase factor table, the fused
// layer runner and the per-chunk dispatch closures (created once here,
// so warm evaluations construct no closures and allocate nothing). A
// workspace is not safe for concurrent use; create one per goroutine
// (BatchEvaluator does exactly that).
//
// Above ShardThreshold the state lives in a quantum.ShardedState (ss
// non-nil) and the sharded driver paths run instead; results are
// bit-identical either way. Call Close on sharded workspaces to release
// the shard workers promptly (a finalizer backs it up).
type EvalWorkspace struct {
	k       costKernel
	state   *quantum.State
	factors []complex128
	runner  *quantum.LayerRunner

	// Stage parameters for the phase closures, written between
	// dispatches (the pool's channel send orders them before any worker
	// reads).
	gamma float64
	conj  bool

	phaseState func(lo, hi int)
	expectBody func(lo, hi int) (a, b float64)

	// Adjoint-sweep buffers and closures (gradient.go), allocated on
	// first ValueGrad call so plain expectation streams never pay for
	// them. Warm gradient calls are allocation-free.
	adj         *quantum.State
	adjRunner   *quantum.LayerRunner
	unphaseBoth func(lo, hi int)
	seedBody    func(lo, hi int) (a, b float64)
	genBody     func(lo, hi int) (a, b float64)
	sumXBody    func(lo, hi int) (a, b float64)

	// Sharded-path state and closures (nil/unset on the flat path).
	ss    *quantum.ShardedState
	adjSS *quantum.ShardedState
	sbits uint // log2(shard dim), for global→shard index mapping

	phaseShard   func(off, lo, hi int)
	expectShard  func(lo, hi int) (a, b float64)
	unphaseShard func(lo, hi int)
	seedShard    func(lo, hi int) (a, b float64)
	genShard     func(lo, hi int) (a, b float64)
	sumXShard    func(lo, hi int) (a, b float64)

	// arena, when non-nil, supplied the state buffers (and supplies the
	// lazy adjoint buffer); Release returns them there for the next
	// workspace at this width. A nil arena means plain ownership —
	// Release degrades to Close.
	arena *Arena
}

// NewWorkspace returns a reusable evaluation workspace for the problem.
// At ShardThreshold qubits and above the state is sharded
// (DefaultShardBits); results are identical to the flat representation.
func (pb *Problem) NewWorkspace() *EvalWorkspace {
	return newWorkspace(pb.kernel(), nil)
}

// NewWorkspaceArena is NewWorkspace drawing the state-vector buffers
// from the arena (nil behaves like NewWorkspace). Evaluation results
// are bit-identical: pooled buffers are always filled before use. Call
// Release, not Close, so the buffers return to the arena.
func (pb *Problem) NewWorkspaceArena(a *Arena) *EvalWorkspace {
	return newWorkspace(pb.kernel(), a)
}

// NewWorkspaceShards returns a workspace whose state is split into
// 2^shardBits shards regardless of size (0 = flat layout in a one-shard
// ShardedState). Evaluation results are bit-identical to NewWorkspace;
// only the memory layout and worker ownership change. Callers should
// Close the workspace when done.
func (pb *Problem) NewWorkspaceShards(shardBits int) *EvalWorkspace {
	return newShardedWorkspace(pb.kernel(), shardBits, nil)
}

func newWorkspace(k costKernel, a *Arena) *EvalWorkspace {
	if k.qubits() >= ShardThreshold {
		return newShardedWorkspace(k, DefaultShardBits, a)
	}
	return newFlatWorkspace(k, a)
}

func newFlatWorkspace(k costKernel, a *Arena) *EvalWorkspace {
	w := &EvalWorkspace{
		k:       k,
		state:   a.getState(k.qubits()),
		factors: make([]complex128, k.factorLen()),
		arena:   a,
	}
	w.runner = quantum.NewLayerRunner(w.state)
	w.phaseState = func(lo, hi int) {
		k.applyPhaseRange(w.state, w.factors, w.gamma, w.conj, 0, lo, hi)
	}
	w.expectBody = func(lo, hi int) (float64, float64) {
		return k.expectChunk(w.state, 0, lo, hi), 0
	}
	return w
}

func newShardedWorkspace(k costKernel, shardBits int, a *Arena) *EvalWorkspace {
	ss := a.getSharded(k.qubits(), shardBits)
	ss.FillUniform()
	w := &EvalWorkspace{
		k:       k,
		ss:      ss,
		sbits:   uint(bits.TrailingZeros(uint(ss.ShardDim()))),
		factors: make([]complex128, k.factorLen()),
		arena:   a,
	}
	// Sharded chunk bodies receive GLOBAL bounds (the sharded drivers
	// iterate the same fixed chunk geometry as the flat ones) and map
	// them onto the owning shard: off is the shard's base index, lo−off
	// its local range.
	w.phaseShard = func(off, lo, hi int) {
		k.applyPhaseRange(w.ss.Shard(off>>w.sbits), w.factors, w.gamma, w.conj, off, lo, hi)
	}
	w.expectShard = func(lo, hi int) (float64, float64) {
		off := lo &^ (w.ss.ShardDim() - 1)
		return k.expectChunk(w.ss.Shard(lo>>w.sbits), off, lo-off, hi-off), 0
	}
	return w
}

// Close releases the shard worker goroutines of a sharded workspace.
// It is a no-op for flat workspaces and safe to call more than once.
func (w *EvalWorkspace) Close() {
	if w.ss != nil {
		w.ss.Close()
	}
	if w.adjSS != nil {
		w.adjSS.Close()
	}
}

// Release retires the workspace, returning its state buffers to the
// arena it was built from (arena-less workspaces just Close). The
// workspace must not be used afterwards. Safe to call more than once.
func (w *EvalWorkspace) Release() {
	if w.arena == nil {
		w.Close()
		return
	}
	a := w.arena
	w.arena = nil
	if w.state != nil {
		a.putState(w.state)
		w.state = nil
	}
	if w.adj != nil {
		a.putState(w.adj)
		w.adj = nil
	}
	if w.ss != nil {
		a.putSharded(w.ss)
		w.ss = nil
	}
	if w.adjSS != nil {
		a.putSharded(w.adjSS)
		w.adjSS = nil
	}
	w.runner, w.adjRunner = nil, nil
	w.phaseState, w.expectBody = nil, nil
	w.unphaseBoth, w.seedBody, w.genBody, w.sumXBody = nil, nil, nil, nil
	w.phaseShard, w.expectShard, w.unphaseShard = nil, nil, nil
	w.seedShard, w.genShard, w.sumXShard = nil, nil, nil
}

// argmax returns the index of the most probable basis state of the
// current workspace state, identical to State.ArgmaxProbability on the
// flat layout: ties resolve to the lowest global index, so the sharded
// scan (ascending shards, strict improvement only) matches it exactly.
func (w *EvalWorkspace) argmax() uint64 {
	if w.ss == nil {
		arg, _ := w.state.ArgmaxProbability()
		return arg
	}
	var best uint64
	bestProb := -1.0
	for i := 0; i < w.ss.NumShards(); i++ {
		local, p := w.ss.Shard(i).ArgmaxProbability()
		if p > bestProb {
			bestProb = p
			best = uint64(i)<<w.sbits | local
		}
	}
	return best
}

// Shards returns how many state-vector shards the workspace evaluates
// over (1 for the flat layout).
func (w *EvalWorkspace) Shards() int {
	if w.ss != nil {
		return w.ss.NumShards()
	}
	return 1
}

// runLayers prepares |ψ(γ,β)⟩ in the workspace state: per stage, one
// fused layer sweep applies the uniform fill (first stage), the phase
// separator and the RX(2β) mixer.
func (w *EvalWorkspace) runLayers(gamma, beta []float64) {
	if w.ss != nil {
		w.runLayersSharded(gamma, beta)
		return
	}
	if len(gamma) == 0 {
		w.state.FillUniform()
		return
	}
	for s := range gamma {
		w.k.prepareFactors(w.factors, gamma[s], false)
		w.gamma, w.conj = gamma[s], false
		w.runner.Layer(2*beta[s], s == 0, w.phaseState)
	}
}

func (w *EvalWorkspace) runLayersSharded(gamma, beta []float64) {
	if len(gamma) == 0 {
		w.ss.FillUniform()
		return
	}
	for s := range gamma {
		w.k.prepareFactors(w.factors, gamma[s], false)
		w.gamma, w.conj = gamma[s], false
		w.ss.Layer(2*beta[s], s == 0, w.phaseShard)
	}
}

// prepareState builds a fresh |ψ(γ,β)⟩ with the fused layer kernels.
// It backs the one-shot State helpers, which are not hot paths, so the
// transient workspace is fine. Always flat: the helpers hand out a
// *quantum.State.
func prepareState(k costKernel, gamma, beta []float64) *quantum.State {
	w := newFlatWorkspace(k, nil)
	w.runLayers(gamma, beta)
	return w.state
}

// expectation evaluates ⟨C⟩ at (γ, β), reusing the workspace buffers.
func (w *EvalWorkspace) expectation(gamma, beta []float64) float64 {
	w.runLayers(gamma, beta)
	if w.ss != nil {
		e, _ := w.ss.Reduce(w.expectShard)
		return e
	}
	e, _ := quantum.ReduceChunks(w.state.Dim(), w.expectBody)
	return e
}

// Expectation returns ⟨ψ(γ,β)|C|ψ(γ,β)⟩ without heap allocation.
func (w *EvalWorkspace) Expectation(pr Params) float64 {
	if len(pr.Gamma) != len(pr.Beta) {
		panic(fmt.Sprintf("qaoa: gamma/beta length mismatch %d != %d", len(pr.Gamma), len(pr.Beta)))
	}
	return w.expectation(pr.Gamma, pr.Beta)
}

// ExpectationVec evaluates the flat [γ1..γp, β1..βp] parameter vector
// without copying or allocating. It panics for odd-length input.
func (w *EvalWorkspace) ExpectationVec(x []float64) float64 {
	if len(x)%2 != 0 {
		panic(fmt.Sprintf("qaoa: parameter vector of odd length %d", len(x)))
	}
	p := len(x) / 2
	return w.expectation(x[:p], x[p:])
}

// wsPool hands out evaluation workspaces to concurrent callers of the
// problem-level Expectation helpers. Pointers round-trip through the
// pool without allocating.
type wsPool struct {
	pool sync.Pool
}

func (p *wsPool) get(k costKernel) *EvalWorkspace {
	if w, ok := p.pool.Get().(*EvalWorkspace); ok {
		return w
	}
	return newWorkspace(k, nil)
}

func (p *wsPool) put(w *EvalWorkspace) { p.pool.Put(w) }
