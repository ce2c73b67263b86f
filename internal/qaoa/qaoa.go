// Package qaoa implements the Quantum Approximate Optimization Algorithm
// for any diagonal Ising Hamiltonian (problem.Instance), with graph
// MaxCut — the paper's problem — as one compiled family among several.
// The circuits are the paper's: a Hadamard layer, then p stages each made
// of a phase-separation layer (RZ per field, CNOT·RZ·CNOT per coupling;
// for MaxCut CNOT·RZ(−γw)·CNOT per edge, equivalently exp(iγw Z⊗Z/2))
// and a mixing layer (RX(2β) per qubit, i.e. exp(−iβ Σ Xi)).
//
// Parameter conventions follow Farhi et al. (the paper's reference [1]):
// the stage angles are γi ∈ [0, 2π] and βi ∈ [0, π]. A parameter vector
// is laid out as [γ1..γp, β1..βp].
package qaoa

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
	"qaoaml/internal/quantum"
)

// Domain bounds from the paper (Sec. III-A).
const (
	GammaMax = 2 * math.Pi // γi ∈ [0, 2π]
	BetaMax  = math.Pi     // βi ∈ [0, π]
)

// Params holds the 2p stage angles of a depth-p QAOA instance.
type Params struct {
	Gamma []float64 // phase-separation angles, one per stage
	Beta  []float64 // mixing angles, one per stage
}

// NewParams allocates zeroed parameters for depth p.
func NewParams(p int) Params {
	return Params{Gamma: make([]float64, p), Beta: make([]float64, p)}
}

// Depth returns the number of stages p.
func (pr Params) Depth() int { return len(pr.Gamma) }

// Vector flattens the parameters to [γ1..γp, β1..βp].
func (pr Params) Vector() []float64 {
	p := pr.Depth()
	v := make([]float64, 2*p)
	copy(v, pr.Gamma)
	copy(v[p:], pr.Beta)
	return v
}

// FromVector splits a flat [γ1..γp, β1..βp] vector into Params.
// It panics for odd-length input.
func FromVector(v []float64) Params {
	if len(v)%2 != 0 {
		panic(fmt.Sprintf("qaoa: parameter vector of odd length %d", len(v)))
	}
	p := len(v) / 2
	pr := NewParams(p)
	copy(pr.Gamma, v[:p])
	copy(pr.Beta, v[p:])
	return pr
}

// Validate checks lengths and (optionally) the paper's domain bounds.
func (pr Params) Validate(checkDomain bool) error {
	if len(pr.Gamma) != len(pr.Beta) {
		return fmt.Errorf("qaoa: gamma/beta length mismatch %d != %d", len(pr.Gamma), len(pr.Beta))
	}
	if !checkDomain {
		return nil
	}
	for i, g := range pr.Gamma {
		if g < 0 || g > GammaMax {
			return fmt.Errorf("qaoa: gamma[%d] = %v out of [0, 2π]", i, g)
		}
	}
	for i, b := range pr.Beta {
		if b < 0 || b > BetaMax {
			return fmt.Errorf("qaoa: beta[%d] = %v out of [0, π]", i, b)
		}
	}
	return nil
}

// Problem is a diagonal Ising Hamiltonian prepared for QAOA
// evaluation: the compiled instance every kernel runs on, and the exact
// optimum used for approximation ratios.
//
// Evaluation is family-blind. Below StreamingThreshold the kernel
// materializes the 2^n Score and phase-generator tables; above it
// streams them chunk by chunk from the term lists (ising_stream.go), so
// the per-problem footprint is the state vector alone — a 2^20 problem
// holds no 8 MiB cost table and no 4 MiB index table.
//
// Graph is set for MaxCut problems only and carries MaxCut's policy:
// the ratio ⟨C⟩/C_opt, the cut weight read out through the graph, and
// the graph-aware Canonicalize rules.
type Problem struct {
	Graph       *graph.Graph // MaxCut problems only
	OptValue    float64      // exact optimum: MaxCut weight, or best Score for Ising problems
	TotalWeight float64      // sum of all edge weights (MaxCut problems only)

	// Spec is the problem as constructed, Inst its compiled Ising
	// Hamiltonian, and MinScore the exact worst Score, the floor of the
	// normalized-score ratio non-MaxCut families report.
	Spec     problem.Spec
	Inst     *problem.Instance
	MinScore float64

	// Fast-path precomputation (see workspace.go), built lazily on
	// first evaluation.
	kernOnce sync.Once
	kern     costKernel
	pool     wsPool
}

// NewProblem compiles a (possibly weighted) MaxCut graph to its Ising
// Hamiltonian and finds the exact optimum. It returns an error for
// graphs with no edges (AR undefined) or a non-positive optimum
// (all-negative weights make AR meaningless).
func NewProblem(g *graph.Graph) (*Problem, error) {
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("qaoa: graph with no edges has no MaxCut objective")
	}
	in, err := problem.CompileMaxCut(g)
	if err != nil {
		return nil, err
	}
	pb, arg, err := newIsing(in)
	if err != nil {
		return nil, err
	}
	// Read the optimum back through the graph, so it is the cut weight
	// summed in edge order rather than the scan's running total.
	opt := g.WeightedCutValue(arg)
	if opt <= 0 {
		return nil, fmt.Errorf("qaoa: MaxCut optimum %v is not positive; approximation ratio undefined", opt)
	}
	pb.Graph = g
	pb.OptValue = opt
	pb.TotalWeight = g.TotalWeight()
	pb.Spec = problem.MaxCut(g)
	return pb, nil
}

// CutValue returns C(z), the cut weight of assignment z, for a MaxCut
// problem.
func (pb *Problem) CutValue(z uint64) float64 { return pb.Graph.WeightedCutValue(z) }

// costDiagonal materializes the 2^n Score diagonal. Only gate-level
// consumers that genuinely need all 2^n entries (the noisy trajectory
// sampler) call it; the evaluation hot paths never do.
func (pb *Problem) costDiagonal() []float64 {
	diag, _ := buildIsingTables(pb.Inst)
	return diag
}

// NumQubits returns the register width: one qubit per vertex for
// MaxCut, the compiled register (decision variables plus any
// quadratization auxiliaries) in general.
func (pb *Problem) NumQubits() int { return pb.Inst.N }

// BuildCircuit constructs the explicit gate-level QAOA circuit for the
// given parameters: H on all qubits, then per stage the phase separator
// (see isingCircuit; for MaxCut the CNOT·RZ(−γw)·CNOT per edge of the
// paper's Fig. 1(a)) followed by RX(2β) mixers.
func (pb *Problem) BuildCircuit(pr Params) *quantum.Circuit {
	if err := pr.Validate(false); err != nil {
		panic(err)
	}
	n := pb.NumQubits()
	c := quantum.NewCircuit(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for s := 0; s < pr.Depth(); s++ {
		pb.isingCircuit(c, pr.Gamma[s])
		for q := 0; q < n; q++ {
			c.RX(q, 2*pr.Beta[s])
		}
	}
	return c
}

// State returns |ψ(γ, β)⟩ using the fast diagonal phase-separator path
// (distinct-cut memoized phases, fused mixing kernel — see
// workspace.go). The result matches BuildCircuit(pr).Simulate() to
// rounding error, including global phase.
func (pb *Problem) State(pr Params) *quantum.State {
	if err := pr.Validate(false); err != nil {
		panic(err)
	}
	return prepareState(pb.kernel(), pr.Gamma, pr.Beta)
}

// Expectation returns ⟨ψ(γ, β)|C|ψ(γ, β)⟩, the expected cut size. It is
// safe for concurrent use: evaluation buffers come from an internal
// pool. Evaluation loops should prefer an Evaluator or EvalWorkspace,
// which reuse one buffer set without pool round-trips.
func (pb *Problem) Expectation(pr Params) float64 {
	if err := pr.Validate(false); err != nil {
		panic(err)
	}
	w := pb.pool.get(pb.kernel())
	e := w.expectation(pr.Gamma, pr.Beta)
	pb.pool.put(w)
	return e
}

// ApproximationRatio returns the quality ratio for the given
// parameters: ⟨C⟩ / C_opt for MaxCut (the paper's convention), and the
// [0, 1]-normalized score (⟨Score⟩ − worst) / (best − worst) for
// compiled Ising families, whose raw Score can be negative and whose
// plain ratio would be meaningless.
func (pb *Problem) ApproximationRatio(pr Params) float64 {
	return pb.ratioOf(pb.Expectation(pr))
}

// ratioOf maps an expectation onto the family's quality ratio — the
// shared arithmetic behind Problem.ApproximationRatio and
// Evaluator.ApproximationRatio, so both report bit-identical ratios for
// the same expectation value.
func (pb *Problem) ratioOf(e float64) float64 {
	if pb.Graph != nil {
		return e / pb.OptValue
	}
	return pb.NormalizedScore(e)
}

// BestSampledCut returns the most probable basis state's objective and
// the assignment, i.e. the solution a user would read out after
// optimization. For MaxCut problems the objective is the cut weight;
// for compiled Ising families it is the direction-normalized Score
// (see BestSampled, the family-generic name).
func (pb *Problem) BestSampledCut(pr Params) (cut float64, assign uint64) {
	return pb.BestSampled(pr)
}

// Evaluator wraps a Problem as a minimization objective over the flat
// parameter vector and counts quantum-computer calls (the paper's
// "function calls" / "QC calls" / loop iterations). It owns an
// EvalWorkspace, so NegExpectation performs no heap allocation after
// warm-up; like the workspace, an Evaluator is not safe for concurrent
// use — create one per goroutine.
type Evaluator struct {
	Problem *Problem
	Depth   int
	nfev    int
	ngev    int
	ws      *EvalWorkspace
}

// NewEvaluator returns an evaluator for a fixed circuit depth p ≥ 1.
func NewEvaluator(pb *Problem, p int) *Evaluator {
	return NewEvaluatorArena(pb, p, nil)
}

// NewEvaluatorArena is NewEvaluator drawing the workspace's
// state-vector buffers from the arena (nil behaves like NewEvaluator).
// Results are bit-identical; only the buffers' provenance changes.
// Call Release when done so the buffers return to the arena.
func NewEvaluatorArena(pb *Problem, p int, a *Arena) *Evaluator {
	if p < 1 {
		panic(fmt.Sprintf("qaoa: depth %d < 1", p))
	}
	return &Evaluator{Problem: pb, Depth: p, ws: pb.NewWorkspaceArena(a)}
}

// Release retires the evaluator's workspace, returning arena-drawn
// buffers to their arena (closing shard workers otherwise). The
// evaluator must not be used afterwards.
func (e *Evaluator) Release() { e.ws.Release() }

// ApproximationRatio returns the quality ratio at the given parameters
// through the evaluator's own workspace — bit-identical to
// Problem.ApproximationRatio (same kernel, same chunk geometry) but
// with no pool round-trip and no buffer allocation.
func (e *Evaluator) ApproximationRatio(pr Params) float64 {
	return e.Problem.ratioOf(e.ws.Expectation(pr))
}

// BestSampled returns the most probable basis state's Score and
// assignment at the given parameters, reusing the evaluator's
// workspace — the allocation-free analogue of Problem.BestSampled
// (which builds a transient 2^n state per call). Ties resolve to the
// lowest basis index in both, so the readouts agree exactly.
func (e *Evaluator) BestSampled(pr Params) (score float64, assign uint64) {
	if err := pr.Validate(false); err != nil {
		panic(err)
	}
	e.ws.runLayers(pr.Gamma, pr.Beta)
	assign = e.ws.argmax()
	return e.Problem.ScoreValue(assign), assign
}

// Dim returns the number of optimization variables, 2p.
func (e *Evaluator) Dim() int { return 2 * e.Depth }

// NegExpectation is the minimization objective −⟨C⟩ over the flat
// parameter vector [γ1..γp, β1..βp]. Each call counts one QC call.
func (e *Evaluator) NegExpectation(x []float64) float64 {
	if len(x) != e.Dim() {
		panic(fmt.Sprintf("qaoa: parameter vector length %d != 2p = %d", len(x), e.Dim()))
	}
	e.nfev++
	return -e.ws.ExpectationVec(x)
}

// NegGrad fills grad with the exact gradient of the minimization
// objective −⟨C⟩ at x, computed by one adjoint reverse sweep (see
// gradient.go) — no finite differences, no function calls counted.
// Each call counts one gradient evaluation (NGev). Warm calls perform
// no heap allocation.
func (e *Evaluator) NegGrad(x, grad []float64) { e.NegValueGrad(x, grad) }

// NegValueGrad is NegGrad returning −⟨C⟩ as well; the value is
// bit-identical to NegExpectation(x) (same forward pass) but does not
// count a QC call, only a gradient evaluation.
func (e *Evaluator) NegValueGrad(x, grad []float64) float64 {
	if len(x) != e.Dim() {
		panic(fmt.Sprintf("qaoa: parameter vector length %d != 2p = %d", len(x), e.Dim()))
	}
	e.ngev++
	v := e.ws.ValueGrad(x, grad)
	for i := range grad {
		grad[i] = -grad[i]
	}
	return -v
}

// NFev returns the number of QC calls so far.
func (e *Evaluator) NFev() int { return e.nfev }

// ResetNFev zeroes the QC-call counter.
func (e *Evaluator) ResetNFev() { e.nfev = 0 }

// NGev returns the number of adjoint gradient evaluations so far.
func (e *Evaluator) NGev() int { return e.ngev }

// ResetNGev zeroes the gradient-evaluation counter.
func (e *Evaluator) ResetNGev() { e.ngev = 0 }

// UniformState returns the p = 0 state (just the Hadamard layer), whose
// expectation is m/2 — a useful baseline in tests.
func (pb *Problem) UniformState() *quantum.State {
	return quantum.NewUniformState(pb.NumQubits())
}

// GlobalPhaseReference exposes the phase convention used by the fast
// path for verification: for a depth-1 circuit with β = 0 the amplitude
// of basis state z is exp(iγ·gen(z))/√dim with gen(z) = sense·Offset −
// Score(z) — (m−2C(z))/2 for MaxCut.
func (pb *Problem) GlobalPhaseReference(gamma float64, z uint64) complex128 {
	dim := float64(int(1) << uint(pb.NumQubits()))
	gen := pb.Inst.Sense.Sign()*pb.Inst.Offset - pb.ScoreValue(z)
	return cmplx.Exp(complex(0, gamma*gen)) * complex(1/math.Sqrt(dim), 0)
}

// NoisyExpectation estimates ⟨C⟩ for the explicit gate-level circuit
// run under a depolarizing noise model, averaged over Monte-Carlo
// trajectories. The paper evaluates noiselessly (QuTiP); this is the
// NISQ-hardware substitute — see quantum.NoiseModel.
func (pb *Problem) NoisyExpectation(pr Params, nm quantum.NoiseModel, trajectories int, rng *rand.Rand) float64 {
	c := pb.BuildCircuit(pr)
	return c.NoisyExpectationDiagonal(pb.costDiagonal(), nm, trajectories, rng)
}
