package quantum

import (
	"fmt"
	"strings"
)

// GateKind enumerates the gate set of the circuit IR.
type GateKind int

// Supported gates.
const (
	GateH GateKind = iota
	GateX
	GateY
	GateZ
	GateRX
	GateRY
	GateRZ
	GatePhase
	GateCNOT
	GateCZ
	GateSWAP
	GateZZ
)

var gateNames = map[GateKind]string{
	GateH: "H", GateX: "X", GateY: "Y", GateZ: "Z",
	GateRX: "RX", GateRY: "RY", GateRZ: "RZ", GatePhase: "P",
	GateCNOT: "CNOT", GateCZ: "CZ", GateSWAP: "SWAP", GateZZ: "ZZ",
}

// String returns the conventional gate mnemonic.
func (k GateKind) String() string {
	if s, ok := gateNames[k]; ok {
		return s
	}
	return fmt.Sprintf("GateKind(%d)", int(k))
}

// parametric reports whether the gate carries a rotation angle.
func (k GateKind) parametric() bool {
	switch k {
	case GateRX, GateRY, GateRZ, GatePhase, GateZZ:
		return true
	}
	return false
}

// twoQubit reports whether the gate acts on two qubits.
func (k GateKind) twoQubit() bool {
	switch k {
	case GateCNOT, GateCZ, GateSWAP, GateZZ:
		return true
	}
	return false
}

// Op is one gate application. Q2 is ignored for single-qubit gates and
// Theta for non-parametric gates.
type Op struct {
	Kind   GateKind
	Q1, Q2 int
	Theta  float64
}

// String renders the op, e.g. "RZ(1.571) q0" or "CNOT q1,q2".
func (o Op) String() string {
	var b strings.Builder
	b.WriteString(o.Kind.String())
	if o.Kind.parametric() {
		fmt.Fprintf(&b, "(%.4g)", o.Theta)
	}
	fmt.Fprintf(&b, " q%d", o.Q1)
	if o.Kind.twoQubit() {
		fmt.Fprintf(&b, ",q%d", o.Q2)
	}
	return b.String()
}

// Circuit is an ordered gate list over a fixed register width. The zero
// value is not usable; construct with NewCircuit.
type Circuit struct {
	n   int
	ops []Op
}

// NewCircuit returns an empty circuit on n qubits.
func NewCircuit(n int) *Circuit {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("quantum: qubit count %d out of [1,%d]", n, MaxQubits))
	}
	return &Circuit{n: n}
}

// NumQubits returns the register width.
func (c *Circuit) NumQubits() int { return c.n }

// Ops returns a copy of the gate list.
func (c *Circuit) Ops() []Op { return append([]Op(nil), c.ops...) }

// Len returns the number of gates.
func (c *Circuit) Len() int { return len(c.ops) }

// Depth returns the circuit depth assuming gates on disjoint qubits
// commute into the same layer (simple as-late-as-possible scheduling).
func (c *Circuit) Depth() int {
	busyUntil := make([]int, c.n)
	depth := 0
	for _, op := range c.ops {
		layer := busyUntil[op.Q1]
		if op.Kind.twoQubit() && busyUntil[op.Q2] > layer {
			layer = busyUntil[op.Q2]
		}
		layer++
		busyUntil[op.Q1] = layer
		if op.Kind.twoQubit() {
			busyUntil[op.Q2] = layer
		}
		if layer > depth {
			depth = layer
		}
	}
	return depth
}

// CountKind returns the number of gates of the given kind.
func (c *Circuit) CountKind(k GateKind) int {
	n := 0
	for _, op := range c.ops {
		if op.Kind == k {
			n++
		}
	}
	return n
}

func (c *Circuit) add(op Op) *Circuit {
	if op.Q1 < 0 || op.Q1 >= c.n || (op.Kind.twoQubit() && (op.Q2 < 0 || op.Q2 >= c.n)) {
		panic(fmt.Sprintf("quantum: op %v out of range for %d qubits", op, c.n))
	}
	if op.Kind.twoQubit() && op.Q1 == op.Q2 {
		panic(fmt.Sprintf("quantum: two-qubit op %v with identical qubits", op))
	}
	c.ops = append(c.ops, op)
	return c
}

// H appends a Hadamard on q.
func (c *Circuit) H(q int) *Circuit { return c.add(Op{Kind: GateH, Q1: q}) }

// X appends a Pauli-X on q.
func (c *Circuit) X(q int) *Circuit { return c.add(Op{Kind: GateX, Q1: q}) }

// Y appends a Pauli-Y on q.
func (c *Circuit) Y(q int) *Circuit { return c.add(Op{Kind: GateY, Q1: q}) }

// Z appends a Pauli-Z on q.
func (c *Circuit) Z(q int) *Circuit { return c.add(Op{Kind: GateZ, Q1: q}) }

// RX appends RX(θ) on q.
func (c *Circuit) RX(q int, theta float64) *Circuit {
	return c.add(Op{Kind: GateRX, Q1: q, Theta: theta})
}

// RY appends RY(θ) on q.
func (c *Circuit) RY(q int, theta float64) *Circuit {
	return c.add(Op{Kind: GateRY, Q1: q, Theta: theta})
}

// RZ appends RZ(θ) on q.
func (c *Circuit) RZ(q int, theta float64) *Circuit {
	return c.add(Op{Kind: GateRZ, Q1: q, Theta: theta})
}

// Phase appends diag(1, e^{iφ}) on q.
func (c *Circuit) Phase(q int, phi float64) *Circuit {
	return c.add(Op{Kind: GatePhase, Q1: q, Theta: phi})
}

// CNOT appends a controlled-X with the given control and target.
func (c *Circuit) CNOT(control, target int) *Circuit {
	return c.add(Op{Kind: GateCNOT, Q1: control, Q2: target})
}

// CZ appends a controlled-Z between a and b.
func (c *Circuit) CZ(a, b int) *Circuit { return c.add(Op{Kind: GateCZ, Q1: a, Q2: b}) }

// SWAP appends a swap of a and b.
func (c *Circuit) SWAP(a, b int) *Circuit { return c.add(Op{Kind: GateSWAP, Q1: a, Q2: b}) }

// ZZ appends exp(-iθ Z⊗Z/2) between a and b.
func (c *Circuit) ZZ(a, b int, theta float64) *Circuit {
	return c.add(Op{Kind: GateZZ, Q1: a, Q2: b, Theta: theta})
}

// Apply runs the circuit on the given state in place.
// It panics if widths differ.
func (c *Circuit) Apply(s *State) {
	if s.NumQubits() != c.n {
		panic(fmt.Sprintf("quantum: circuit on %d qubits applied to %d-qubit state", c.n, s.NumQubits()))
	}
	for _, op := range c.ops {
		switch op.Kind {
		case GateH:
			s.H(op.Q1)
		case GateX:
			s.X(op.Q1)
		case GateY:
			s.Y(op.Q1)
		case GateZ:
			s.Z(op.Q1)
		case GateRX:
			s.RX(op.Q1, op.Theta)
		case GateRY:
			s.RY(op.Q1, op.Theta)
		case GateRZ:
			s.RZ(op.Q1, op.Theta)
		case GatePhase:
			s.Phase(op.Q1, op.Theta)
		case GateCNOT:
			s.CNOT(op.Q1, op.Q2)
		case GateCZ:
			s.CZ(op.Q1, op.Q2)
		case GateSWAP:
			s.SWAP(op.Q1, op.Q2)
		case GateZZ:
			s.ZZ(op.Q1, op.Q2, op.Theta)
		default:
			panic(fmt.Sprintf("quantum: unknown gate kind %v", op.Kind))
		}
	}
}

// Simulate runs the circuit from |0...0⟩ and returns the final state.
func (c *Circuit) Simulate() *State {
	s := NewState(c.n)
	c.Apply(s)
	return s
}

// String renders the circuit one op per line.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit(%d qubits, %d ops)\n", c.n, len(c.ops))
	for _, op := range c.ops {
		b.WriteString("  ")
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Append concatenates the gates of other onto c. Register widths must
// match.
func (c *Circuit) Append(other *Circuit) *Circuit {
	if other.n != c.n {
		panic(fmt.Sprintf("quantum: appending %d-qubit circuit to %d-qubit circuit", other.n, c.n))
	}
	c.ops = append(c.ops, other.ops...)
	return c
}

// Inverse returns the adjoint circuit: gates reversed, rotation angles
// negated. Applying c then c.Inverse() is the identity.
func (c *Circuit) Inverse() *Circuit {
	inv := NewCircuit(c.n)
	for i := len(c.ops) - 1; i >= 0; i-- {
		op := c.ops[i]
		if op.Kind.parametric() {
			op.Theta = -op.Theta
		}
		// H, X, Y, Z, CNOT, CZ and SWAP are self-inverse.
		inv.ops = append(inv.ops, op)
	}
	return inv
}
