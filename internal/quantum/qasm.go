package quantum

import (
	"fmt"
	"strings"
)

// QASM renders the circuit as OpenQASM 2.0, the interchange format
// accepted by IBM Quantum and most simulators — the bridge from this
// exact simulator to real hardware. Gates with no single standard-
// library QASM equivalent are emitted as their textbook decompositions:
//
//	ZZ(θ)  → cx; rz(θ); cx
//	P(φ)   → u1(φ)
func (c *Circuit) QASM() string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\n")
	b.WriteString("include \"qelib1.inc\";\n")
	fmt.Fprintf(&b, "qreg q[%d];\n", c.n)
	for _, op := range c.ops {
		switch op.Kind {
		case GateH:
			fmt.Fprintf(&b, "h q[%d];\n", op.Q1)
		case GateX:
			fmt.Fprintf(&b, "x q[%d];\n", op.Q1)
		case GateY:
			fmt.Fprintf(&b, "y q[%d];\n", op.Q1)
		case GateZ:
			fmt.Fprintf(&b, "z q[%d];\n", op.Q1)
		case GateRX:
			fmt.Fprintf(&b, "rx(%.12g) q[%d];\n", op.Theta, op.Q1)
		case GateRY:
			fmt.Fprintf(&b, "ry(%.12g) q[%d];\n", op.Theta, op.Q1)
		case GateRZ:
			fmt.Fprintf(&b, "rz(%.12g) q[%d];\n", op.Theta, op.Q1)
		case GatePhase:
			fmt.Fprintf(&b, "u1(%.12g) q[%d];\n", op.Theta, op.Q1)
		case GateCNOT:
			fmt.Fprintf(&b, "cx q[%d],q[%d];\n", op.Q1, op.Q2)
		case GateCZ:
			fmt.Fprintf(&b, "cz q[%d],q[%d];\n", op.Q1, op.Q2)
		case GateSWAP:
			fmt.Fprintf(&b, "swap q[%d],q[%d];\n", op.Q1, op.Q2)
		case GateZZ:
			fmt.Fprintf(&b, "cx q[%d],q[%d];\n", op.Q1, op.Q2)
			fmt.Fprintf(&b, "rz(%.12g) q[%d];\n", op.Theta, op.Q2)
			fmt.Fprintf(&b, "cx q[%d],q[%d];\n", op.Q1, op.Q2)
		default:
			panic(fmt.Sprintf("quantum: QASM export for unknown gate %v", op.Kind))
		}
	}
	return b.String()
}
