package quantum

import (
	"strings"
	"testing"
)

func TestQASMHeaderAndGates(t *testing.T) {
	c := NewCircuit(3).
		H(0).X(1).Y(2).Z(0).
		RX(0, 0.5).RY(1, 0.25).RZ(2, 1.5).Phase(0, 0.75).
		CNOT(0, 1).CZ(1, 2).SWAP(0, 2)
	q := c.QASM()
	for _, want := range []string{
		"OPENQASM 2.0;",
		"include \"qelib1.inc\";",
		"qreg q[3];",
		"h q[0];",
		"x q[1];",
		"y q[2];",
		"z q[0];",
		"rx(0.5) q[0];",
		"ry(0.25) q[1];",
		"rz(1.5) q[2];",
		"u1(0.75) q[0];",
		"cx q[0],q[1];",
		"cz q[1],q[2];",
		"swap q[0],q[2];",
	} {
		if !strings.Contains(q, want) {
			t.Errorf("QASM missing %q:\n%s", want, q)
		}
	}
}

func TestQASMZZDecomposition(t *testing.T) {
	q := NewCircuit(2).ZZ(0, 1, 0.8).QASM()
	want := "cx q[0],q[1];\nrz(0.8) q[1];\ncx q[0],q[1];"
	if !strings.Contains(q, want) {
		t.Errorf("ZZ decomposition missing:\n%s", q)
	}
}

func TestQASMQAOAShapedCircuit(t *testing.T) {
	// A depth-1 QAOA-like circuit exports without panicking and with one
	// line per gate (+3 header lines, ZZ expands to 3).
	c := NewCircuit(4)
	for q := 0; q < 4; q++ {
		c.H(q)
	}
	c.ZZ(0, 1, 0.4).ZZ(2, 3, 0.4)
	for q := 0; q < 4; q++ {
		c.RX(q, 0.6)
	}
	q := c.QASM()
	lines := strings.Count(strings.TrimSpace(q), "\n") + 1
	want := 3 + 4 + 2*3 + 4
	if lines != want {
		t.Errorf("QASM lines = %d, want %d:\n%s", lines, want, q)
	}
}
