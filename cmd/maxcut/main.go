// Command maxcut solves a (weighted) MaxCut instance with QAOA.
//
// The graph is an edge list read from a file or stdin, one edge per
// line as "u v" or "u v weight" (0-based vertex ids, '#' comments).
//
//	echo "0 1
//	1 2
//	0 2 2.5" | maxcut -depth 2
//
// The tool runs a multistart QAOA optimization, prints the optimized
// angles, the expected and most-probable cut, and (for small graphs)
// the exact optimum for comparison.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"qaoaml/internal/core"
	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
)

func main() {
	var (
		depth   = flag.Int("depth", 2, "QAOA circuit depth p")
		optName = flag.String("optimizer", "lbfgsb", "local optimizer: lbfgsb|neldermead|slsqp|cobyla|spsa")
		starts  = flag.Int("starts", 10, "random multistarts")
		seed    = flag.Int64("seed", 1, "RNG seed")
		tol     = flag.Float64("tol", 1e-6, "functional tolerance")
		file    = flag.String("f", "-", "edge-list file ('-' = stdin)")
		quiet   = flag.Bool("q", false, "print only the assignment and cut value")
	)
	flag.Parse()

	if err := run(*file, *depth, *optName, *starts, *seed, *tol, *quiet, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "maxcut:", err)
		os.Exit(1)
	}
}

func run(file string, depth int, optName string, starts int, seed int64, tol float64, quiet bool, w io.Writer) error {
	var in io.Reader = os.Stdin
	if file != "-" {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	g, err := parseEdgeList(in)
	if err != nil {
		return err
	}
	opt, err := optimizerByName(optName, tol)
	if err != nil {
		return err
	}
	pb, err := qaoa.NewProblem(g)
	if err != nil {
		return err
	}
	if depth < 1 {
		return fmt.Errorf("depth %d < 1", depth)
	}
	if starts < 1 {
		return fmt.Errorf("starts %d < 1", starts)
	}

	rng := rand.New(rand.NewSource(seed))
	rec, err := core.OptimizeDepthCtx(context.Background(), pb, 0, depth, starts, opt, rng, nil)
	if err != nil {
		return err
	}
	cut, assign := pb.BestSampledCut(rec.Params)

	if quiet {
		fmt.Fprintf(w, "%0*b %g\n", g.N, assign, cut)
		return nil
	}
	fmt.Fprintf(w, "graph: %v\n", g)
	fmt.Fprintf(w, "optimizer: %s, depth %d, %d starts, tol %g\n", opt.Name(), depth, starts, tol)
	fmt.Fprintf(w, "QC calls: %d\n", rec.NFev)
	fmt.Fprintf(w, "angles: γ=%.4f β=%.4f\n", rec.Params.Gamma, rec.Params.Beta)
	fmt.Fprintf(w, "expected cut ⟨C⟩: %.4f\n", pb.Expectation(rec.Params))
	fmt.Fprintf(w, "approximation ratio: %.4f\n", rec.AR)
	fmt.Fprintf(w, "assignment: %0*b → cut %g\n", g.N, assign, cut)
	optV, optAssign := g.WeightedMaxCut()
	fmt.Fprintf(w, "exact optimum (brute force): %0*b → cut %g\n", g.N, optAssign, optV)
	return nil
}

// parseEdgeList reads "u v [weight]" lines, ignoring blanks and
// '#'-comments, and returns a graph sized to the largest vertex id.
func parseEdgeList(r io.Reader) (*graph.Graph, error) {
	type edge struct {
		u, v int
		w    float64
	}
	var edges []edge
	maxV := -1
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("line %d: want 'u v [weight]', got %q", lineNo, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad vertex %q", lineNo, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad vertex %q", lineNo, fields[1])
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("line %d: negative vertex id", lineNo)
		}
		wgt := 1.0
		if len(fields) == 3 {
			wgt, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad weight %q", lineNo, fields[2])
			}
		}
		edges = append(edges, edge{u, v, wgt})
		if u > maxV {
			maxV = u
		}
		if v > maxV {
			maxV = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("no edges in input")
	}
	if maxV+1 > 20 {
		return nil, fmt.Errorf("graph has %d vertices; the exact simulator is limited to 20", maxV+1)
	}
	g := graph.New(maxV + 1)
	for _, e := range edges {
		if err := g.AddWeightedEdge(e.u, e.v, e.w); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// optimizerByName maps a CLI name to an optimizer at the given tolerance.
func optimizerByName(name string, tol float64) (optimize.Optimizer, error) {
	switch strings.ToLower(name) {
	case "lbfgsb", "l-bfgs-b":
		return &optimize.LBFGSB{Tol: tol}, nil
	case "neldermead", "nelder-mead", "nm":
		return &optimize.NelderMead{Tol: tol}, nil
	case "slsqp":
		return &optimize.SLSQP{Tol: tol}, nil
	case "cobyla":
		return &optimize.COBYLA{Tol: tol}, nil
	case "spsa":
		return &optimize.SPSA{Tol: tol}, nil
	}
	return nil, fmt.Errorf("unknown optimizer %q", name)
}
