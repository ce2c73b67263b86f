package qaoa

import (
	"math/rand"
	"runtime"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
)

// Sharded-workspace bit-identity: every cost kernel (materialized
// MaxCut, streaming MaxCut, streaming Ising/Max-k-SAT) must produce
// EXACTLY the same expectation values and adjoint gradients over the
// sharded state layout as over the flat one, at every shard count and
// every GOMAXPROCS. Comparisons use ==, never tolerances.

func shardTestProblems(t *testing.T, n int) map[string]*Problem {
	t.Helper()
	pbs := map[string]*Problem{
		"maxcut": mustProblem(t, graph.RandomRegular(n, 3, rand.New(rand.NewSource(171)))),
	}
	ising, err := NewIsing(problem.RandomIsing(n, rand.New(rand.NewSource(172))))
	if err != nil {
		t.Fatal(err)
	}
	pbs["ising"] = ising
	f := problem.RandomMaxKSAT(n-6, 6, 3, rand.New(rand.NewSource(173)))
	ksat, err := New(problem.MaxKSAT(f))
	if err != nil {
		t.Fatal(err)
	}
	if ksat.NumQubits() != n {
		t.Fatalf("maxksat compiled to %d qubits, want %d", ksat.NumQubits(), n)
	}
	pbs["maxksat"] = ksat
	return pbs
}

func TestShardedWorkspaceBitIdenticalToFlat(t *testing.T) {
	const n = 18
	x := []float64{0.4, -0.3, 0.25, 0.7} // p = 2
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for name, pb := range shardTestProblems(t, n) {
		flat := newFlatWorkspace(pb.kernel(), nil)
		fgrad := make([]float64, len(x))
		grad := make([]float64, len(x))
		for _, shardBits := range []int{0, 1, 2} {
			sharded := pb.NewWorkspaceShards(shardBits)
			if got, want := sharded.Shards(), 1<<shardBits; got != want {
				t.Fatalf("%s: Shards() = %d, want %d", name, got, want)
			}
			for _, workers := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(workers)
				fval := flat.ExpectationVec(x)
				sval := sharded.ExpectationVec(x)
				if sval != fval {
					t.Errorf("%s shards=%d workers=%d: expectation %v != flat %v",
						name, 1<<shardBits, workers, sval, fval)
				}
				fgval := flat.ValueGrad(x, fgrad)
				sgval := sharded.ValueGrad(x, grad)
				if sgval != fgval {
					t.Errorf("%s shards=%d workers=%d: gradient value %v != flat %v",
						name, 1<<shardBits, workers, sgval, fgval)
				}
				for i := range grad {
					if grad[i] != fgrad[i] {
						t.Errorf("%s shards=%d workers=%d: grad[%d] %v != flat %v",
							name, 1<<shardBits, workers, i, grad[i], fgrad[i])
					}
				}
			}
			sharded.Close()
		}
	}
}

// Full-size check: a 24-qubit streaming MaxCut over 4 shards matches
// the flat path exactly (two 256 MiB shard sets; seconds of runtime).
func TestShardedWorkspaceN24MatchesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("n=24 sharded identity check skipped in short mode")
	}
	if raceEnabled {
		t.Skip("full-size identity check is too slow under -race; n=18 suite covers the raced path")
	}
	pb := mustProblem(t, graph.RandomRegular(24, 3, rand.New(rand.NewSource(241))))
	x := []float64{0.4, 0.3}
	flat := newFlatWorkspace(pb.kernel(), nil)
	sharded := pb.NewWorkspaceShards(2)
	defer sharded.Close()

	fgrad := make([]float64, len(x))
	grad := make([]float64, len(x))
	if fval, sval := flat.ExpectationVec(x), sharded.ExpectationVec(x); sval != fval {
		t.Errorf("n=24: sharded expectation %v != flat %v", sval, fval)
	}
	fgval := flat.ValueGrad(x, fgrad)
	sgval := sharded.ValueGrad(x, grad)
	if sgval != fgval {
		t.Errorf("n=24: sharded gradient value %v != flat %v", sgval, fgval)
	}
	for i := range grad {
		if grad[i] != fgrad[i] {
			t.Errorf("n=24: grad[%d] %v != flat %v", i, grad[i], fgrad[i])
		}
	}
}

// The streaming kernels' chunk scratch must survive garbage collection:
// the old shared sync.Pool was cleared per P on every GC, so a steady
// evaluation stream re-allocated scratch once per P per cycle and
// bytes/op grew with GOMAXPROCS (53 KB/op at 8 procs on ising/n20).
// The bounded channel freelists are GC-immune; a warm expectation now
// stays under a flat byte budget even with a forced GC before every
// call.
func TestStreamScratchSurvivesGC(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(8)

	problems := map[string]*Problem{}
	ising, err := NewIsing(problem.RandomIsing(20, rand.New(rand.NewSource(61))))
	if err != nil {
		t.Fatal(err)
	}
	problems["ising/n20"] = ising
	f := problem.RandomMaxKSAT(14, 6, 3, rand.New(rand.NewSource(62)))
	ksat, err := New(problem.MaxKSAT(f))
	if err != nil {
		t.Fatal(err)
	}
	problems["maxksat/n20"] = ksat
	maxcut, err := NewProblem(graph.RandomRegular(20, 3, rand.New(rand.NewSource(60))))
	if err != nil {
		t.Fatal(err)
	}
	problems["maxcut/n20"] = maxcut

	x := []float64{0.4, 0.3}
	for name, pb := range problems {
		k := pb.kernel().(*isingStreamKernel)
		primeScratch(k.scratch, 1<<uint(k.cb))
		w := pb.NewWorkspace()
		for i := 0; i < 3; i++ {
			w.ExpectationVec(x) // warm pool workers and factor tables
		}
		const iters = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			runtime.GC() // would clear sync.Pool caches; freelists survive
			w.ExpectationVec(x)
		}
		runtime.ReadMemStats(&after)
		perOp := float64(after.TotalAlloc-before.TotalAlloc) / iters
		if perOp > 4096 {
			t.Errorf("%s: %.0f bytes/op allocated across GC cycles at GOMAXPROCS 8, want flat (<= 4096)",
				name, perOp)
		}
	}
}

// primeScratch stocks a kernel's scratch freelist with fully-sized
// buffers up to the worst-case concurrent-holder count, so the
// measurement loop never hits a first-use allocation. Priming through
// the old sync.Pool would be useless — the first GC emptied it.
func primeScratch(l scratchList, clen int) {
	bufs := make([]*streamScratch, 16)
	for i := range bufs {
		ws := l.get()
		ws.genBuf(clen)
		ws.idxBuf(clen)
		bufs[i] = ws
	}
	for _, ws := range bufs {
		l.put(ws)
	}
}

// Parallel throughput floor for the streaming Ising path, pinning the
// satellite fix (per-worker allocation growth ate the 2-worker win):
// with real cores available, 2 workers must beat 1 by >= 1.5x on the
// n=20 streaming kernels. Skipped where the hardware cannot show it.
func TestIsingStreamTwoWorkerSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in short mode")
	}
	if raceEnabled {
		t.Skip("timings are not meaningful under -race")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs to measure parallel speedup, have %d", runtime.NumCPU())
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	ising, err := NewIsing(problem.RandomIsing(20, rand.New(rand.NewSource(61))))
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.4, 0.3}
	w := ising.NewWorkspace()
	measure := func(procs int) float64 {
		runtime.GOMAXPROCS(procs)
		w.ExpectationVec(x) // warm at this worker count
		best := 0.0
		for rep := 0; rep < 5; rep++ {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.ExpectationVec(x)
				}
			})
			opsPerSec := float64(res.N) / res.T.Seconds()
			if opsPerSec > best {
				best = opsPerSec
			}
		}
		return best
	}
	serial := measure(1)
	parallel := measure(2)
	if speedup := parallel / serial; speedup < 1.5 {
		t.Errorf("ising/n20 2-worker speedup %.2fx, want >= 1.5x", speedup)
	}
}
