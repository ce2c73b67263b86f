package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"testing"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/server"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		p        float64
		tooFew   int
		enough   int
		wantAt   float64 // value at `enough` samples
		beyondAt int
	}{
		{50, 19, 20, 10, 10},
		{90, 99, 100, 90, 10},
		{99, 999, 1000, 990, 10},
	} {
		if _, err := percentile(seq(c.tooFew), c.p); err == nil {
			t.Errorf("p%g accepted %d samples; needs %d", c.p, c.tooFew, c.enough)
		}
		xs := seq(c.enough)
		v, err := percentile(xs, c.p)
		if err != nil {
			t.Fatalf("p%g of %d samples: %v", c.p, c.enough, err)
		}
		if v != c.wantAt {
			t.Errorf("p%g of 1..%d = %v, want %v", c.p, c.enough, v, c.wantAt)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < c.beyondAt {
			t.Errorf("p%g of %d samples leaves %d beyond, want >= %d", c.p, c.enough, beyond, c.beyondAt)
		}
		if xs[0] != float64(c.enough) {
			t.Errorf("percentile modified its input")
		}
	}
}

// stealTimeline builds 20 one-second windows of 100 solves each. A
// window's latencies are scale × 1..100 ms, so its p90 is 90 × scale.
func stealTimeline(scale func(w int) float64) [][2]float64 {
	var timeline [][2]float64
	for w := 0; w < 20; w++ {
		for i := 0; i < 100; i++ {
			timeline = append(timeline, [2]float64{float64(w*1000 + i*10), scale(w) * float64(i+1)})
		}
	}
	return timeline
}

func TestLowStealPercentileReadsQuietWindows(t *testing.T) {
	// Windows 0–5 are stolen (20 % steal) and run 3× slower; the 14
	// quiet ones run at 1× or, every fourth window, 1.5×.
	steal := make([]float64, 20)
	for w := 0; w < 6; w++ {
		steal[w] = 0.2
	}
	quiet := func(w int) float64 {
		if w%4 == 0 {
			return 1.5
		}
		return 1
	}
	timeline := stealTimeline(func(w int) float64 {
		if steal[w] > quietSteal {
			return 3
		}
		return quiet(w)
	})
	v, used, err := lowStealPercentile(timeline, 1000, steal, 90)
	if err != nil {
		t.Fatal(err)
	}
	if v != 90 || used != 14 {
		t.Errorf("low-steal p90 = %v over %d windows, want 90 over the 14 quiet ones", v, used)
	}
	if whole, _ := percentile(latencies(timeline), 90); whole <= 90 {
		t.Errorf("whole-run p90 = %v, want it above the quiet windows' 90", whole)
	}

	// A slowdown of the program that shows only in some quiet seconds
	// moves the figure once it holds in most of them: the figure is
	// not the best second.
	slow := stealTimeline(func(w int) float64 {
		if steal[w] > quietSteal {
			return 3
		}
		if w >= 10 {
			return 2 * quiet(w)
		}
		return quiet(w)
	})
	if v, _, _ := lowStealPercentile(slow, 1000, steal, 90); v <= 90 {
		t.Errorf("p90 = %v with 10 of 14 quiet windows 2× slower, want above 90", v)
	}

	// Fewer than minWindows quiet windows: the least-stolen minWindows
	// are used.
	heavy := make([]float64, 20)
	for w := range heavy {
		heavy[w] = 0.1 + float64(w)/100
	}
	if _, used, err := lowStealPercentile(timeline, 1000, heavy, 90); err != nil || used != minWindows {
		t.Errorf("all windows stolen: used %d windows (%v), want the %d least stolen", used, err, minWindows)
	}
	// No steal figures: every window counts.
	if _, used, _ := lowStealPercentile(timeline, 1000, nil, 90); used != 20 {
		t.Errorf("without steal figures used %d windows, want all 20", used)
	}

	// A window too small for a p90 is left out, and too few windows
	// is an error rather than a figure.
	if _, _, err := lowStealPercentile(timeline[:900], 1000, steal, 90); err == nil {
		t.Errorf("9 windows accepted; needs %d", minWindows)
	}
	if _, _, err := lowStealPercentile(timeline, 500, steal, 90); err == nil {
		t.Errorf("windows of 50 solves accepted for a p90")
	}
}

// fakeClock advances only when told to, so the generator's schedule
// can be checked exactly. It is used with one caller.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	interval := 10 * time.Millisecond
	// Request 1 stalls for 35 ms; requests 2–4 were due during the
	// stall and go out late. Request 3 is refused.
	service := []time.Duration{2, 35, 2, 2, 2, 2}
	samples := openLoop(clk, t0, interval, len(service), 1, func(i int, due time.Time) outcome {
		clk.now = clk.now.Add(service[i] * time.Millisecond)
		return outcome{End: clk.now, Failed: i == 3}
	})
	wantLag := []float64{0, 0, 25, 17, 9, 1}
	wantLat := []float64{2, 35, 27, 0, 11, 3}
	for i, s := range samples {
		if got := ms(s.Lag()); got != wantLag[i] {
			t.Errorf("request %d: lag %v ms, want %v", i, got, wantLag[i])
		}
		if !s.Due.Equal(t0.Add(time.Duration(i) * interval)) {
			t.Errorf("request %d due %v, want start + %d·interval", i, s.Due, i)
		}
		if !s.Failed {
			if got := ms(s.Latency()); got != wantLat[i] {
				t.Errorf("request %d: latency %v ms, want %v (measured from due time)", i, got, wantLat[i])
			}
		}
	}
	st := summarizeLoad(samples)
	if st.Attempted != 6 || st.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want 6 and 1", st.Attempted, st.Failed)
	}
	if len(st.Latencies) != 5 {
		t.Fatalf("%d latency samples, want 5: a refusal is not a latency sample", len(st.Latencies))
	}
	for _, l := range st.Latencies {
		if l == 0 {
			t.Fatalf("the refused request's latency was recorded")
		}
	}
	// 5 completed solves between the first due time (0) and the last
	// finish (53 ms).
	if want := 5 / 0.053; st.Throughput < want*0.999 || st.Throughput > want*1.001 {
		t.Errorf("throughput %v, want %v", st.Throughput, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "solve", Parent: -1, Start: 0, End: 100},
		{Name: "core.level1", Parent: 0, Start: 10, End: 60},
		{Name: "optimize.run", Parent: 1, Start: 15, End: 55},
		{Name: "qaoa.expect", Parent: 2, Start: 20, End: 30},
		{Name: "qaoa.grad", Parent: 2, Start: 25, End: 40},   // overlaps the expect call
		{Name: "qaoa.expect", Parent: 2, Start: 50, End: 70}, // runs past its parent
		{Name: "ml.predict", Parent: 0, Start: 60, End: 65},
	}
	want := []int64{100 - 50 - 5, 50 - 40, 40 - (20 + 5), 10, 15, 20, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelf(spans)
	for name, w := range map[string]int64{"core": 10, "optimize": 15, "qaoa": 45, "ml": 5} {
		if layers[name] != w {
			t.Errorf("layer %s self %d, want %d", name, layers[name], w)
		}
	}
	if _, ok := layers[rootSpan]; ok {
		t.Errorf("the root span counted as a layer")
	}
}

// TestReplayMatchesCore replays one small item of each strategy and
// checks it against the core flows bit for bit.
func TestReplayMatchesCore(t *testing.T) {
	ctx := context.Background()
	_, pred, _, _, err := trainPredictor(ctx, core.DataGenConfig{
		NumGraphs: 6, Nodes: 6, EdgeProb: 0.5, MaxDepth: 3, Starts: 1, Tol: 1e-6, Seed: 3, Workers: 1,
	}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	specs := []problem.Spec{problem.MaxCut(graph.ErdosRenyiConnected(6, 0.5, rng))}
	ksat, err := problem.RandomSpec(problem.FamilyMaxKSAT, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, ksat)
	for _, sp := range specs {
		for _, strategy := range []string{strategyNaive, strategyTwoLevel} {
			for _, opt := range []string{"lbfgsb", "neldermead"} {
				it := item{ID: sp.Family + "-" + strategy + "-" + opt, Spec: sp, Depth: 3, Strategy: strategy, Opt: opt, Seed: 9}
				arena := qaoa.NewArena(0)
				want, err := solvePlain(ctx, it, nil, pred, arena, nil, true)
				if err != nil {
					t.Fatal(err)
				}
				tr := newTracer()
				got, err := replaySolve(ctx, tr, it, nil, pred, arena, true)
				arena.Close()
				if err != nil {
					t.Fatal(err)
				}
				if err := sameBits(got, want); err != nil {
					t.Errorf("%s: replay differs from core: %v", it.ID, err)
				}
				if tr.spans[0].Name != rootSpan || tr.spans[0].End == 0 {
					t.Errorf("%s: root span missing or open", it.ID)
				}
				for _, s := range tr.spans {
					if s.End < s.Start {
						t.Errorf("%s: span %s ends before it starts", it.ID, s.Name)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's
// metric and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
}

// TestMatchServedReadsTheWire checks a served result the way it
// arrives: a -0 objective is omitted on the wire and reads back as +0,
// which must not count as a mismatch, while any other difference does.
func TestMatchServedReadsTheWire(t *testing.T) {
	want := solveOut{AR: 0.9, Gamma: []float64{0.1}, Beta: []float64{0.2}, NFev: 12,
		Objective: math.Copysign(0, -1), Assign: 0b101, HasReadout: true}
	blob, err := json.Marshal(server.SolveResult{AR: want.AR, Gamma: want.Gamma, Beta: want.Beta,
		NFev: want.NFev, Objective: want.Objective, Assignment: "101"})
	if err != nil {
		t.Fatal(err)
	}
	var res server.SolveResult
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatal(err)
	}
	if err := matchServed(&res, want, 3); err != nil {
		t.Errorf("a -0 objective read back from the wire: %v", err)
	}
	res.NFev++
	if err := matchServed(&res, want, 3); err == nil {
		t.Errorf("a different FC was accepted")
	}
}

func TestHandlerTimerAttributesTaggedRequests(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		w.Write([]byte("{}"))
	})
	timer := newHandlerTimer(slow)
	base, stop, err := serve(timer)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ctx := context.Background()
	tagged, plain := newTaggedClient(), newClient()
	defer tagged.CloseIdleConnections()
	defer plain.CloseIdleConnections()
	var out struct{}
	// Request 7 makes two calls, as an SSE request does; untagged calls
	// (warm-up, polling) are not attributed.
	for k := 0; k < 2; k++ {
		if _, err := getJSON(withTag(ctx, 7), tagged, base, &out); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := getJSON(withTag(ctx, 8), plain, base, &out); err != nil {
		t.Fatal(err)
	}
	if _, inside, ok := timer.request(7); !ok || inside < 40 {
		t.Errorf("request 7: %v ms inside handlers (seen %v), want at least 40 over two calls", inside, ok)
	}
	if _, _, ok := timer.request(8); ok {
		t.Errorf("a call from the untagged client was attributed")
	}
}
