package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
	"qaoaml/internal/server"
	"qaoaml/internal/telemetry"
)

// Fleet integration tests: real server.Server instances behind httptest
// listeners, wired exactly as qaoad -role=coordinator/-role=worker
// wires them. Everything runs the naive strategy (no model registry
// needed) on small instances, so the suite stays fast enough for -race.

type node struct {
	srv *server.Server
	ts  *httptest.Server
	mem *telemetry.Memory
}

func startNode(t *testing.T, cfg server.Config) *node {
	t.Helper()
	if cfg.Recorder == nil {
		cfg.Recorder = telemetry.NewMemory()
	}
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &node{srv: s, ts: ts, mem: cfg.Recorder}
}

// startFleet brings up n workers plus a coordinator dispatching to
// them. coordCfg tweaks the coordinator's server config.
func startFleet(t *testing.T, n int, coordCfg server.Config) (*node, []*node, *Dispatcher) {
	t.Helper()
	workers := make([]*node, n)
	addrs := make([]string, n)
	for i := range workers {
		workers[i] = startNode(t, server.Config{Workers: 2})
		addrs[i] = workers[i].ts.URL
	}
	if coordCfg.Recorder == nil {
		coordCfg.Recorder = telemetry.NewMemory()
	}
	disp, err := NewDispatcher(DispatcherConfig{
		Workers:        addrs,
		Recorder:       coordCfg.Recorder,
		HealthInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disp.Close)
	coordCfg.Workers = 2
	coordCfg.Dispatcher = disp
	coord := startNode(t, coordCfg)
	return coord, workers, disp
}

// fleetReq is a small deterministic MaxCut instance; i varies the
// instance so tests can spread keys over the ring.
func fleetReq(i int) server.SolveRequest {
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}, {0, 4}, {2, 6}}
	edges = append(edges, [2]int{i % 8, (i + 3) % 8})
	return server.SolveRequest{
		Nodes: 8, Edges: edges, Depth: 2,
		Strategy: "naive", Seed: int64(1 + i), Wait: true,
	}
}

// maxCutFingerprint is the fingerprint the coordinator dispatches a
// MaxCut request on: the graph the server builds from it, hashed as a
// problem.Spec.
func maxCutFingerprint(t *testing.T, req server.SolveRequest) string {
	t.Helper()
	g := graph.New(req.Nodes)
	for i, e := range req.Edges {
		w := 1.0
		if req.Weights != nil {
			w = req.Weights[i]
		}
		if err := g.AddWeightedEdge(e[0], e[1], w); err != nil {
			t.Fatal(err)
		}
	}
	fp, err := problem.MaxCut(g).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func solveHTTP(t *testing.T, url string, req server.SolveRequest) (int, server.JobView) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var view server.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	return resp.StatusCode, view
}

func mustResult(t *testing.T, code int, view server.JobView) *server.SolveResult {
	t.Helper()
	if code != http.StatusOK || view.State != server.StateDone || view.Result == nil {
		t.Fatalf("solve: code %d, state %s, err %q", code, view.State, view.Error)
	}
	return view.Result
}

// solveDone submits a wait=true request and returns its done result.
func solveDone(t *testing.T, url string, req server.SolveRequest) *server.SolveResult {
	t.Helper()
	code, view := solveHTTP(t, url, req)
	return mustResult(t, code, view)
}

// The fleet must be invisible in the results: a coordinator + 2 workers
// returns bit-identical payloads to a single-process server for the
// same requests — determinism is what makes dispatch, retry and the
// sharded cache exact.
func TestFleetBitIdenticalToSingleProcess(t *testing.T) {
	single := startNode(t, server.Config{Workers: 2})
	coord, _, _ := startFleet(t, 2, server.Config{})
	for i := 0; i < 4; i++ {
		req := fleetReq(i)
		want := solveDone(t, single.ts.URL, req)
		got := solveDone(t, coord.ts.URL, req)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d: fleet result differs from single-process:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// With the coordinator's own cache disabled (CacheSize < 0), a repeat
// request must still cost zero optimizer evaluations: consistent-hash
// routing lands it on the worker that solved it, whose cache shard
// owns the key.
func TestFleetShardedCacheZeroFev(t *testing.T) {
	coord, workers, _ := startFleet(t, 2, server.Config{CacheSize: -1})
	req := fleetReq(0)
	first := solveDone(t, coord.ts.URL, req)

	fevBefore := make([]int64, len(workers))
	for i, w := range workers {
		fevBefore[i] = w.mem.CounterValue("optimize.fev_total")
	}
	again := solveDone(t, coord.ts.URL, req)
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("cached fleet result differs:\n got %+v\nwant %+v", again, first)
	}
	for i, w := range workers {
		if fev := w.mem.CounterValue("optimize.fev_total"); fev != fevBefore[i] {
			t.Fatalf("worker %d spent %d optimizer evaluations on a repeat request", i, fev-fevBefore[i])
		}
	}
	if hits := coord.mem.CounterValue("cluster.dispatch.remote_cache_hits"); hits < 1 {
		t.Fatalf("remote_cache_hits = %d, want >= 1 (repeat request must hit the owning worker's shard)", hits)
	}
}

// Killing a worker mid-fleet must not fail jobs: the dispatcher marks
// it down on the first transport error and walks the ring's failover
// sequence, and determinism guarantees the surviving worker returns
// the identical result.
func TestFleetWorkerFailover(t *testing.T) {
	single := startNode(t, server.Config{Workers: 2})
	coord, workers, disp := startFleet(t, 2, server.Config{CacheSize: -1})

	dead := workers[0].ts.URL
	ring := NewRing([]string{dead, workers[1].ts.URL})
	// Kill worker 0 outright (listener gone: connection refused, the
	// same signature as kill -9 from the coordinator's side).
	workers[0].ts.Close()

	// httptest ports are random, so the ring may route the first
	// requests away from the dead worker, and the health probe cannot
	// fire within the test. Keep going until one request is owned by
	// it, so the dispatcher must meet the dead address.
	hitDead := false
	for i := 0; i < 4 || !hitDead; i++ {
		if i == 64 {
			t.Fatal("no request routed to the dead worker")
		}
		req := fleetReq(i)
		if i >= 8 {
			// fleetReq repeats its graph with period 8; weighting the
			// chord gives every later request a fresh fingerprint.
			req.Weights = make([]float64, len(req.Edges))
			for e := range req.Weights {
				req.Weights[e] = 1
			}
			req.Weights[len(req.Weights)-1] = float64(1 + i/8)
		}
		hitDead = hitDead || ring.Owner(maxCutFingerprint(t, req)) == dead
		want := solveDone(t, single.ts.URL, req)
		got := solveDone(t, coord.ts.URL, req)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d: post-failover result differs:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if up := disp.Workers(); up[dead] {
		t.Fatal("dead worker still marked live after failed dispatches")
	}
}

// The SSE stream must proxy: subscribing on the coordinator yields the
// worker's per-iteration optimizer trace followed by the terminal
// result, identical to what the jobs endpoint reports.
func TestFleetSSEProxy(t *testing.T) {
	coord, _, _ := startFleet(t, 1, server.Config{})
	req := fleetReq(0)
	req.Wait = true
	code, view := solveHTTP(t, coord.ts.URL, req)
	want := mustResult(t, code, view)

	stream, err := OpenEvents(drainCtx(t, 10*time.Second), http.DefaultClient, coord.ts.URL, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	iterations := 0
	for {
		ev, err := stream.Next()
		if err != nil {
			t.Fatalf("stream broke after %d iterations: %v", iterations, err)
		}
		switch ev.Name {
		case server.EventIteration:
			var iter telemetry.IterEvent
			if err := json.Unmarshal(ev.Data, &iter); err != nil {
				t.Fatalf("bad iteration payload %q: %v", ev.Data, err)
			}
			if iter.NFev <= 0 {
				t.Fatalf("iteration event with no evaluations: %+v", iter)
			}
			iterations++
		case server.EventResult:
			var final server.JobView
			if err := json.Unmarshal(ev.Data, &final); err != nil {
				t.Fatal(err)
			}
			if iterations == 0 {
				t.Fatal("result arrived with no iteration events relayed")
			}
			if !reflect.DeepEqual(final.Result, want) {
				t.Fatalf("SSE terminal result differs from jobs endpoint:\n got %+v\nwant %+v", final.Result, want)
			}
			return
		}
	}
}

// Cancelling a job on the coordinator must abort the remote optimizer:
// the dispatch context cancellation turns into DELETE on the worker.
func TestFleetCancellationPropagates(t *testing.T) {
	coord, workers, _ := startFleet(t, 1, server.Config{})
	req := server.SolveRequest{
		Nodes: 16, Edges: ladder(16), Depth: 8,
		Strategy: "naive", Seed: 7,
	}
	code, view := solveHTTP(t, coord.ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d, view %+v", code, view)
	}
	// Let the dispatch reach the worker, then cancel coordinator-side.
	waitRemoteJob(t, workers[0].ts.URL, "job-00000001")
	delReq, _ := http.NewRequest(http.MethodDelete, coord.ts.URL+"/v1/jobs/"+view.ID, nil)
	if resp, err := http.DefaultClient.Do(delReq); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, wv := getJobView(t, workers[0].ts.URL, "job-00000001")
		if wv.State == server.StateCancelled {
			return
		}
		if wv.State.Terminal() {
			t.Fatalf("worker job ended %s, want cancelled", wv.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker job still %s: cancellation did not propagate", wv.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// End-to-end crash recovery: a journaled server dies (simulated by
// snapshotting the WAL's on-disk bytes at the kill instant — the 202
// for a job guarantees its accepted record is already on disk), and a
// fresh server recovering from that snapshot re-caches every completed
// result byte-identically (repeat requests cost 0 fev) and re-runs the
// incomplete job to the same result a never-crashed server produces.
func TestFleetWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "jobs.wal")
	wal, _, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	crashed := startNode(t, server.Config{Workers: 1, Journal: wal})

	reqDone := fleetReq(0)
	doneRes := solveDone(t, crashed.ts.URL, reqDone)

	reqOpen := server.SolveRequest{
		Nodes: 14, Edges: ladder(14), Depth: 8,
		Strategy: "naive", Seed: 9,
	}
	code, _ := solveHTTP(t, crashed.ts.URL, reqOpen)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	// kill -9 now: the on-disk bytes at this instant are the whole
	// machine state a real crash leaves behind.
	snapshot := filepath.Join(dir, "jobs.wal.at-crash")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshot, data, 0o644); err != nil {
		t.Fatal(err)
	}

	wal2, rec, err := OpenWAL(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if len(rec.Completed) != 1 || len(rec.Incomplete) != 1 {
		t.Fatalf("recovered %d completed, %d incomplete; want 1, 1", len(rec.Completed), len(rec.Incomplete))
	}
	if !reflect.DeepEqual(rec.Completed[0].Result, doneRes) {
		t.Fatalf("journaled result differs from the served one:\n got %+v\nwant %+v", rec.Completed[0].Result, doneRes)
	}

	// Restarted process: seed the cache, re-enqueue the lost job —
	// exactly what qaoad does with -wal on boot.
	fresh := startNode(t, server.Config{Workers: 1, Journal: wal2})
	for _, c := range rec.Completed {
		fresh.srv.SeedCache(c.Key, c.Result)
	}
	job, err := fresh.srv.Resubmit(rec.Incomplete[0].Req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("re-enqueued job never finished")
	}
	jv := job.View()
	if jv.State != server.StateDone {
		t.Fatalf("re-enqueued job ended %s: %s", jv.State, jv.Error)
	}

	// The recovered job's result matches a never-crashed solve.
	reference := startNode(t, server.Config{Workers: 1})
	refOpen := reqOpen
	refOpen.Wait = true
	want := solveDone(t, reference.ts.URL, refOpen)
	if !reflect.DeepEqual(jv.Result, want) {
		t.Fatalf("recovered solve differs from reference:\n got %+v\nwant %+v", jv.Result, want)
	}

	// And the replayed cache serves the completed job for free.
	fev := fresh.mem.CounterValue("optimize.fev_total")
	cached := solveDone(t, fresh.ts.URL, reqDone)
	if !reflect.DeepEqual(cached, doneRes) {
		t.Fatalf("replayed cache entry differs:\n got %+v\nwant %+v", cached, doneRes)
	}
	if after := fresh.mem.CounterValue("optimize.fev_total"); after != fev {
		t.Fatalf("repeat of a journaled result cost %d evaluations, want 0", after-fev)
	}
}

// ladder returns a 2×(n/2) ladder graph edge list — connected,
// deterministic, and slow enough to optimize at depth 8 that tests can
// race a cancellation or crash against the running solve.
func ladder(n int) [][2]int {
	var edges [][2]int
	half := n / 2
	for i := 0; i < half-1; i++ {
		edges = append(edges, [2]int{i, i + 1}, [2]int{half + i, half + i + 1})
	}
	for i := 0; i < half; i++ {
		edges = append(edges, [2]int{i, half + i})
	}
	return edges
}

func getJobView(t *testing.T, url, id string) (int, server.JobView) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, view
}

// waitRemoteJob polls until the worker has registered the job.
func waitRemoteJob(t *testing.T, url, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _ := getJobView(t, url, id)
		if code == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never saw job %s", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drainCtx is a background context with a test-scoped timeout.
func drainCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}
