package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/server"
	"qaoaml/internal/telemetry"
)

// newClient returns the load client: at most `callers` connections to
// any host, so the generator never drives more concurrency than it
// claims.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     callers,
		MaxIdleConnsPerHost: callers,
		IdleConnTimeout:     30 * time.Second,
	}}
}

// tagHeader carries a load request's index from the client to the
// handler timer on traced runs.
const tagHeader = "X-Perfbench-Request"

type tagKey struct{}

// withTag marks ctx so that every HTTP call a tagged client makes
// under it carries request index i.
func withTag(ctx context.Context, i int) context.Context {
	return context.WithValue(ctx, tagKey{}, i)
}

// tagTransport copies the request index from the call's context into
// tagHeader.
type tagTransport struct{ base *http.Transport }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if i, ok := r.Context().Value(tagKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(tagHeader, strconv.Itoa(i))
	}
	return t.base.RoundTrip(r)
}

func (t tagTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

// newTaggedClient is newClient whose calls carry the index withTag put
// in their context.
func newTaggedClient() *http.Client {
	c := newClient()
	c.Transport = tagTransport{c.Transport.(*http.Transport)}
	return c
}

// handlerTimer wraps a server's handler on traced runs. For every
// tagged load request it records when the first handler call for it
// began and the summed time spent inside handlers, which is the time
// the server had the request; the rest of the client's latency was
// spent in the client and on the wire.
type handlerTimer struct {
	h     http.Handler
	mu    sync.Mutex
	start map[int]time.Time
	ms    map[int]float64
}

func newHandlerTimer(h http.Handler) *handlerTimer {
	return &handlerTimer{h: h, start: map[int]time.Time{}, ms: map[int]float64{}}
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.Header.Get(tagHeader))
	if err != nil {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	d := ms(time.Since(start))
	t.mu.Lock()
	if _, ok := t.start[i]; !ok {
		t.start[i] = start
	}
	t.ms[i] += d
	t.mu.Unlock()
}

// request returns when the server first saw request i and how long its
// handlers ran.
func (t *handlerTimer) request(i int) (time.Time, float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start, ok := t.start[i]
	return start, t.ms[i], ok
}

// serve runs h on a loopback listener and returns its base URL and a
// stop function that shuts the listener down and waits for it.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// postJSON posts body and decodes the response into out when the
// status is 200 or 202; any other status is returned as an error
// together with the code.
func postJSON(ctx context.Context, c *http.Client, url string, body, out any) (int, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return doJSON(c, req, out)
}

func getJSON(ctx context.Context, c *http.Client, url string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	return doJSON(c, req, out)
}

func doJSON(c *http.Client, req *http.Request, out any) (int, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// counters reads the /metrics counter set.
func counters(ctx context.Context, c *http.Client, base string) (map[string]int64, error) {
	var snap telemetry.Snapshot
	if _, err := getJSON(ctx, c, base+"/metrics", &snap); err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// requestFor renders a spec as the daemon's wire request.
func requestFor(it item) (server.SolveRequest, error) {
	req := server.SolveRequest{
		Problem: it.Spec.Family, Depth: it.Depth, Strategy: it.Strategy,
		Optimizer: it.Opt, Seed: it.Seed,
	}
	switch it.Spec.Family {
	case problem.FamilyMaxCut:
		g := it.Spec.Graph
		req.Nodes = g.N
		for _, e := range g.Edges() {
			req.Edges = append(req.Edges, [2]int{e.U, e.V})
		}
		if !unitWeights(g) {
			req.Weights = g.Weights()
		}
	case problem.FamilyPartition:
		req.Numbers = it.Spec.Numbers
	case problem.FamilyMaxKSAT:
		f := it.Spec.Formula
		req.Vars = f.Vars
		for _, cl := range f.Clauses {
			req.Clauses = append(req.Clauses, []int(cl))
		}
		req.ClauseWeights = f.Weights
	default:
		return req, fmt.Errorf("no wire form for family %q", it.Spec.Family)
	}
	return req, nil
}

func unitWeights(g *graph.Graph) bool {
	for _, w := range g.Weights() {
		if w != 1 {
			return false
		}
	}
	return true
}

// matchServed checks a served result against a re-solve of the same
// item through core: every float bit for bit, the FC and the rendered
// assignment exactly.
func matchServed(res *server.SolveResult, want solveOut, vars int) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	got := solveOut{
		AR: res.AR, Level1AR: res.Level1AR, Gamma: res.Gamma, Beta: res.Beta,
		NFev: res.NFev, Objective: res.Objective, Assign: want.Assign,
		HasReadout: true,
	}
	cmp := want
	cmp.L1Fev, cmp.L2Fev, cmp.Predicted = 0, 0, nil
	if cmp.Objective == 0 {
		// The wire omits a zero objective, so a -0 reads back as +0.
		cmp.Objective = 0
	}
	if err := sameBits(got, cmp); err != nil {
		return err
	}
	if a := assignBits(want.Assign, vars); a != res.Assignment {
		return fmt.Errorf("assignment %s != %s", res.Assignment, a)
	}
	return nil
}

// checkServed re-solves a fixed, spread-out sample of items through
// core off the clock, the first naive and the first two-level item of
// each family, and checks the result served for each bit for bit.
// served returns the result the client received for items[k].
func checkServed(ctx context.Context, rep *report, pred *core.Predictor, items []item, served func(k int) *server.SolveResult) error {
	seen := map[string]bool{}
	checked, bad := 0, 0
	for k, it := range items {
		class := it.Spec.Family + "/" + it.Strategy
		if seen[class] || checked == serveCheckSample {
			continue
		}
		seen[class] = true
		checked++
		want, err := solvePlain(ctx, it, nil, pred, nil, nil, true)
		if err != nil {
			return err
		}
		pb, err := qaoa.New(it.Spec)
		if err != nil {
			return err
		}
		if err := matchServed(served(k), want, decisionVars(pb)); err != nil {
			bad++
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s: served result differs from core: %v", it.ID, err))
		}
	}
	rep.check(bad == 0, "%d served results re-solved through core off the clock match bit for bit", checked)
	return nil
}
