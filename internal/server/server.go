// Package server is the QAOA-as-a-service layer: an HTTP JSON API that
// accepts MaxCut instances and runs them through the core naive or
// two-level (ML-initialized, Fig. 4) flows on a bounded worker pool.
//
// The subsystem is built from four pieces:
//
//   - a bounded job queue drained by a fixed worker pool, with explicit
//     backpressure (429 + Retry-After) when the queue is full;
//   - an LRU result cache keyed by the canonical graph fingerprint plus
//     solve options, with single-flight coalescing of identical
//     in-flight requests;
//   - a model Registry of pre-trained parameter predictors, hot-
//     reloadable on SIGHUP;
//   - per-job deadlines and client-disconnect propagation as context
//     cancellation into the optimizers, plus graceful drain on
//     shutdown.
//
// Endpoints: POST /v1/solve, GET /v1/jobs/{id}, DELETE /v1/jobs/{id},
// GET /healthz, GET /metrics (a telemetry.Memory snapshot with
// per-endpoint latency histograms and queue-depth gauges).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/quantum"
	"qaoaml/internal/telemetry"
)

// APIVersion is the wire-schema version served by /healthz. Version 2
// added the problem-family fields to SolveRequest (v1 bodies — plain
// MaxCut with nodes/edges/weights — parse unchanged).
const APIVersion = 2

// Solve strategies.
const (
	StrategyNaive    = "naive"     // random init at the target depth (Fig. 1(a))
	StrategyTwoLevel = "two-level" // depth-1 optimum → ML prediction → polish (Fig. 4)
)

// Config sizes the daemon. The zero value is usable: every field has a
// production default.
type Config struct {
	// Workers sizes the solve worker pool; 0 means GOMAXPROCS, matching
	// experiments.Scale.Workers semantics.
	Workers int
	// QueueDepth bounds the job queue (default 64). A full queue rejects
	// submissions with 429 + Retry-After.
	QueueDepth int
	// CacheSize bounds the LRU result cache entries (default 256;
	// negative disables caching — a coordinator that defers entirely to
	// the worker-owned cache shards).
	CacheSize int
	// MaxJobs bounds retained finished job records (default 1024).
	MaxJobs int
	// DefaultTimeout applies to jobs that request none (default 60s).
	DefaultTimeout time.Duration
	// MaxTimeout caps requested per-job deadlines (default 10m).
	MaxTimeout time.Duration
	// MaxNodes caps instance size (default 20; hard limit
	// quantum.MaxQubits — the simulator's register ceiling, reached via
	// the sharded state layout).
	MaxNodes int
	// MaxDepth caps the requested circuit depth (default 10).
	MaxDepth int
	// MaxBatch caps the item count of one POST /v1/solve/batch request
	// (default 64).
	MaxBatch int
	// MaxInflightCost budgets the summed cost (depth·2^qubits, see
	// jobCost) of queued-plus-running jobs; submissions beyond it get
	// 429 + Retry-After. Default: Workers × jobCost(MaxNodes, MaxDepth)
	// — enough that a pool of worst-case jobs saturates the workers
	// before admission pushes back, so the budget only bites when the
	// backlog holds multiple maximal solves.
	MaxInflightCost int64
	// Registry resolves two-level model names (nil: empty registry,
	// naive-only serving until Register is called).
	Registry *Registry
	// Recorder receives all server and optimizer telemetry (nil: a
	// fresh telemetry.Memory, exposed via Metrics).
	Recorder *telemetry.Memory
	// Journal, when non-nil, durably records accepted jobs and terminal
	// outcomes (see internal/cluster's WAL); a crash then loses no
	// accepted work. Nil: no journaling.
	Journal Journal
	// Dispatcher, when non-nil, runs solves remotely instead of on the
	// local worker pool — the coordinator role. Admission, dedup,
	// caching and journaling stay local; only the optimization is
	// dispatched. Nil: solve in process (single-process and worker
	// roles).
	Dispatcher Dispatcher
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0 // negative disables caching (fleet tests, cache-owner routing)
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 20
	}
	if c.MaxNodes > quantum.MaxQubits {
		c.MaxNodes = quantum.MaxQubits
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 10
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxInflightCost <= 0 {
		c.MaxInflightCost = int64(c.Workers) * jobCost(c.MaxNodes, c.MaxDepth)
	}
	return c
}

// WireTerm is one quadratic coupling J·s_i·s_j on the wire.
type WireTerm struct {
	I int     `json:"i"`
	J int     `json:"j"`
	W float64 `json:"w"`
}

// SolveRequest is the POST /v1/solve body. Problem selects the family;
// each family reads its own payload fields and rejects the others'
// with a 400 (unknown JSON keys are rejected outright):
//
//	maxcut (default): nodes, edges, weights
//	qubo:             nodes, linear, quad, offset, sense, vars
//	maxksat:          vars, clauses, clause_weights
//	partition:        numbers
//	portfolio:        returns, covariance, risk_aversion, budget, penalty
//	coloring:         nodes, edges, colors
type SolveRequest struct {
	// Problem is the family: maxcut (default), qubo, maxksat,
	// partition, portfolio or coloring.
	Problem string    `json:"problem,omitempty"`
	Nodes   int       `json:"nodes,omitempty"`
	Edges   [][2]int  `json:"edges,omitempty"`
	Weights []float64 `json:"weights,omitempty"` // parallel to Edges; omitted = unweighted

	// qubo payload: an explicit Ising Hamiltonian over Nodes spins —
	// per-spin fields, couplings, constant offset, and the optimization
	// sense ("min" by default: spin glasses minimize energy). Vars marks
	// how many leading spins are decision variables (default all).
	Linear []float64  `json:"linear,omitempty"`
	Quad   []WireTerm `json:"quad,omitempty"`
	Offset float64    `json:"offset,omitempty"`
	Sense  string     `json:"sense,omitempty"`
	Vars   int        `json:"vars,omitempty"`

	// maxksat payload: weighted Max-k-SAT (k ≤ 3) over Vars variables,
	// clauses as DIMACS-style signed literals (±(v+1)). Three-literal
	// clauses add one auxiliary qubit each (Rosenberg quadratization),
	// which counts against the node cap.
	Clauses       [][]int   `json:"clauses,omitempty"`
	ClauseWeights []float64 `json:"clause_weights,omitempty"`

	// partition payload: positive numbers to split into two equal-sum
	// halves.
	Numbers []float64 `json:"numbers,omitempty"`

	// portfolio payload: budget-constrained mean-variance selection.
	Returns      []float64   `json:"returns,omitempty"`
	Covariance   [][]float64 `json:"covariance,omitempty"`
	RiskAversion float64     `json:"risk_aversion,omitempty"`
	Budget       int         `json:"budget,omitempty"`
	Penalty      float64     `json:"penalty,omitempty"`

	// coloring payload: the nodes/edges graph plus the color count
	// (nodes·colors qubits).
	Colors int `json:"colors,omitempty"`

	Depth int `json:"depth"`
	// Strategy is "two-level" (default) or "naive".
	Strategy string `json:"strategy,omitempty"`
	// Optimizer is lbfgsb (default), neldermead, slsqp or cobyla.
	Optimizer string `json:"optimizer,omitempty"`
	// Model names the registry predictor for two-level (default "default").
	Model string `json:"model,omitempty"`
	// Seed fixes the run RNG (default 1); identical requests are
	// therefore deterministic, which is what makes the result cache
	// exact rather than approximate.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMs bounds the solve from enqueue time (default
	// Config.DefaultTimeout, capped at Config.MaxTimeout).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Wait blocks the HTTP request until the job finishes; a client
	// disconnect then cancels the job (unless it was coalesced onto an
	// earlier identical request).
	Wait bool `json:"wait,omitempty"`
}

// Server is the serving subsystem: HTTP handlers in front of the job
// queue, worker pool, result cache and model registry.
type Server struct {
	cfg      Config
	mem      *telemetry.Memory
	registry *Registry
	jobs     *jobStore
	cache    *lruCache
	queue    chan *Job

	mu       sync.Mutex
	inflight map[string]*Job // cache key → queued/running job
	adm      admission       // cost budget, guarded by mu
	draining bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	mux        *http.ServeMux

	// solveFn runs one job's optimization; tests swap it to make
	// cancellation timing deterministic.
	solveFn func(ctx context.Context, job *Job) (*SolveResult, error)
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	mem := cfg.Recorder
	if mem == nil {
		mem = telemetry.NewMemory()
	}
	reg := cfg.Registry
	if reg == nil {
		reg, _ = NewRegistry("")
	}
	for _, route := range []string{"solve", "batch", "jobs", "events", "healthz", "metrics"} {
		mem.DefineBuckets("server.http."+route+"_ms", telemetry.ExpBuckets(0.25, 2, 18))
	}
	s := &Server{
		cfg:      cfg,
		mem:      mem,
		registry: reg,
		jobs:     newJobStore(cfg.MaxJobs),
		cache:    newLRUCache(cfg.CacheSize),
		queue:    make(chan *Job, cfg.QueueDepth),
		inflight: make(map[string]*Job),
	}
	s.adm = admission{budget: cfg.MaxInflightCost}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.solveFn = s.runSolve
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.timed("solve", s.handleSolve))
	s.mux.HandleFunc("POST /v1/solve/batch", s.timed("batch", s.handleBatch))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.timed("jobs", s.handleJobGet))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.timed("events", s.handleJobEvents))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.timed("jobs", s.handleJobCancel))
	s.mux.HandleFunc("GET /healthz", s.timed("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.timed("metrics", s.handleMetrics))
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the telemetry sink backing /metrics.
func (s *Server) Metrics() *telemetry.Memory { return s.mem }

// Registry returns the model registry.
func (s *Server) ModelRegistry() *Registry { return s.registry }

// Drain stops accepting work, lets queued and running jobs finish, and
// returns when the worker pool has exited. If ctx expires first, the
// remaining jobs are cancelled (they finish as cancelled, not dropped)
// and Drain still waits for the workers before returning ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // hard-cancel stragglers; workers still drain the queue
		<-done
		return ctx.Err()
	}
}

// Close drains immediately, cancelling all outstanding jobs.
func (s *Server) Close() {
	s.baseCancel()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(expired)
}

// ---- submission ----

// httpError carries a status code with the message. retryAfter (whole
// seconds, 429s only) is the admission layer's estimated wait; zero
// falls back to 1.
type httpError struct {
	code       int
	msg        string
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// submitOutcome distinguishes how a request was satisfied.
type submitOutcome int

const (
	outcomeQueued    submitOutcome = iota // fresh job enqueued
	outcomeCoalesced                      // attached to an identical in-flight job
	outcomeCached                         // served from the result cache
)

// familyFields maps each problem family to the payload fields it
// reads; a request setting any other family's field is rejected so
// typos and family mixups surface as 400s instead of silently ignored
// payload.
var familyFields = map[string]map[string]bool{
	problem.FamilyMaxCut:    {"nodes": true, "edges": true, "weights": true},
	problem.FamilyQUBO:      {"nodes": true, "linear": true, "quad": true, "offset": true, "sense": true, "vars": true},
	problem.FamilyMaxKSAT:   {"vars": true, "clauses": true, "clause_weights": true},
	problem.FamilyPartition: {"numbers": true},
	problem.FamilyPortfolio: {"returns": true, "covariance": true, "risk_aversion": true, "budget": true, "penalty": true},
	problem.FamilyColoring:  {"nodes": true, "edges": true, "colors": true},
}

// setPayloadFields lists the family-payload fields present in the
// request (the always-valid solve options are not payload).
func setPayloadFields(req *SolveRequest) []string {
	var set []string
	add := func(name string, ok bool) {
		if ok {
			set = append(set, name)
		}
	}
	add("nodes", req.Nodes != 0)
	add("edges", len(req.Edges) > 0)
	add("weights", req.Weights != nil)
	add("linear", req.Linear != nil)
	add("quad", len(req.Quad) > 0)
	add("offset", req.Offset != 0)
	add("sense", req.Sense != "")
	add("vars", req.Vars != 0)
	add("clauses", len(req.Clauses) > 0)
	add("clause_weights", req.ClauseWeights != nil)
	add("numbers", len(req.Numbers) > 0)
	add("returns", len(req.Returns) > 0)
	add("covariance", len(req.Covariance) > 0)
	add("risk_aversion", req.RiskAversion != 0)
	add("budget", req.Budget != 0)
	add("penalty", req.Penalty != 0)
	add("colors", req.Colors != 0)
	return set
}

// requestGraph builds the nodes/edges/weights graph shared by the
// maxcut and coloring families.
func (s *Server) requestGraph(req *SolveRequest) (*graph.Graph, *httpError) {
	if req.Nodes < 2 || req.Nodes > s.cfg.MaxNodes {
		return nil, badRequest("nodes %d out of [2, %d]", req.Nodes, s.cfg.MaxNodes)
	}
	if len(req.Edges) == 0 {
		return nil, badRequest("instance has no edges")
	}
	if req.Weights != nil && len(req.Weights) != len(req.Edges) {
		return nil, badRequest("%d weights for %d edges", len(req.Weights), len(req.Edges))
	}
	g := graph.New(req.Nodes)
	for i, e := range req.Edges {
		if e[0] < 0 || e[0] >= req.Nodes || e[1] < 0 || e[1] >= req.Nodes {
			return nil, badRequest("edge %d (%d,%d) out of range for %d nodes", i, e[0], e[1], req.Nodes)
		}
		w := 1.0
		if req.Weights != nil {
			w = req.Weights[i]
		}
		if err := g.AddWeightedEdge(e[0], e[1], w); err != nil {
			return nil, badRequest("edge %d: %v", i, err)
		}
	}
	return g, nil
}

// requestSpec assembles the family payload into a problem.Spec.
func (s *Server) requestSpec(req *SolveRequest) (problem.Spec, *httpError) {
	var zero problem.Spec
	allowed, ok := familyFields[req.Problem]
	if !ok {
		return zero, badRequest("unknown problem %q (want one of %v)", req.Problem, problem.Families())
	}
	for _, f := range setPayloadFields(req) {
		if !allowed[f] {
			return zero, badRequest("field %q is not valid for problem %q", f, req.Problem)
		}
	}
	switch req.Problem {
	case problem.FamilyMaxCut:
		g, herr := s.requestGraph(req)
		if herr != nil {
			return zero, herr
		}
		return problem.MaxCut(g), nil
	case problem.FamilyQUBO:
		if req.Nodes < 1 {
			return zero, badRequest("qubo needs nodes >= 1")
		}
		sense := req.Sense
		if sense == "" {
			sense = "min"
		}
		sn, err := problem.ParseSense(sense)
		if err != nil {
			return zero, badRequest("%v", err)
		}
		in := &problem.Instance{
			Family: problem.FamilyQUBO,
			Sense:  sn,
			N:      req.Nodes,
			Vars:   req.Vars,
			Linear: req.Linear,
			Offset: req.Offset,
		}
		if in.Vars == 0 {
			in.Vars = in.N
		}
		for _, t := range req.Quad {
			in.Quad = append(in.Quad, problem.Term{I: t.I, J: t.J, W: t.W})
		}
		return problem.FromInstance(in), nil
	case problem.FamilyMaxKSAT:
		f := &problem.Formula{Vars: req.Vars, Weights: req.ClauseWeights}
		for _, cl := range req.Clauses {
			f.Clauses = append(f.Clauses, problem.Clause(cl))
		}
		return problem.MaxKSAT(f), nil
	case problem.FamilyPartition:
		return problem.Partition(req.Numbers), nil
	case problem.FamilyPortfolio:
		return problem.Portfolio(&problem.PortfolioSpec{
			Returns:      req.Returns,
			Covariance:   req.Covariance,
			RiskAversion: req.RiskAversion,
			Budget:       req.Budget,
			Penalty:      req.Penalty,
		}), nil
	case problem.FamilyColoring:
		if req.Weights != nil {
			return zero, badRequest("coloring takes no edge weights")
		}
		g, herr := s.requestGraph(req)
		if herr != nil {
			return zero, herr
		}
		if req.Colors < 2 {
			return zero, badRequest("coloring needs colors >= 2, got %d", req.Colors)
		}
		return problem.Coloring(g, req.Colors), nil
	}
	return zero, badRequest("unknown problem %q (want one of %v)", req.Problem, problem.Families())
}

// normalize applies defaults and validates the request, returning the
// compiled problem spec.
func (s *Server) normalize(req *SolveRequest) (problem.Spec, *httpError) {
	var zero problem.Spec
	if req.Problem == "" {
		req.Problem = problem.FamilyMaxCut
	}
	if req.Strategy == "" {
		req.Strategy = StrategyTwoLevel
	}
	if req.Optimizer == "" {
		req.Optimizer = "lbfgsb"
	}
	if req.Model == "" {
		req.Model = "default"
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if optimizerFor(req.Optimizer) == nil {
		return zero, badRequest("unknown optimizer %q (want lbfgsb, neldermead, slsqp or cobyla)", req.Optimizer)
	}
	if req.Depth < 1 || req.Depth > s.cfg.MaxDepth {
		return zero, badRequest("depth %d out of [1, %d]", req.Depth, s.cfg.MaxDepth)
	}
	spec, herr := s.requestSpec(req)
	if herr != nil {
		return zero, herr
	}
	// Compile now so malformed payloads fail the request, not the job,
	// and so the register cap covers auxiliary qubits (maxksat) and
	// one-hot blowup (coloring: nodes·colors).
	if req.Problem != problem.FamilyMaxCut {
		qubits, err := spec.Qubits()
		if err != nil {
			return zero, badRequest("%v", err)
		}
		if qubits < 2 || qubits > s.cfg.MaxNodes {
			return zero, badRequest("%s instance needs %d qubits, out of [2, %d]", req.Problem, qubits, s.cfg.MaxNodes)
		}
		if _, err := spec.Compile(); err != nil {
			return zero, badRequest("%v", err)
		}
	}
	switch req.Strategy {
	case StrategyNaive:
	case StrategyTwoLevel:
		if req.Depth < 2 {
			return zero, badRequest("two-level needs depth >= 2 (use strategy \"naive\" for depth 1)")
		}
		pred, ok := s.registry.Get(req.Model)
		if !ok {
			return zero, badRequest("unknown model %q (registered: %v)", req.Model, s.registry.Names())
		}
		if !hasDepth(pred.TargetDepths(), req.Depth) {
			return zero, badRequest("model %q not trained for target depth %d (trained: %v)",
				req.Model, req.Depth, pred.TargetDepths())
		}
	default:
		return zero, badRequest("unknown strategy %q (want %q or %q)", req.Strategy, StrategyNaive, StrategyTwoLevel)
	}
	return spec, nil
}

func hasDepth(depths []int, d int) bool {
	for _, v := range depths {
		if v == d {
			return true
		}
	}
	return false
}

// submit resolves a normalized request to a job: a cache hit returns a
// finished job, an identical in-flight request is coalesced, otherwise a
// fresh job is enqueued. A full queue returns 429; a draining server
// returns 503.
func (s *Server) submit(req SolveRequest, spec problem.Spec) (*Job, submitOutcome, *httpError) {
	fp, err := spec.Fingerprint()
	if err != nil {
		// normalize compiled the spec already; a failure here is a bug.
		return nil, 0, &httpError{code: http.StatusInternalServerError, msg: err.Error()}
	}
	key := solveKey(fp, req)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, 0, &httpError{code: http.StatusServiceUnavailable, msg: "server is draining"}
	}
	if res, ok := s.cache.Get(key); ok {
		s.mem.Count("server.cache.hits", 1)
		job := s.newFinishedJob(key, req, res)
		s.jobs.add(job)
		return job, outcomeCached, nil
	}
	s.mem.Count("server.cache.misses", 1)
	if j := s.inflight[key]; j != nil {
		j.mu.Lock()
		j.coalesced = true
		j.mu.Unlock()
		s.mem.Count("server.jobs.coalesced", 1)
		return j, outcomeCoalesced, nil
	}

	// Cost-priced admission: reserve the job's cost against the global
	// in-flight budget before it may take a queue slot. Cache hits and
	// coalesced requests above never reach here — they add no work.
	cost := costOf(req, spec)
	if !s.adm.admit(cost) {
		s.mem.Count("server.admission.rejected", 1)
		return nil, 0, &httpError{
			code:       http.StatusTooManyRequests,
			msg:        fmt.Sprintf("in-flight cost budget exhausted (job cost %d, in flight %d of %d), retry later", cost, s.adm.inflight, s.adm.budget),
			retryAfter: s.adm.retryAfter(cost),
		}
	}

	// Claim a queue slot before journaling: only submit pushes (under
	// mu), so a capacity check here guarantees the send below cannot
	// block, and a full queue is rejected before anything hits the WAL.
	if len(s.queue) >= cap(s.queue) {
		s.adm.unadmit(cost)
		s.mem.Count("server.http.backpressure", 1)
		return nil, 0, &httpError{code: http.StatusTooManyRequests, msg: "job queue full, retry later"}
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}

	// Journal the acceptance before the job becomes visible: once the
	// client sees its 202 the work survives kill -9. A journal failure
	// refuses the job — an unjournalable acceptance would be a silent
	// hole in the durability contract.
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.Accepted(key, fp, req); err != nil {
			s.adm.unadmit(cost)
			s.mem.Count("server.journal.errors", 1)
			return nil, 0, &httpError{code: http.StatusServiceUnavailable, msg: fmt.Sprintf("journaling job: %v", err)}
		}
		s.mem.Count("server.journal.accepted", 1)
	}

	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	job := &Job{
		ID: s.jobs.nextID(), Key: key, req: req, spec: spec, fp: fp, cost: cost,
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
		state: StateQueued, enqueued: time.Now(), bus: newEventBus(),
	}
	s.queue <- job // cannot block: capacity checked above under mu
	s.mem.Count("server.cost.inflight", cost)
	s.jobs.add(job)
	s.inflight[key] = job
	s.mem.Count("server.jobs.submitted", 1)
	s.mem.Count("server.queue.depth", 1)
	// Watch for cancellation while queued: a deadline or explicit cancel
	// must not wait for a worker slot to take effect.
	go func() {
		<-job.ctx.Done()
		if job.finishFromQueued(StateCancelled, cancelMsg(job.ctx)) {
			s.afterFinish(job, StateCancelled)
		}
	}()
	return job, outcomeQueued, nil
}

// newFinishedJob materializes a cache hit as an already-done job record.
func (s *Server) newFinishedJob(key string, req SolveRequest, res *SolveResult) *Job {
	ctx, cancel := context.WithCancel(s.baseCtx)
	cancel()
	now := time.Now()
	job := &Job{
		ID: s.jobs.nextID(), Key: key, req: req,
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
		state: StateDone, cached: true, result: res,
		enqueued: now, started: now, finished: now,
	}
	close(job.done)
	return job
}

// completeJob finishes a job from the worker path and runs the shared
// bookkeeping exactly once.
func (s *Server) completeJob(j *Job, state JobState, res *SolveResult, errMsg string) {
	if j.finish(state, res, errMsg) {
		s.afterFinish(j, state)
	}
}

// afterFinish clears the single-flight slot, retires the job's cost
// reservation, feeds the cache, and counts the terminal state. Called
// exactly once per job.
func (s *Server) afterFinish(j *Job, state JobState) {
	var seconds float64
	if j.cost > 0 {
		// Wall time feeds the admission layer's retire-rate estimate;
		// jobs cancelled straight out of the queue never ran and are
		// excluded (zero seconds).
		j.mu.Lock()
		if !j.started.IsZero() && !j.finished.IsZero() {
			seconds = j.finished.Sub(j.started).Seconds()
		}
		j.mu.Unlock()
	}
	s.mu.Lock()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	if j.cost > 0 {
		s.adm.release(j.cost, seconds)
	}
	s.mu.Unlock()
	if j.cost > 0 {
		s.mem.Count("server.cost.inflight", -j.cost)
	}
	var res *SolveResult
	if state == StateDone {
		j.mu.Lock()
		res = j.result
		j.mu.Unlock()
		s.cache.Add(j.Key, res)
	}
	// Journal the terminal outcome: done jobs carry their result (the
	// WAL replays it into the cache on recovery), failed and cancelled
	// jobs are settled with nil (recovery must not re-run them). A
	// failure here is counted, not fatal — the job already finished,
	// and the worst case is a wasted re-solve after a crash.
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.Completed(j.Key, res); err != nil {
			s.mem.Count("server.journal.errors", 1)
		} else {
			s.mem.Count("server.journal.completed", 1)
		}
	}
	s.mem.Count("server.jobs."+string(state), 1)
}

// ---- worker pool ----

// worker drains the queue. Each worker owns one qaoa.Arena for the
// life of the pool: consecutive jobs at the same register width reuse
// the same 2^n state vectors instead of reallocating them, which is
// what keeps steady-state solves free of state-vector-sized
// allocations (pinned by TestSteadyStateAllocations). The arena is
// worker-local, so no cross-worker synchronization touches the hot
// buffers; its hit/get counters surface as server.arena.* on /metrics.
func (s *Server) worker() {
	defer s.wg.Done()
	arena := qaoa.NewArena(0)
	defer arena.Close()
	var lastGets, lastHits int64
	for job := range s.queue {
		s.mem.Count("server.queue.depth", -1)
		job.arena = arena
		s.runJob(job)
		st := arena.Stats()
		if d := st.Gets - lastGets; d > 0 {
			s.mem.Count("server.arena.gets", d)
		}
		if d := st.Hits - lastHits; d > 0 {
			s.mem.Count("server.arena.hits", d)
		}
		lastGets, lastHits = st.Gets, st.Hits
	}
}

func (s *Server) runJob(job *Job) {
	if !job.setRunning() {
		return // cancelled while queued
	}
	s.mem.Count("server.jobs.running", 1)
	end := s.mem.Span("server.job")
	res, err := s.solveFn(job.ctx, job)
	end()
	s.mem.Count("server.jobs.running", -1)
	s.mem.Observe("server.job_ms", float64(time.Since(job.started).Nanoseconds())/1e6)
	switch {
	case err == nil:
		s.completeJob(job, StateDone, res, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.completeJob(job, StateCancelled, nil, cancelMsg(job.ctx))
	default:
		s.completeJob(job, StateFailed, nil, err.Error())
	}
}

func cancelMsg(ctx context.Context) string {
	if err := context.Cause(ctx); err != nil {
		return err.Error()
	}
	return "cancelled"
}

// runSolve executes one job through the core flows. The recorder is the
// server sink, so optimizer counters (optimize.fev_total etc.) surface
// in /metrics — including the fact that a cache hit adds none — teed so
// per-iteration traces also reach the job's SSE subscribers. With a
// Dispatcher configured (coordinator role) the solve runs on a remote
// worker instead; the dispatcher relays the worker's trace events into
// the same bus, so streaming clients cannot tell the difference.
func (s *Server) runSolve(ctx context.Context, job *Job) (*SolveResult, error) {
	if s.cfg.Dispatcher != nil {
		return s.cfg.Dispatcher.Dispatch(ctx, job.req, job.fp, job.cost, job.publish)
	}
	rec := telemetry.Tee(s.mem, job.publish)
	pb, err := qaoa.New(job.spec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(job.req.Seed))
	opt := optimizerFor(job.req.Optimizer)
	var res *SolveResult
	switch job.req.Strategy {
	case StrategyNaive:
		r, err := core.NaiveRunArena(ctx, job.arena, pb, job.req.Depth, opt, rng, rec)
		if err != nil {
			return nil, err
		}
		res = &SolveResult{
			Strategy: StrategyNaive, AR: r.AR,
			Gamma: r.Params.Gamma, Beta: r.Params.Beta,
			NFev: r.NFev,
		}
	case StrategyTwoLevel:
		pred, ok := s.registry.Get(job.req.Model)
		if !ok {
			return nil, fmt.Errorf("model %q disappeared from the registry", job.req.Model)
		}
		r, err := core.TwoLevelArena(ctx, job.arena, pb, job.req.Depth, opt, pred, rng, rec)
		if err != nil {
			return nil, err
		}
		res = &SolveResult{
			Strategy: StrategyTwoLevel, AR: r.AR(),
			Gamma: r.Level2.Params.Gamma, Beta: r.Level2.Params.Beta,
			NFev: r.TotalNFev, Level1AR: r.Level1.AR,
		}
	default:
		return nil, fmt.Errorf("unknown strategy %q", job.req.Strategy)
	}
	res.Problem = job.req.Problem
	res.Fingerprint = job.fp
	// Read out the most probable assignment at the final parameters —
	// the solution a client acts on — masked to the decision variables
	// (quadratization auxiliaries are an encoding detail). The readout
	// evaluator draws from the worker arena, so it reuses the buffers
	// the optimization just released instead of building a transient
	// 2^n state (Problem.BestSampled's behavior); ties resolve
	// identically, so the readout is unchanged.
	rd := qaoa.NewEvaluatorArena(pb, len(res.Gamma), job.arena)
	score, assign := rd.BestSampled(qaoa.Params{Gamma: res.Gamma, Beta: res.Beta})
	rd.Release()
	res.Objective = score
	res.Assignment = assignBits(assign, pb.Inst.Vars)
	return res, nil
}

// assignBits renders an assignment as a bitstring, character i = the
// value of variable i.
func assignBits(z uint64, vars int) string {
	b := make([]byte, vars)
	for i := 0; i < vars; i++ {
		b[i] = byte('0' + (z>>uint(i))&1)
	}
	return string(b)
}

// optimizerFor maps an API optimizer name to a configured instance (the
// paper's four local optimizers at tolerance 1e-6, as in
// experiments.Optimizers). Unknown names return nil.
func optimizerFor(name string) optimize.Optimizer {
	switch name {
	case "lbfgsb":
		return &optimize.LBFGSB{Tol: 1e-6}
	case "neldermead":
		return &optimize.NelderMead{Tol: 1e-6}
	case "slsqp":
		return &optimize.SLSQP{Tol: 1e-6}
	case "cobyla":
		return &optimize.COBYLA{Tol: 1e-6}
	}
	return nil
}

// ---- HTTP handlers ----

// timed wraps a handler with the per-endpoint latency histogram and
// request counter.
func (s *Server) timed(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.mem.Count("server.http.requests", 1)
		s.mem.Observe("server.http."+route+"_ms", float64(time.Since(start).Nanoseconds())/1e6)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, e *httpError) {
	if e.code == http.StatusTooManyRequests {
		after := e.retryAfter
		if after < 1 {
			after = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(after))
	}
	writeJSON(w, e.code, map[string]string{"error": e.msg})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	// Unknown keys are rejected, not ignored: with per-family payloads a
	// silently dropped field would solve a different instance than the
	// client thinks it submitted.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, badRequest("decoding request: %v", err))
		return
	}
	spec, herr := s.normalize(&req)
	if herr != nil {
		writeError(w, herr)
		return
	}
	job, outcome, herr := s.submit(req, spec)
	if herr != nil {
		writeError(w, herr)
		return
	}
	if req.Wait {
		select {
		case <-job.Done():
		case <-r.Context().Done():
			// The submitting client is gone. Only the job's originator
			// cancels it; coalesced waiters must not abort someone
			// else's solve, and cached jobs are already finished.
			if outcome == outcomeQueued {
				s.mem.Count("server.jobs.client_disconnects", 1)
				job.Cancel()
				<-job.Done()
			}
		}
	}
	code := http.StatusAccepted
	if job.State().Terminal() {
		code = http.StatusOK
	}
	view := job.View()
	if outcome == outcomeCoalesced {
		view.Coalesced = true
	}
	writeJSON(w, code, view)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, &httpError{code: http.StatusNotFound, msg: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, &httpError{code: http.StatusNotFound, msg: "no such job"})
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	queued := len(s.queue)
	costInflight := s.adm.inflight
	s.mu.Unlock()
	status, code := "ok", http.StatusOK
	if draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	mode := "local"
	if s.cfg.Dispatcher != nil {
		mode = "coordinator"
	}
	writeJSON(w, code, map[string]any{
		"status":        status,
		"mode":          mode,
		"journaled":     s.cfg.Journal != nil,
		"api_version":   APIVersion,
		"problems":      problem.Families(),
		"queue_depth":   queued,
		"workers":       s.cfg.Workers,
		"models":        s.registry.Names(),
		"jobs":          s.jobs.len(),
		"qubit_ceiling": s.cfg.MaxNodes,
		"cost_inflight": costInflight,
		"cost_budget":   s.cfg.MaxInflightCost,
		"batch_max":     s.cfg.MaxBatch,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.mem.WriteJSON(w)
}
