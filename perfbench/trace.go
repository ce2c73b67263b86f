package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"qaoaml/internal/telemetry"
)

// span is one timed call into a layer. Parent is the index of the span
// that made the call (-1 for a root); Req ties the spans of one solve
// together.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// Optimizer counters, set on optimize.run spans only; points is
	// the number of parameter points a qaoa.batch call evaluated.
	iters, ngev, points int
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the span name's prefix up to the first dot: "optimize.run"
// belongs to the optimize layer.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory; they are written out when the run
// ends. Times are nanoseconds since the tracer's epoch on the
// monotonic clock. A tracer is used by one goroutine at a time.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name, req string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Overlapping children are
// merged first, so time two children share is subtracted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped
// to the parent's interval.
func covered(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, v := range iv {
		if curHi < 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// layerSelf sums self time per layer over all spans; the root spans
// named "solve" are glue the benchmark adds and belong to no layer.
func layerSelf(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for i, s := range spans {
		if s.Name == rootSpan {
			continue
		}
		out[s.layer()] += self[i]
	}
	return out
}

// rootSpan is the name of the span that wraps one whole solve.
const rootSpan = "solve"

// spanRecorder is a telemetry.Recorder that keeps every span duration
// by name, so the flow spans core emits ("twolevel.level1", ...) can
// be read as distributions rather than totals. Counters, observations
// and iteration events are dropped.
type spanRecorder struct {
	mu  sync.Mutex
	dur map[string][]float64 // ms
}

var _ telemetry.Recorder = (*spanRecorder)(nil)

func newSpanRecorder() *spanRecorder { return &spanRecorder{dur: make(map[string][]float64)} }

func (r *spanRecorder) Iteration(telemetry.IterEvent) {}
func (r *spanRecorder) Count(string, int64)           {}
func (r *spanRecorder) Observe(string, float64)       {}

func (r *spanRecorder) Span(name string) func() {
	start := time.Now()
	return func() {
		d := ms(time.Since(start))
		r.mu.Lock()
		r.dur[name] = append(r.dur[name], d)
		r.mu.Unlock()
	}
}

func (r *spanRecorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.dur[name]...)
}
