package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the open-loop generator; tests swap in a
// fake one to check the due-time accounting without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// outcome is what one request reports back to the generator. End is
// when the solve completed as the client sees it (for a job polled
// later, the job record's finish time); Failed marks a refusal (429),
// a 5xx, a transport error or a job that ended failed or cancelled.
type outcome struct {
	End    time.Time
	Failed bool
	// Solves is how many solves the request carried (a batch carries
	// several); 0 means 1.
	Solves int
}

// sample is the generator's record of one request.
type sample struct {
	Index  int
	Due    time.Time // when the schedule said to send it
	Sent   time.Time // when a caller actually sent it
	End    time.Time
	Failed bool
	Solves int
}

// Lag is how late the generator sent the request.
func (s sample) Lag() time.Duration { return s.Sent.Sub(s.Due) }

// Latency is measured from the due time, so a stall that delays later
// sends is charged to those requests too.
func (s sample) Latency() time.Duration { return s.End.Sub(s.Due) }

// openLoop sends n requests on a fixed schedule: request i is due at
// start + i·interval, whatever happened to earlier requests. Due times
// are computed, not ticked, so a caller that falls behind never drops
// a send; it sends late, and the lateness shows in Lag. At most callers
// requests are outstanding at once (one per caller goroutine), so the
// client never opens more connections than callers.
func openLoop(clk clock, start time.Time, interval time.Duration, n, callers int, send func(i int, due time.Time) outcome) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				clk.SleepUntil(due)
				sent := clk.Now()
				o := send(i, due)
				solves := o.Solves
				if solves < 1 {
					solves = 1
				}
				out[i] = sample{Index: i, Due: due, Sent: sent, End: o.End, Failed: o.Failed, Solves: solves}
			}
		}()
	}
	wg.Wait()
	return out
}

// loadStats summarizes an open-loop run: failures count against the
// attempted solves and contribute no latency sample.
type loadStats struct {
	Attempted  int
	Failed     int
	Latencies  []float64 // ms, completed solves only (one per solve)
	LagsMs     []float64 // ms, one per request
	Throughput float64   // completed solves per second of the run
	Timeline   [][2]float64
}

func summarizeLoad(samples []sample) loadStats {
	var st loadStats
	if len(samples) == 0 {
		return st
	}
	first := samples[0].Due
	var last time.Time
	for _, s := range samples {
		st.Attempted += s.Solves
		st.LagsMs = append(st.LagsMs, ms(s.Lag()))
		if s.Failed {
			st.Failed += s.Solves
			continue
		}
		for k := 0; k < s.Solves; k++ {
			st.Latencies = append(st.Latencies, ms(s.Latency()))
			st.Timeline = append(st.Timeline, [2]float64{ms(s.Due.Sub(first)), ms(s.Latency())})
		}
		if s.End.After(last) {
			last = s.End
		}
	}
	if span := last.Sub(first).Seconds(); span > 0 {
		st.Throughput = float64(st.Attempted-st.Failed) / span
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
