package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie strictly above a
// reported percentile: a p90 needs at least 100 samples, a p99 at
// least 1000. A percentile read from fewer samples is mostly the
// largest few values and moves with every run.
const minBeyond = 10

// minSamples returns the smallest sample count for which the p-th
// percentile (0 < p < 100) has minBeyond samples beyond it.
func minSamples(p float64) int {
	return int(math.Ceil(minBeyond/(1-p/100) - 1e-9))
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <
// 100). It refuses sample sets too small to put minBeyond samples
// beyond the result. xs is not modified.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0, 100)", p)
	}
	if need := minSamples(p); len(xs) < need {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d", p, need, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// minWindows is the fewest windows lowStealPercentile reads a figure
// from.
const minWindows = 10

// quietSteal is the share of CPU time stolen by the hypervisor above
// which a window counts as noisy: on two CPUs, more than two of a
// second's 200 scheduler ticks. fleet-hot's windows at or under it read
// the same p90 as steal-free ones; at 1.5–3 % steal the window p90 was
// already up by a fifth to a half, at 5–10 % by half to threefold.
const quietSteal = 0.0125

// lowStealPercentile reads the p-th percentile of a run's latencies in
// the windows the host left alone. timeline holds [ms since the run's
// start, latency ms] per solve; steal holds the steal share of each
// window of window ms (nil when the host does not report steal: every
// window then counts as quiet). The percentile is read in every window
// that holds enough samples for it; the figure is the median of those
// window values over the windows with steal up to quietSteal, or over
// the minWindows least-stolen windows when fewer are quiet. The windows
// are chosen by what the host did, not by their latency, so a change
// in the program moves the figure whenever it shows in the quiet
// windows, however they are spread over the run. It returns the figure
// and the number of windows it was read from.
func lowStealPercentile(timeline [][2]float64, window float64, steal []float64, p float64) (float64, int, error) {
	byWindow := map[int][]float64{}
	for _, s := range timeline {
		k := int(s[0] / window)
		byWindow[k] = append(byWindow[k], s[1])
	}
	type win struct {
		k     int
		steal float64
		v     float64
	}
	var all []win
	for k, xs := range byWindow {
		v, err := percentile(xs, p)
		if err != nil {
			continue
		}
		w := win{k: k, v: v}
		switch {
		case k < len(steal):
			w.steal = steal[k]
		case steal != nil:
			w.steal = math.Inf(1) // not measured: used last
		}
		all = append(all, w)
	}
	if len(all) < minWindows {
		return 0, 0, fmt.Errorf("p%g: %d windows with enough samples, need %d", p, len(all), minWindows)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].steal != all[j].steal {
			return all[i].steal < all[j].steal
		}
		return all[i].k < all[j].k
	})
	n := 0
	for n < len(all) && all[n].steal <= quietSteal {
		n++
	}
	n = max(n, minWindows)
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = all[i].v
	}
	return median(vs), n, nil
}

// median returns the middle value of xs (mean of the two middle values
// for even counts), or 0 for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty set.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
