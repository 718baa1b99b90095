package main

import (
	"math"
	"sort"
)

// quantile returns the exact q-quantile (0 < q ≤ 1) of raw samples by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. The result is always an observed value, never a bucket bound
// or an interpolation. xs need not be sorted; it is not modified. NaN for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle of xs; for an even count, the mean of the two
// middle samples (setup times are medians over a handful of starts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// failed decides whether one request failed: a transport error, a non-2xx
// answer, an answer later than the deadline (latency is timed from the
// request's due time), or an answer the referee rejected.
func failed(err error, status int, latencyMs, deadlineMs float64, mismatch bool) bool {
	return err != nil || status < 200 || status > 299 || latencyMs > deadlineMs || mismatch
}

// stepStats summarizes one fixed-rate step of the open-loop generator.
type stepStats struct {
	Rate      float64   // offered requests per second
	Due       int       // arrivals the schedule held
	Sent      int       // arrivals actually sent (Due minus abandoned backlog)
	Failed    int       // sent requests classified as failed
	Latencies []float64 // ms from due time, successful requests only
}

// tailQ is the tail quantile reported and used by the max_rps criterion:
// the highest percentile that keeps at least eight samples beyond it in a
// max_rps probe (about 170 requests). The low and high steps report the
// smallest of their blocks' tail quantiles (see blockQuantile).
const tailQ = 0.95

// backlogGrew reports whether the server fell behind the schedule: more
// arrivals were left unsent at the end of the step than a latency limit's
// worth of traffic would leave queued.
func (s stepStats) backlogGrew(limitMs float64) bool {
	allow := int(math.Ceil(s.Rate*limitMs/1e3)) + 1
	return s.Due-s.Sent > allow
}

// passes is the max_rps criterion for one step: nothing failed, the
// backlog did not grow, and the exact tail quantile of the latencies stays
// within the limit. A failed or unsent request counts as missing the
// limit.
func (s stepStats) passes(limitMs float64) bool {
	if s.Failed > 0 || s.backlogGrew(limitMs) || len(s.Latencies) == 0 {
		return false
	}
	return quantile(s.Latencies, tailQ) <= limitMs
}

// blockQuantile is the smallest of the blocks' exact q-quantiles:
// the latency the deployment shows in its least disturbed block. Blocks
// without a sample are left out. Slowdowns of a shared machine come in
// episodes of a few seconds that inflate every quantile of the blocks
// they hit; one block they miss keeps the figure comparable between
// runs, as the fastest of repeated timings does.
func blockQuantile(blocks []stepStats, q float64) float64 {
	best := math.NaN()
	for _, b := range blocks {
		if len(b.Latencies) > 0 {
			if v := quantile(b.Latencies, q); !(v >= best) {
				best = v
			}
		}
	}
	return best
}

// mergeSteps pools consecutive blocks of one rate into one step.
func mergeSteps(blocks []stepStats) stepStats {
	m := stepStats{Rate: blocks[0].Rate}
	for _, b := range blocks {
		m.Due += b.Due
		m.Sent += b.Sent
		m.Failed += b.Failed
		m.Latencies = append(m.Latencies, b.Latencies...)
	}
	return m
}

// searchMaxRPS finds the highest offered rate that passes, by bisection in
// log space between a rate known to pass (lo) and one presumed to fail
// (hi). The first probe is at first when it lies inside the bracket (a
// guess from the measured capacity narrows the search), later ones at the
// bracket's geometric middle. probe runs one step at the given rate. Each
// of the `probes` decisions takes one probe, hi itself is probed when no
// decision failed, and a failing probe is repeated once, so that one
// transient stall of a shared machine does not cut the search short. The
// result interpolates, between the best passing step and the lowest
// failing one, the rate at which the tail reaches the limit (see
// crossing), so that it is not quantized to the bisection grid.
func searchMaxRPS(lo, first, hi float64, loStep stepStats, probes int, limitMs float64, probe func(rate float64) stepStats) (maxRPS float64, best stepStats) {
	best = loStep
	var fail *stepStats
	// step probes a rate, repeating a failure once, and files the result.
	step := func(rate float64) {
		st := probe(rate)
		if !st.passes(limitMs) {
			st = probe(rate)
		}
		if st.passes(limitMs) {
			lo, best = rate, st
		} else {
			hi, fail = rate, &st
		}
	}
	for i := 0; i < probes; i++ {
		if i > 0 || first <= lo || first >= hi {
			first = math.Sqrt(lo * hi)
		}
		step(first)
	}
	if fail == nil {
		// Every probe passed: the upper bracket itself must fail for the
		// crossing to be bracketed (if it passes, it is the result).
		step(hi)
	}
	return crossing(best, fail, limitMs), best
}

// crossing estimates the offered rate at which the tail quantile reaches
// limitMs, interpolating it in log-log space between a passing step and a
// failing one at a higher rate. When the failing step failed on errors
// rather than latency, or there is none, it is the passing step's rate.
func crossing(pass stepStats, fail *stepStats, limitMs float64) float64 {
	if fail == nil || fail.Failed > 0 || len(fail.Latencies) == 0 || len(pass.Latencies) == 0 {
		return pass.Rate
	}
	pp, pf := quantile(pass.Latencies, tailQ), quantile(fail.Latencies, tailQ)
	if !(pp > 0 && pp <= limitMs && pf > limitMs) {
		return pass.Rate
	}
	t := math.Log(limitMs/pp) / math.Log(pf/pp)
	return pass.Rate * math.Pow(fail.Rate/pass.Rate, t)
}

// lagCheck reports the generator's p99 lateness in ms and whether it is
// within bound. A generator that cannot keep its own schedule measures
// itself, not the server, so a run over the bound is invalid.
func lagCheck(lagMs []float64, boundMs float64) (p99 float64, ok bool) {
	if len(lagMs) == 0 {
		return 0, true
	}
	p99 = quantile(lagMs, 0.99)
	return p99, p99 <= boundMs
}
