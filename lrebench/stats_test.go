package main

import (
	"errors"
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.8, 4}, {0.99, 5}, {1, 5},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	// 1000 samples 1..1000: p99 is the 990th, an observed sample with
	// exactly ten samples beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(1000 - i)
	}
	if got := quantile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := quantile(big, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestFailureCounting(t *testing.T) {
	boom := errors.New("connection reset")
	cases := []struct {
		err      error
		status   int
		lat      float64
		mismatch bool
		want     bool
	}{
		{nil, 200, 10, false, false},
		{nil, 204, 10, false, false},
		{boom, 0, 10, false, true},
		{nil, 429, 10, false, true},
		{nil, 503, 10, false, true},
		{nil, 200, 6000, false, true},
		{nil, 200, 10, true, true},
		{boom, 200, 6000, true, true},
	}
	n := 0
	for i, c := range cases {
		got := failed(c.err, c.status, c.lat, 5000, c.mismatch)
		if got != c.want {
			t.Errorf("case %d: failed = %v, want %v", i, got, c.want)
		}
		if got {
			n++
		}
	}
	if n != 6 {
		t.Errorf("%d failures counted, want 6", n)
	}
}

// TestAbandonedArrivalsFail checks the checker's step accounting: an
// arrival abandoned in the generator's backlog is attempted and failed in
// a measured step, but only the search's backlog signal in a probe.
func TestAbandonedArrivalsFail(t *testing.T) {
	sr := stepRun{rate: 10, recs: []sent{
		{skipped: true},
		{err: errors.New("connection reset")},
		{skipped: true},
	}}
	c := &checker{}
	st := c.step(sr, false)
	if c.attempted != 3 || c.failed != 3 || st.Failed != 3 || st.Sent != 1 || st.Due != 3 {
		t.Errorf("measured step: attempted %d failed %d, step %+v; want 3, 3, Failed 3 Sent 1 Due 3", c.attempted, c.failed, st)
	}
	c = &checker{}
	st = c.step(sr, true)
	if c.attempted != 1 || c.failed != 1 || st.Failed != 1 || st.Sent != 1 || !st.backlogGrew(0) {
		t.Errorf("probe: attempted %d failed %d, step %+v; want 1, 1, Failed 1 Sent 1 and a grown backlog", c.attempted, c.failed, st)
	}
}

// synthStep is a one-second step at rate on a server with the given
// capacity: under capacity every request answers in 5 ms; over it, each
// arrival waits behind the growing backlog, and requests the server could
// not start before the step ended stay unsent.
func synthStep(rate, capacity float64) stepStats {
	n := int(rate)
	st := stepStats{Rate: rate, Due: n}
	for i := 0; i < n; i++ {
		start := math.Max(float64(i)/rate, float64(i)/capacity)
		if start > 1 {
			break
		}
		st.Sent++
		st.Latencies = append(st.Latencies, 5+1e3*(start-float64(i)/rate))
	}
	return st
}

func TestStepPasses(t *testing.T) {
	ok := synthStep(100, 200)
	if !ok.passes(50) {
		t.Error("a step under capacity should pass")
	}
	if ok.backlogGrew(50) {
		t.Error("no backlog under capacity")
	}
	over := synthStep(300, 200)
	if !over.backlogGrew(50) || over.passes(50) {
		t.Error("a step over capacity should fail on backlog")
	}
	slow := synthStep(100, 200)
	for i := 0; i < 4; i++ {
		slow.Latencies[i] = 80 // 4% of requests over the limit
	}
	if !slow.passes(50) {
		t.Error("a step whose p95 is within the limit should pass")
	}
	for i := 4; i < 6; i++ {
		slow.Latencies[i] = 80 // now 6%
	}
	if slow.passes(50) {
		t.Error("a step whose p95 exceeds the limit should fail")
	}
	failing := synthStep(100, 200)
	failing.Failed = 1
	if failing.passes(50) {
		t.Error("a step with a failed request should fail")
	}
}

func TestSearchMaxRPS(t *testing.T) {
	for _, capacity := range []float64{130, 180, 240, 290} {
		var probed []float64
		lo := synthStep(100, capacity)
		got, best := searchMaxRPS(100, 0, 300, lo, 6, 50, func(rate float64) stepStats {
			probed = append(probed, rate)
			return synthStep(rate, capacity)
		})
		if len(probed) < 6 || len(probed) > 14 {
			t.Fatalf("capacity %v: %d probes, want 6 decisions with each failure repeated once", capacity, len(probed))
		}
		// Queueing pushes p95 past 50 ms once rate exceeds capacity by
		// about 5%; bisection must land within that band.
		if got > capacity*1.06 || got < capacity*0.95 {
			t.Errorf("capacity %v: max_rps %v not within [-5%%, +6%%] of capacity (probes %v)", capacity, got, probed)
		}
		if !best.passes(50) {
			t.Errorf("capacity %v: best step does not pass", capacity)
		}
	}
	// Nothing above lo passes: the result lies between lo and the first
	// failing probe.
	var probed []float64
	got, _ := searchMaxRPS(100, 0, 300, synthStep(100, 100), 3, 50, func(rate float64) stepStats {
		probed = append(probed, rate)
		return synthStep(rate, 100)
	})
	if got < 100 || got > probed[2] {
		t.Errorf("max_rps with no passing probe = %v, want within [100, %v]", got, probed[2])
	}
}

func TestSearchStartsAtTheGuess(t *testing.T) {
	var probed []float64
	got, _ := searchMaxRPS(100, 204, 276, synthStep(100, 240), 3, 50, func(rate float64) stepStats {
		probed = append(probed, rate)
		return synthStep(rate, 240)
	})
	if probed[0] != 204 {
		t.Errorf("first probe at %v, want the guess 204", probed[0])
	}
	if got < 240*0.98 || got > 240*1.06 {
		t.Errorf("max_rps %v not within [-2%%, +6%%] of capacity 240 (probes %v)", got, probed)
	}
}

func TestSearchProbesTheTopWhenEverythingPasses(t *testing.T) {
	var probed []float64
	got, _ := searchMaxRPS(100, 0, 200, synthStep(100, 400), 3, 50, func(rate float64) stepStats {
		probed = append(probed, rate)
		return synthStep(rate, 400)
	})
	if len(probed) != 4 || probed[3] != 200 {
		t.Errorf("probes %v, want three bisection probes and then the top, 200", probed)
	}
	if got != 200 {
		t.Errorf("max_rps = %v, want the passing top bracket 200", got)
	}
}

func TestSearchRetriesATransientFailure(t *testing.T) {
	// The first probe at any rate stalls; its repeat sees the real server.
	seen := map[float64]bool{}
	got, _ := searchMaxRPS(100, 0, 300, synthStep(100, 240), 4, 50, func(rate float64) stepStats {
		st := synthStep(rate, 240)
		if !seen[rate] {
			seen[rate] = true
			for i := 0; i < len(st.Latencies)/10; i++ {
				st.Latencies[i] = 500
			}
		}
		return st
	})
	if got < 200 {
		t.Errorf("max_rps %v: a transient stall cut the search short", got)
	}
}

func TestCrossingInterpolates(t *testing.T) {
	steps := func(rate, p99 float64) stepStats {
		st := stepStats{Rate: rate, Due: 100, Sent: 100}
		for i := 0; i < 100; i++ {
			st.Latencies = append(st.Latencies, p99)
		}
		return st
	}
	pass, fail := steps(100, 25), steps(200, 100)
	// log p95 is linear in log rate here: p95 = 25·(rate/100)^2, so the
	// 50 ms limit is crossed at 100·√2.
	if got := crossing(pass, &fail, 50); math.Abs(got-100*math.Sqrt2) > 1e-9 {
		t.Errorf("crossing = %v, want %v", got, 100*math.Sqrt2)
	}
	if got := crossing(pass, nil, 50); got != 100 {
		t.Errorf("crossing without a failing step = %v, want the passing rate", got)
	}
	errs := fail
	errs.Failed = 1
	if got := crossing(pass, &errs, 50); got != 100 {
		t.Errorf("crossing past a step that failed on errors = %v, want the passing rate", got)
	}
}

func TestMergeSteps(t *testing.T) {
	mk := func(worst float64) stepStats {
		st := stepStats{Rate: 10, Due: 100, Sent: 100}
		for i := 0; i < 98; i++ {
			st.Latencies = append(st.Latencies, 5)
		}
		st.Latencies = append(st.Latencies, worst, worst)
		return st
	}
	blocks := []stepStats{mk(6), mk(500), mk(7)}
	m := mergeSteps(blocks)
	if m.Due != 300 || m.Sent != 300 || len(m.Latencies) != 300 || m.Rate != 10 {
		t.Errorf("mergeSteps = %+v", m)
	}
}

func TestBlockQuantile(t *testing.T) {
	mk := func(worst float64) stepStats {
		st := stepStats{}
		for i := 0; i < 90; i++ {
			st.Latencies = append(st.Latencies, 5)
		}
		for i := 0; i < 10; i++ {
			st.Latencies = append(st.Latencies, worst)
		}
		return st
	}
	// One slow block of five owns the pooled tail; the block quantile is
	// the fastest block's, an observed sample.
	blocks := []stepStats{mk(9), mk(500), mk(7), mk(8), mk(6)}
	if got := quantile(mergeSteps(blocks).Latencies, 0.99); got != 500 {
		t.Errorf("pooled p99 = %v, want 500", got)
	}
	if got := blockQuantile(blocks, 0.99); got != 6 {
		t.Errorf("block p99 = %v, want 6", got)
	}
	if got := blockQuantile(append(blocks, stepStats{}), 0.5); got != 5 {
		t.Errorf("block p50 with an empty block = %v, want 5", got)
	}
	if !math.IsNaN(blockQuantile([]stepStats{{}}, 0.5)) {
		t.Error("block quantile without samples should be NaN")
	}
}

func TestLagCheck(t *testing.T) {
	lags := make([]float64, 200)
	for i := range lags {
		lags[i] = 0.1
	}
	if p99, ok := lagCheck(lags, 20); !ok || p99 != 0.1 {
		t.Errorf("on-time generator: p99 %v ok %v", p99, ok)
	}
	// 1% late by 30 ms is still within a p99 bound of 20 ms ...
	lags[0], lags[1] = 30, 30
	if _, ok := lagCheck(lags, 20); !ok {
		t.Error("two late arrivals in 200 should not invalidate the run")
	}
	// ... but 5% is not.
	for i := 0; i < 10; i++ {
		lags[i] = 30
	}
	if p99, ok := lagCheck(lags, 20); ok || p99 != 30 {
		t.Errorf("late generator: p99 %v ok %v, want invalid", p99, ok)
	}
}
