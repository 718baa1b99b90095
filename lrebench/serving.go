package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// deployment is the set of lred processes one serving workload talks to;
// front is where requests go.
type deployment struct {
	front   *proc
	workers []*proc
}

func (d *deployment) procs() []*proc { return append([]*proc{d.front}, d.workers...) }

// stop drains the front first, then the workers behind it.
func (d *deployment) stop() {
	for _, p := range d.procs() {
		p.stop()
	}
}

// cpuOf is the summed CPU time of the given processes.
func cpuOf(ps []*proc) (time.Duration, error) {
	var sum time.Duration
	for _, p := range ps {
		c, err := p.cpu()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// startDeployment starts the workload's lred processes and returns them
// with the set-up time: from the first process start until the front's
// /readyz answers 200 (for a fleet, after the coordinator's first
// distribution). Workers start first and must be up before the
// coordinator starts, so that distribution never waits for a retry.
// frontArgs are extra flags for the front process.
func startDeployment(o opts, w workload, bundleDir string, k int, frontArgs ...string) (*deployment, float64, error) {
	base := []string{"-addr", "127.0.0.1:0", "-access-log", "none"}
	t0 := time.Now()
	d := &deployment{}
	fail := func(err error) (*deployment, float64, error) {
		for _, p := range d.workers {
			p.stop()
		}
		return nil, 0, err
	}
	var args []string
	if w.fleet {
		var peers []string
		for i := 0; i < fleetWorkers; i++ {
			spool := filepath.Join(o.workdir, fmt.Sprintf("spool-%d-%d", k, i))
			wp, err := startProc(fmt.Sprintf("worker-%d", i), o.lred, append(base, "-role=worker", "-spool", spool)...)
			if err != nil {
				return fail(err)
			}
			d.workers = append(d.workers, wp)
			if err := wp.waitStatus("/healthz", time.Minute); err != nil {
				return fail(err)
			}
			peers = append(peers, wp.addr)
		}
		args = append(base, "-role=coordinator", "-models", bundleDir, "-peers", strings.Join(peers, ","))
	} else {
		args = append(base, "-models", bundleDir)
	}
	if w.lattice {
		args = append(args, "-cascade")
	}
	args = append(args, frontArgs...)
	front, err := startProc("lred", o.lred, args...)
	if err != nil {
		return fail(err)
	}
	d.front = front
	if err := front.waitStatus("/readyz", time.Minute); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(t0).Seconds(), nil
}

// checker is the correctness referee: every response of a step is
// compared with the utterance's reference answer after the step ends,
// off the generator's send path.
type checker struct {
	in                            *servingInputs
	attempted, failed, mismatches int
	answered                      []bool // some answer was checked for the utterance
	hits                          int    // answered utterances whose best language is the true one
	lagMs                         []float64
}

func newChecker(in *servingInputs) *checker {
	return &checker{in: in, answered: make([]bool, len(in.bodies))}
}

// step checks one step's records and returns its statistics. In a
// measured step an arrival abandoned in the generator's backlog was due
// and never answered, so it is attempted and failed. In a max_rps probe
// (probe true) the abandoned backlog is the search's sign that the rate
// is past the knee, not a failure.
func (c *checker) step(sr stepRun, probe bool) stepStats {
	st := stepStats{Rate: sr.rate, Due: len(sr.recs)}
	for i := range sr.recs {
		r := &sr.recs[i]
		c.lagMs = append(c.lagMs, durMs(r.lag))
		if r.skipped {
			if !probe {
				c.attempted++
				c.failed++
				st.Failed++
			}
			continue
		}
		st.Sent++
		lat := durMs(r.done.Sub(r.due))
		if c.record(r.utt, r.err, r.status, r.body, lat) {
			st.Latencies = append(st.Latencies, lat)
		} else {
			st.Failed++
		}
		r.body = nil
	}
	return st
}

// record checks one answer and reports whether it succeeded.
func (c *checker) record(utt int, err error, status int, body []byte, latMs float64) bool {
	c.attempted++
	mismatch := false
	if err == nil && status == http.StatusOK {
		var resp serve.ScoreResponse
		if json.Unmarshal(body, &resp) != nil || !sameResult(resp.ScoreResult, c.in.want[utt]) {
			mismatch = true
			c.mismatches++
		} else if !c.answered[utt] {
			c.answered[utt] = true
			if resp.Best == c.in.model.Bundle.Languages[c.in.labels[utt]] {
				c.hits++
			}
		}
	}
	if failed(err, status, latMs, deadlineMs, mismatch) {
		c.failed++
		return false
	}
	return true
}

// batch sends every utterance once, closed loop over all connections,
// and checks the answers afterwards. It returns the wall time: how long a
// user waits to have the whole test set scored by the deployment.
func (c *checker) batch(g *generator) float64 {
	recs := make([]sent, len(c.in.bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	t := time.Now()
	for _, cl := range g.clients {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < len(recs); j = int(next.Add(1) - 1) {
				r := &recs[j]
				r.due = time.Now()
				r.status, r.body, r.err = post(cl, g.url, c.in.bodies[j])
				r.done = time.Now()
			}
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(t).Seconds()
	for j := range recs {
		r := &recs[j]
		c.record(j, r.err, r.status, r.body, durMs(r.done.Sub(r.due)))
	}
	return elapsed
}

// accPct is the identification accuracy of the served answers: the share
// of test utterances whose best-scoring language is the true one.
func (c *checker) accPct() float64 {
	return 100 * float64(c.hits) / float64(len(c.answered))
}

// sameResult is the bit-exact comparison of a served result with its
// reference: identity, decision, every score row, the fused row and the
// cascade outcome. A degraded or errored answer never matches.
func sameResult(got, want serve.ScoreResult) bool {
	if got.ID != want.ID || got.Best != want.Best || got.Degraded || got.Error != "" ||
		!sameRow(got.Fused, want.Fused) || len(got.Scores) != len(want.Scores) {
		return false
	}
	for fe, row := range want.Scores {
		if !sameRow(got.Scores[fe], row) {
			return false
		}
	}
	if (got.Cascade == nil) != (want.Cascade == nil) {
		return false
	}
	return got.Cascade == nil || *got.Cascade == *want.Cascade
}

func sameRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runServing is one untraced serving run: set-up, a warm-up, the low and
// high fixed-rate steps, the max_rps search, and the end-to-end metrics.
func runServing(o opts, w workload) (*result, error) {
	in, err := buildServingInputs(o, w)
	if err != nil {
		return nil, err
	}
	// The pipeline behind the inputs is garbage now; collect it before
	// anything is timed.
	runtime.GC()
	debug.FreeOSMemory()
	if o.trace {
		return traceServing(o, w, in)
	}
	var setups []float64
	var d *deployment
	for k := 0; k < setupStarts; k++ {
		if d != nil {
			d.stop()
		}
		var secs float64
		if d, secs, err = startDeployment(o, w, in.bundleDir, k); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	defer d.stop()

	g := newGenerator(d.front.url("/v1/score"))
	defer g.close()
	c := newChecker(in)
	next := 0
	sec := func(f float64) time.Duration { return time.Duration(f * o.seconds * float64(time.Second)) }

	c.step(g.run(in.bodies, in.order, &next, w.low, sec(0.05)), false)
	cpu0, err := cpuOf(d.procs())
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	// The low and high steps alternate in blocks, so that slow patches of
	// a shared machine hit both rates alike.
	var lows, highs []stepStats
	for b := 0; b < rateBlocks; b++ {
		lows = append(lows, c.step(g.run(in.bodies, in.order, &next, w.low, sec(0.4/rateBlocks)), false))
		highs = append(highs, c.step(g.run(in.bodies, in.order, &next, w.high, sec(0.4/rateBlocks)), false))
	}
	low, high := mergeSteps(lows), mergeSteps(highs)
	genCPU := selfCPU() - gen0
	cpu1, err := cpuOf(d.procs())
	if err != nil {
		return nil, err
	}
	// The closed-loop pass measures the capacity of the nproc connections;
	// the max_rps search brackets the open-loop knee around it.
	runS := c.batch(g)
	capacity := float64(len(in.bodies)) / runS
	lo, loStep := w.high, high
	if !high.passes(w.limitMs) {
		lo, loStep = w.low, low
	}
	maxRPS, best := searchMaxRPS(lo, 0.85*capacity, 1.15*capacity, loStep, searchProbes, w.limitMs, func(rate float64) stepStats {
		return c.step(g.run(in.bodies, in.order, &next, rate, sec(probeShare)), true)
	})
	rss := 0.0
	for _, p := range d.procs() {
		mb, err := p.hwmMB()
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	lagP99, ok := lagCheck(c.lagMs, lagBoundMs)
	if !ok {
		return nil, fmt.Errorf("run invalid: generator p99 lag %.2f ms exceeds %d ms", lagP99, lagBoundMs)
	}
	served := len(low.Latencies) + len(high.Latencies)
	if served == 0 {
		return nil, fmt.Errorf("no request succeeded (%d failed)", c.failed)
	}
	log.Printf("samples: low n=%d (%.0f/s), high n=%d (%.0f/s), each in %d blocks; closed-loop capacity %.1f/s; max_rps step n=%d at %.1f/s offered; generator %.3f ms CPU/req, p99 lag %.3f ms; %d failed, %d of them mismatches",
		len(low.Latencies), w.low, len(high.Latencies), w.high, rateBlocks, capacity, len(best.Latencies), best.Rate,
		durMs(genCPU)/float64(served), lagP99, c.failed, c.mismatches)
	return &result{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics: fill(endToEnd, map[string]float64{
			"setup_s":        median(setups),
			"p50_ms.low":     blockQuantile(lows, 0.50),
			"p95_ms.low":     blockQuantile(lows, tailQ),
			"p50_ms.high":    blockQuantile(highs, 0.50),
			"p95_ms.high":    blockQuantile(highs, tailQ),
			"max_rps":        maxRPS,
			"cpu_ms_per_req": durMs(cpu1-cpu0) / float64(served),
			"rss_mb":         rss,
			"run_s":          runS,
			"acc_pct":        c.accPct(),
		}),
	}, nil
}

// fetchMetrics pulls one process's /metricsz JSON report.
func fetchMetrics(p *proc) (*obs.Report, error) {
	resp, err := http.Get(p.url("/metricsz"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rep obs.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s /metricsz: %w", p.name, err)
	}
	return &rep, nil
}
