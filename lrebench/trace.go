package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
)

// unit is a metric's name and unit; the two lists below are exactly the
// end_to_end and per_layer metrics of BENCHMARK.json, and every run
// prints every metric of its list (a layer a workload does not exercise
// reads 0).
type unit struct{ name, unit string }

var endToEnd = []unit{
	{"setup_s", "s"},
	{"p50_ms.low", "ms"},
	{"p95_ms.low", "ms"},
	{"p50_ms.high", "ms"},
	{"p95_ms.high", "ms"},
	{"max_rps", "1/s"},
	{"cpu_ms_per_req", "ms"},
	{"rss_mb", "MB"},
	{"run_s", "s"},
	{"acc_pct", "%"},
}

var perLayer = []unit{
	{"serve.latency_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.body_bytes", "B"},
	{"serve.encode_us", "us"},
	{"fusion.score_us", "us"},
	{"serve.queue_wait_us", "us"},
	{"serve.batch_size_mean", "count"},
	{"serve.score_busy_us_per_req", "us"},
	{"serve.residual_us", "us"},
	{"lattice.parse_us", "us"},
	{"lattice.edges_per_req", "count"},
	{"ngram.extract_us", "us"},
	{"ngram.tfllr_us", "us"},
	{"ngram.nnz_per_req", "count"},
	{"proj.apply_us", "us"},
	{"svm.kernel_us", "us"},
	{"svm.kernel_macs_per_req", "count"},
	{"svm.weight_bytes_per_req", "B"},
	{"cascade.tier1_us", "us"},
	{"cascade.exit_frac", "frac"},
	{"persist.load_ms", "ms"},
	{"persist.bundle_bytes", "B"},
	{"cluster.rpc_mean_ms", "ms"},
	{"cluster.rpcs_per_req", "count"},
	{"cluster.shard_body_bytes", "B"},
	{"cluster.coord_cpu_ms_per_req", "ms"},
	{"cluster.worker_cpu_ms_per_req", "ms"},
	{"frontend.decode_s", "s"},
	{"ngram.extract_s", "s"},
	{"svm.train_s", "s"},
	{"dba.run_s", "s"},
	{"dba.selected", "count"},
	{"fusion.train_s", "s"},
	{"gen.lag_ms", "ms"},
	{"gen.cpu_ms_per_req", "ms"},
	{"trace.overhead_pct", "%"},
}

// fill builds a result's metric map from values by name; names missing
// from vals read 0.
func fill(list []unit, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, u := range list {
		out[u.name] = metric{Value: vals[u.name], Unit: u.unit}
	}
	return out
}

// histMean is the sum/count mean of the histograms whose names match,
// across reports, with the total count. Server histograms are only ever
// used this way: their bucket bounds are not latencies.
func histMean(reps []*obs.Report, match func(string) bool) (float64, int64) {
	var sum float64
	var n int64
	for _, r := range reps {
		for name, h := range r.Histograms {
			if match(name) {
				sum += h.SumSec
				n += h.Count
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

func counterSum(reps []*obs.Report, name string) int64 {
	var n int64
	for _, r := range reps {
		n += r.Counters[name]
	}
	return n
}

func is(name string) func(string) bool { return func(s string) bool { return s == name } }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// delta is what one process's /metricsz counters and histograms gained
// between two reports; histograms keep only their count and sum.
func delta(before, after *obs.Report) *obs.Report {
	d := &obs.Report{Counters: map[string]int64{}, Histograms: map[string]obs.HistogramData{}}
	for name, n := range after.Counters {
		d.Counters[name] = n - before.Counters[name]
	}
	for name, h := range after.Histograms {
		b := before.Histograms[name]
		d.Histograms[name] = obs.HistogramData{Count: h.Count - b.Count, SumSec: h.SumSec - b.SumSec}
	}
	return d
}

// tracedStep is the traced run's load: one low-rate step against fresh
// processes, with their CPU over the step and what their /metricsz
// series gained during it (front first, then the workers).
type tracedStep struct {
	st                   stepStats
	genCPU               time.Duration
	frontCPU, workersCPU time.Duration
	reps                 []*obs.Report
}

func runTracedStep(o opts, w workload, in *servingInputs, c *checker) (*tracedStep, error) {
	// A coordinator's health probes would land in its shard-RPC series;
	// pacing them beyond the run leaves only the requests' shard RPCs
	// there (the bundle pushes all end before the first snapshot).
	var frontArgs []string
	if w.fleet {
		frontArgs = []string{"-probe-interval", "1h"}
	}
	d, _, err := startDeployment(o, w, in.bundleDir, 0, frontArgs...)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	g := newGenerator(d.front.url("/v1/score"))
	defer g.close()
	next := 0
	sec := func(f float64) time.Duration { return time.Duration(f * o.seconds * float64(time.Second)) }
	c.step(g.run(in.bodies, in.order, &next, w.low, sec(0.1)), false)
	snapshot := func() (reps []*obs.Report, front, workers time.Duration, err error) {
		for _, p := range d.procs() {
			rep, err := fetchMetrics(p)
			if err != nil {
				return nil, 0, 0, err
			}
			reps = append(reps, rep)
		}
		if front, err = cpuOf([]*proc{d.front}); err == nil {
			workers, err = cpuOf(d.workers)
		}
		return reps, front, workers, err
	}
	reps0, front0, workers0, err := snapshot()
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	ts := &tracedStep{st: c.step(g.run(in.bodies, in.order, &next, w.low, sec(0.5)), false)}
	ts.genCPU = selfCPU() - gen0
	reps1, front1, workers1, err := snapshot()
	if err != nil {
		return nil, err
	}
	ts.frontCPU, ts.workersCPU = front1-front0, workers1-workers0
	for i := range reps1 {
		ts.reps = append(ts.reps, delta(reps0[i], reps1[i]))
	}
	return ts, nil
}

// traceServing is the traced run of a serving workload: one low-rate step
// against the real processes for their /metricsz series and /proc CPU,
// then an in-process replay of every utterance through the public layer
// functions, alternately untraced and with spans.
func traceServing(o opts, w workload, in *servingInputs) (*result, error) {
	order := in.order
	c := newChecker(in)
	ts, err := runTracedStep(o, w, in, c)
	if err != nil {
		return nil, err
	}
	lagP99, ok := lagCheck(c.lagMs, lagBoundMs)
	if !ok {
		return nil, fmt.Errorf("run invalid: generator p99 lag %.2f ms exceeds %d ms", lagP99, lagBoundMs)
	}
	served := float64(len(ts.st.Latencies))
	reps := ts.reps

	// In-process replay. A first untimed pass warms the caches, checks
	// every replayed answer against the reference and counts the work;
	// then untraced and traced passes alternate, twice each, and the
	// overhead compares the faster pass of each kind.
	var tot work
	exits := 0
	for _, j := range order {
		res, wk, err := replayOne(in.model, lredPolicy, w.lattice, in.bodies[j], nil)
		if err != nil {
			return nil, err
		}
		c.attempted++
		if !sameResult(res, in.want[j]) {
			c.failed++
			c.mismatches++
		}
		tot.edges += wk.edges
		tot.nnz += wk.nnz
		tot.macs += wk.macs
		tot.weightBytes += wk.weightBytes
		if wk.exited {
			exits++
		}
	}
	replay := func(tr *tracer) (time.Duration, error) {
		runtime.GC()
		t := time.Now()
		for i, j := range order {
			if tr != nil {
				tr.req = i
			}
			if _, _, err := replayOne(in.model, lredPolicy, w.lattice, in.bodies[j], tr); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	}
	var untraced, traced time.Duration
	var tr *tracer
	for k := 0; k < 2; k++ {
		u, err := replay(nil)
		if err != nil {
			return nil, err
		}
		tr = newTracer() // the last traced pass supplies the spans
		t, err := replay(tr)
		if err != nil {
			return nil, err
		}
		if k == 0 || u < untraced {
			untraced = u
		}
		if k == 0 || t < traced {
			traced = t
		}
	}
	n := float64(len(order))
	us := func(name string) float64 { return float64(tr.total[name]) / 1e3 / n }

	var loads []float64
	for k := 0; k < 3; k++ {
		t := time.Now()
		if _, _, err := persist.LoadBundle(in.bundleDir); err != nil {
			return nil, err
		}
		loads = append(loads, durMs(time.Since(t)))
	}

	v := map[string]float64{
		"serve.decode_us":          us("serve.decode"),
		"serve.body_bytes":         meanLen(in.bodies),
		"serve.encode_us":          us("serve.encode"),
		"fusion.score_us":          us("fusion.score"),
		"lattice.parse_us":         us("lattice.parse"),
		"lattice.edges_per_req":    float64(tot.edges) / n,
		"ngram.extract_us":         us("ngram.extract"),
		"ngram.tfllr_us":           us("ngram.tfllr"),
		"ngram.nnz_per_req":        float64(tot.nnz) / n,
		"proj.apply_us":            us("proj.apply"),
		"svm.kernel_us":            us("svm.kernel"),
		"svm.kernel_macs_per_req":  float64(tot.macs) / n,
		"svm.weight_bytes_per_req": float64(tot.weightBytes) / n,
		"cascade.tier1_us":         us("cascade.tier1"),
		"persist.load_ms":          median(loads),
		"persist.bundle_bytes":     float64(fileSize(filepath.Join(in.bundleDir, in.model.Manifest.BundleFile))),
		"gen.lag_ms":               lagP99,
		"gen.cpu_ms_per_req":       ratio(durMs(ts.genCPU), served),
		"trace.overhead_pct":       100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds(),
	}

	// Server-side series over the measured step, as sum/count means. In a
	// fleet the workers run the serve layer and the coordinator the
	// cluster layer.
	front, serveReps := reps[:1], reps[:1]
	httpHist, reqCounter := "serve.http.score.seconds", "serve.http.score.requests"
	if w.fleet {
		serveReps = reps[1:]
		httpHist, reqCounter = "cluster.http.score.seconds", "cluster.http.score.requests"
	}
	requests := float64(counterSum(front, reqCounter))
	lat, _ := histMean(front, is(httpHist))
	qw, _ := histMean(serveReps, is("serve.queue.wait_seconds"))
	v["serve.latency_us"] = lat * 1e6
	v["serve.queue_wait_us"] = qw * 1e6
	v["serve.batch_size_mean"], _ = histMean(serveReps, is("serve.batch.size"))
	v["serve.score_busy_us_per_req"] = ratio(float64(counterSum(serveReps, "pool.serve-score.busy_ns"))/1e3, requests)
	if w.lattice {
		ex, esc := float64(counterSum(front, "serve.cascade.exit")), float64(counterSum(front, "serve.cascade.escalate"))
		v["cascade.exit_frac"] = ratio(ex, ex+esc)
		log.Printf("cascade: %d of %d replayed requests exit at tier 1", exits, len(order))
	}
	if w.fleet {
		rpc, rpcs := histMean(front, func(s string) bool {
			return strings.HasPrefix(s, "cluster.rpc.") && strings.HasSuffix(s, ".seconds")
		})
		v["cluster.rpc_mean_ms"] = rpc * 1e3
		v["cluster.rpcs_per_req"] = ratio(float64(rpcs), requests)
		v["cluster.coord_cpu_ms_per_req"] = ratio(durMs(ts.frontCPU), served)
		v["cluster.worker_cpu_ms_per_req"] = ratio(durMs(ts.workersCPU), served)
		sb, err := shardBodyBytes(in)
		if err != nil {
			return nil, err
		}
		v["cluster.shard_body_bytes"] = sb
		v["serve.residual_us"] = v["serve.latency_us"] - (v["serve.decode_us"] + v["cluster.rpc_mean_ms"]*1e3 +
			v["fusion.score_us"] + v["serve.encode_us"])
	} else {
		v["serve.residual_us"] = v["serve.latency_us"] - (v["serve.decode_us"] + v["cascade.tier1_us"] +
			v["lattice.parse_us"] + v["ngram.extract_us"] + v["ngram.tfllr_us"] + v["proj.apply_us"] +
			v["svm.kernel_us"] + v["fusion.score_us"] + v["serve.encode_us"] + v["serve.queue_wait_us"])
	}
	if err := writeSpans(o, tr.spans); err != nil {
		return nil, err
	}
	return &result{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   fill(perLayer, v),
	}, nil
}

// shardBodyBytes is the mean total size of the per-worker sub-requests a
// coordinator cuts from one request (front-ends assigned round-robin).
func shardBodyBytes(in *servingInputs) (float64, error) {
	groups := cluster.Assign(in.feNames, fleetWorkers)
	var total float64
	for _, body := range in.bodies {
		var req serve.ScoreRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return 0, err
		}
		for _, fes := range groups {
			sub := serve.ScoreRequest{ID: req.ID, FrontEnds: make(map[string]serve.FrontEndInput, len(fes))}
			for _, fe := range fes {
				sub.FrontEnds[fe] = req.FrontEnds[fe]
			}
			b, err := json.Marshal(&sub)
			if err != nil {
				return 0, err
			}
			total += float64(len(b))
		}
	}
	return total / float64(len(in.bodies)), nil
}

// writeSpans writes the traced run's spans as one JSON file under the
// trace directory.
func writeSpans(o opts, spans []span) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %d spans to %s", len(spans), path)
	return nil
}
