package main

import (
	"log"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/dba"
	"repro/internal/experiments"
	"repro/internal/ngram"
	"repro/internal/rng"
	"repro/internal/svm"
)

// dbaThreshold is the vote threshold V of the paper's Table 4.
const dbaThreshold = 3

// runOffline is the offline-dba workload: build the pipeline (set-up),
// run DBA-M1 and DBA-M2 at V=3 and the Table 4 fusion (run_s; acc_pct is
// the label accuracy of the Eq. 13 selection T_DBA the retraining uses),
// then push pooled test utterances one at a time (low) and on every CPU
// (high) through the offline recognition path of the DBA-M2 system:
// six front-end decodes, supervector extraction, TFLLR and the retrained
// SVMs. Each such utterance is one request of this workload, and its
// scores must equal the pipeline's own second-pass scores bit for bit.
func runOffline(o opts) (*result, error) {
	if o.trace {
		return traceOffline(o)
	}
	var setups []float64
	var p *experiments.Pipeline
	for k := 0; k < offlineBuilds; k++ {
		p = nil
		runtime.GC()
		t := time.Now()
		p = experiments.BuildPipeline(o.scale, o.seed)
		setups = append(setups, time.Since(t).Seconds())
	}
	t := time.Now()
	p.DBAOutcome(dbaThreshold, dba.M1)
	m2 := p.DBAOutcome(dbaThreshold, dba.M2)
	t4 := experiments.RunTable4(p, dbaThreshold)
	runS := time.Since(t).Seconds()

	// The recognition path needs only the test utterances, the front-ends
	// with their TFLLR scalers, and the DBA-M2 models and scores; the rest
	// of the pipeline is unreachable from here on. Collecting it before the
	// timed phases keeps the garbage collector's share of them small and
	// steady.
	seed, fes, items, order := p.Seed, p.FEs, p.Corpus.AllTest().Items, replayOrder(o.seed, p)
	tfs := make([]*ngram.TFLLR, len(fes))
	for q := range fes {
		tfs[q] = p.Feats[q].TF
	}
	models, want := m2.Retrained, m2.Scores
	selected, accPct, eer := len(m2.Selected), selectionAccPct(p, m2), t4.DBAFusion[3].EER
	runtime.GC()

	var mismatches atomic.Int64
	recognize := func(j int) {
		for q, fe := range fes {
			r := rng.New(seed).SplitString("extract:" + fe.Name).Split(uint64(items[j].ID))
			v := fe.Space.Supervector(fe.Decode(r, items[j].U))
			if tfs[q] != nil {
				tfs[q].Apply(v)
			}
			if !sameRow(models[q].Scores(v), want[q][j]) {
				mismatches.Add(1)
			}
		}
	}
	// DBA and fusion above are measured too, so the two phases share half
	// of the run's seconds. They alternate in blocks, like the serving
	// workloads' rate steps.
	blk := time.Duration(o.seconds / 4 / rateBlocks * float64(time.Second))
	var next atomic.Int64
	var lows, highs []stepStats
	highSec := 0.0
	cpu0 := selfCPU()
	for b := 0; b < rateBlocks; b++ {
		lat, _ := offlinePhase(order, &next, 1, blk, recognize)
		lows = append(lows, stepStats{Latencies: lat})
		lat, secs := offlinePhase(order, &next, runtime.NumCPU(), blk, recognize)
		highs = append(highs, stepStats{Latencies: lat})
		highSec += secs
	}
	cpu := selfCPU() - cpu0
	low, high := mergeSteps(lows).Latencies, mergeSteps(highs).Latencies
	rss, err := statusMB("/proc/self/status")
	if err != nil {
		return nil, err
	}
	n := len(low) + len(high)
	log.Printf("samples: low n=%d (1 worker), high n=%d (%d workers), each in %d blocks; DBA selected %d; fused 3s EER %.3f%%; %d mismatches",
		len(low), len(high), runtime.NumCPU(), rateBlocks, selected, eer, mismatches.Load())
	return &result{
		Correct:   mismatches.Load() == 0,
		Attempted: n,
		Failed:    int(mismatches.Load()),
		Metrics: fill(endToEnd, map[string]float64{
			"setup_s":        median(setups),
			"p50_ms.low":     blockQuantile(lows, 0.50),
			"p95_ms.low":     blockQuantile(lows, tailQ),
			"p50_ms.high":    blockQuantile(highs, 0.50),
			"p95_ms.high":    blockQuantile(highs, tailQ),
			"max_rps":        float64(len(high)) / highSec,
			"cpu_ms_per_req": durMs(cpu) / float64(n),
			"rss_mb":         rss,
			"run_s":          runS,
			"acc_pct":        accPct,
		}),
	}, nil
}

// selectionAccPct is the share of T_DBA whose hypothesized language is
// the true one.
func selectionAccPct(p *experiments.Pipeline, o *dba.Outcome) float64 {
	if len(o.Selected) == 0 {
		return 0
	}
	right := 0
	for _, h := range o.Selected {
		if h.Label == p.TestLabels[h.Utt] {
			right++
		}
	}
	return 100 * float64(right) / float64(len(o.Selected))
}

// offlinePhase runs fn over order (cycled from *next on) on `workers`
// goroutines until dur has passed, and returns each call's latency in ms
// and the phase's wall time in seconds.
func offlinePhase(order []int, next *atomic.Int64, workers int, dur time.Duration, fn func(int)) ([]float64, float64) {
	var mu sync.Mutex
	var lat []float64
	start := time.Now()
	stop := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				j := order[int(next.Add(1)-1)%len(order)]
				t := time.Now()
				fn(j)
				d := durMs(time.Since(t))
				mu.Lock()
				lat = append(lat, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat, time.Since(start).Seconds()
}

// traceOffline times the offline pipeline's layers through their public
// functions: decode and n-gram extraction over every utterance of every
// split (serially, the work BuildPipeline spreads over its pool), baseline
// SVM training, the two DBA passes and the Table 4 fusion.
func traceOffline(o opts) (*result, error) {
	p := experiments.BuildPipeline(o.scale, o.seed)
	tr := newTracer()
	splits := []*corpus.Split{p.Corpus.Train}
	for _, dur := range corpus.Durations {
		splits = append(splits, p.Corpus.Dev[dur], p.Corpus.Test[dur])
	}
	// Every replayed supervector, once TFLLR-scaled, must equal the
	// pipeline's cached feature bit for bit.
	checked, mismatches := 0, 0
	for q, fe := range p.FEs {
		root := rng.New(p.Seed).SplitString("extract:" + fe.Name)
		for _, s := range splits {
			for _, it := range s.Items {
				tr.req = it.ID
				t := tr.begin()
				l := fe.Decode(root.Split(uint64(it.ID)), it.U)
				tr.end("frontend.decode", t)
				t = tr.begin()
				v := fe.Space.Supervector(l)
				tr.end("ngram.extract", t)
				if tf := p.Feats[q].TF; tf != nil {
					tf.Apply(v)
				}
				checked++
				if want := p.Feats[q].Vector(it.ID); !slices.Equal(v.Idx, want.Idx) || !sameRow(v.Val, want.Val) {
					mismatches++
				}
			}
		}
	}
	for q, d := range p.Data {
		opt := p.SVMOptions
		opt.Seed = p.SVMOptions.Seed + uint64(q)*104729 // dba.TrainBaseline's per-subsystem seed
		t := tr.begin()
		svm.TrainOVR(d.Train, p.TrainLabels, experiments.NumLangs, d.Dim, opt)
		tr.end("svm.train", t)
	}
	t := tr.begin()
	p.DBAOutcome(dbaThreshold, dba.M1)
	m2 := p.DBAOutcome(dbaThreshold, dba.M2)
	tr.end("dba.run", t)
	t = tr.begin()
	experiments.RunTable4(p, dbaThreshold)
	tr.end("fusion.train", t)
	if err := writeSpans(o, tr.spans); err != nil {
		return nil, err
	}
	s := func(name string) float64 { return tr.total[name].Seconds() }
	return &result{
		Correct:   mismatches == 0,
		Attempted: checked,
		Failed:    mismatches,
		Metrics: fill(perLayer, map[string]float64{
			"frontend.decode_s": s("frontend.decode"),
			"ngram.extract_s":   s("ngram.extract"),
			"svm.train_s":       s("svm.train"),
			"dba.run_s":         s("dba.run"),
			"dba.selected":      float64(len(m2.Selected)),
			"fusion.train_s":    s("fusion.train"),
		}),
	}, nil
}
