package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// TestMetricListsMatchBenchmarkJSON pins the printed metric names and
// units to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []unit) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
}

// servingLayers are the per-layer metrics every serving workload's traced
// run exercises.
var servingLayers = []string{
	"serve.latency_us", "serve.decode_us", "serve.body_bytes", "serve.encode_us", "fusion.score_us",
	"serve.queue_wait_us", "serve.batch_size_mean", "serve.score_busy_us_per_req",
	"svm.kernel_us", "svm.kernel_macs_per_req", "svm.weight_bytes_per_req",
	"persist.load_ms", "persist.bundle_bytes", "gen.lag_ms", "gen.cpu_ms_per_req",
}

// exercised lists, per workload, the per-layer metrics its traced run
// must read above 0. A metric a workload leaves alone prints 0, so a
// renamed /metricsz series or a layer no longer reached would otherwise
// go unnoticed.
var exercised = map[string][]string{
	"sv-replay": servingLayers,
	"lattice-cascade": append([]string{
		"lattice.parse_us", "lattice.edges_per_req", "ngram.extract_us", "ngram.tfllr_us", "ngram.nnz_per_req",
		"proj.apply_us", "cascade.tier1_us", "cascade.exit_frac",
	}, servingLayers...),
	"fleet-sv": append([]string{
		"cluster.rpc_mean_ms", "cluster.rpcs_per_req", "cluster.shard_body_bytes",
		"cluster.coord_cpu_ms_per_req", "cluster.worker_cpu_ms_per_req",
	}, servingLayers...),
	"offline-dba": {"frontend.decode_s", "ngram.extract_s", "svm.train_s", "dba.run_s", "dba.selected", "fusion.train_s"},
}

// TestSmokeEveryWorkload runs every workload at tiny scale, untraced and
// traced, and checks that each prints every metric of its list with the
// right unit, that every answer was checked, that none failed, and that
// every metric the workload exercises reads above 0.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds lred and runs every workload")
	}
	tmp := t.TempDir()
	lred := filepath.Join(tmp, "lred")
	if out, err := exec.Command("go", "build", "-o", lred, "repro/cmd/lred").CombinedOutput(); err != nil {
		t.Fatalf("go build lred: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := opts{
				workload: name,
				seed:     7,
				seconds:  2,
				trace:    trace,
				lred:     lred,
				scale:    experiments.ScaleTiny,
				workdir:  t.TempDir(),
				traceDir: filepath.Join(tmp, "traces"),
			}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, u := range want {
				m, ok := res.Metrics[u.name]
				if !ok || m.Unit != u.unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", name, trace, u.name, m, ok, u.unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			nonzero := exercised[name]
			if !trace {
				nonzero = nil
				for _, u := range endToEnd {
					nonzero = append(nonzero, u.name)
				}
			}
			for _, m := range nonzero {
				if v := res.Metrics[m].Value; !(v > 0) {
					t.Errorf("%s trace=%v: metric %s = %v, want > 0", name, trace, m, v)
				}
			}
		}
	}
}
