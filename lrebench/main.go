// Command lrebench is the repository's end-to-end benchmark. It drives
// real lred processes from one out-of-process open-loop load generator
// and the offline DBA pipeline in-process, checks every answer against a
// reference, and prints one JSON result line. See README.md.
//
// Usage (run.sh builds lred and this program from the checkout first):
//
//	bash lrebench/run.sh --workload sv-replay --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
)

// opts is one invocation's settings.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	lred     string
	scale    experiments.Scale // pipeline scale of the inputs: small, except in the smoke test
	workdir  string            // per-run scratch directory, removed at exit
	traceDir string            // where traced runs write their spans
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lrebench: ")
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "input seed (same seed, same inputs)")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
		lred     = flag.String("lred", "", "lred binary built from the commit under test (serving workloads)")
		workdir  = flag.String("workdir", ".bench_build", "directory for bundles, spools and trace files")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		log.Fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		log.Fatalf("--seconds must be positive")
	}
	if _, ok := workloads[*workload]; !ok {
		log.Fatalf("unknown --workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		log.Fatal(err)
	}
	o := opts{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		lred:     *lred,
		scale:    experiments.ScaleSmall,
		workdir:  dir,
		traceDir: filepath.Join(*workdir, "traces"),
	}
	res, err := run(o)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		log.Printf("removing %s: %v", dir, rmErr)
	}
	if err != nil {
		log.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

// run executes one workload and returns its result line.
func run(o opts) (*result, error) {
	w := workloads[o.workload]
	start := time.Now()
	var res *result
	var err error
	if w.offline {
		res, err = runOffline(o)
	} else {
		if o.lred == "" {
			return nil, fmt.Errorf("workload %s needs --lred", o.workload)
		}
		if o.lred, err = filepath.Abs(o.lred); err != nil {
			return nil, err
		}
		res, err = runServing(o, w)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		log.Printf("%-30s %14.4f %s", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	log.Printf("attempted %d, failed %d, correct %v (%.1fs)", res.Attempted, res.Failed, res.Correct, time.Since(start).Seconds())
	return res, nil
}
