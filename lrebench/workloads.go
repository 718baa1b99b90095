package main

import "sort"

// workload is one fixed traffic mix. Offered rates and the latency limit
// are frozen here, set once from the capacity of the commit that
// introduced the benchmark on a 2-CPU machine; changing them re-bases
// every later comparison.
type workload struct {
	offline bool // in-process offline DBA pipeline, no server
	// lattice: requests carry lattices to lred -cascade, serving a
	// rank-24 int8 bundle with a tier-1 cascade model.
	lattice bool
	fleet   bool // coordinator + fleetWorkers workers instead of one standalone lred

	low, high float64 // offered rates in requests per second
	limitMs   float64 // tail (p95) latency limit of the max_rps search
}

const (
	fleetWorkers = 2
	// setupStarts is how many times a serving deployment is started per
	// run; setup_s is the median.
	setupStarts = 5
	// offlineBuilds is how many times offline-dba builds the pipeline per
	// run; setup_s is the median.
	offlineBuilds = 2
	// searchProbes is the number of bisection steps of the max_rps search,
	// and probeShare each probe's share of the run's seconds (a failing
	// probe is repeated once, and the top bracket is probed when every
	// step passed, so the search takes at most 2·(searchProbes+1)·probeShare
	// of them).
	searchProbes = 4
	probeShare   = 0.05
	// rateBlocks is how many alternating blocks the low and high steps
	// are cut into; each latency quantile is the smallest of the blocks'.
	rateBlocks = 5
	// lagBoundMs is the p99 generator lateness beyond which a run is
	// invalid: the generator, not the server, would be measured.
	lagBoundMs = 20
	// deadlineMs is the client deadline; a slower answer is a failure.
	deadlineMs = 5000
	// drainGraceMs is how long a step's backlog may drain after its last
	// arrival before the rest is abandoned.
	drainGraceMs = 500
)

var workloads = map[string]workload{
	"sv-replay":       {low: 50, high: 90, limitMs: 60},
	"lattice-cascade": {lattice: true, low: 70, high: 110, limitMs: 60},
	"fleet-sv":        {fleet: true, low: 35, high: 50, limitMs: 100},
	"offline-dba":     {offline: true},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
