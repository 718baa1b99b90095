package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cascade"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/lattice"
	"repro/internal/parallel"
	"repro/internal/persist"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/svm"
)

// compressRank is the projection rank of the lattice-cascade bundle: the
// smallest rank that keeps the 23-language weight span (see
// DESIGN.md "Compressed serving").
const compressRank = 24

// lredPolicy is lred's cascade policy without -cascade-margin: the
// calibrated per-tier margins as they are.
var lredPolicy = cascade.Policy{}

// servingInputs is everything a serving workload replays and checks. The
// program under test sees only bodies; the rest stays in the benchmark.
type servingInputs struct {
	bundleDir string
	model     *serve.Model
	feNames   []string

	bodies [][]byte
	labels []int
	order  []int // replay order over the utterances
	want   []serve.ScoreResult
}

// buildServingInputs generates the seed's pipeline, exports the bundle
// the workload serves, marshals one request body per pooled test
// utterance, and computes each body's reference answer.
func buildServingInputs(o opts, w workload) (*servingInputs, error) {
	t0 := time.Now()
	p := experiments.BuildPipeline(o.scale, o.seed)
	in := &servingInputs{bundleDir: filepath.Join(o.workdir, "bundle"), labels: p.TestLabels}
	for _, fe := range p.FEs {
		in.feNames = append(in.feNames, fe.Name)
	}
	t1 := time.Now()
	if w.lattice {
		if err := exportCompressedCascade(p, in.bundleDir); err != nil {
			return nil, err
		}
	} else if _, err := p.ExportModels(in.bundleDir, ""); err != nil {
		return nil, err
	}
	t2 := time.Now()
	m, err := serve.NewRegistry(in.bundleDir).Reload()
	if err != nil {
		return nil, err
	}
	in.model = m

	items := p.Corpus.AllTest().Items
	n := len(p.TestLabels)
	in.bodies = make([][]byte, n)
	in.want = make([]serve.ScoreResult, n)
	errs := make([]error, n)
	parallel.For(n, func(j int) {
		id := fmt.Sprintf("u%04d", j)
		req := serve.ScoreRequest{ID: id, FrontEnds: make(map[string]serve.FrontEndInput, len(p.FEs))}
		for q, fe := range p.FEs {
			if w.lattice {
				// The decode the pipeline's own extraction ran: same
				// randomness stream, so the same confusion network.
				r := rng.New(o.seed).SplitString("extract:" + fe.Name).Split(uint64(items[j].ID))
				req.FrontEnds[fe.Name] = serve.FrontEndInput{Lattice: wireSlots(fe.Decode(r, items[j].U))}
			} else {
				v := p.Data[q].Test[j]
				req.FrontEnds[fe.Name] = serve.FrontEndInput{Supervector: &serve.Supervector{Idx: v.Idx, Val: v.Val, Scaled: true}}
			}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			errs[j] = err
			return
		}
		in.bodies[j] = body
		if w.lattice {
			// Escalations have no offline counterpart on a compressed,
			// cascaded bundle: the reference is the public-layer path on
			// the same bundle, and tier-1 exits are serve.CascadeTier1.
			res, _, err := replayOne(m, lredPolicy, w.lattice, body, nil)
			if err != nil {
				errs[j] = fmt.Errorf("reference for %s: %w", id, err)
				return
			}
			in.want[j] = res
		} else {
			// Supervector replays must reproduce the offline pipeline's
			// baseline scores bit for bit.
			rows := make(map[int][]float64, len(p.FEs))
			for q := range p.FEs {
				rows[q] = p.BaselineScores[q][j]
			}
			in.want[j] = serve.AssembleResult(m, id, rows, nil)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	in.order = replayOrder(o.seed, p)
	exits := 0
	for _, r := range in.want {
		if r.Cascade != nil && r.Cascade.Exited {
			exits++
		}
	}
	log.Printf("inputs: %d utterances (%d answer at tier 1), %.0f KB mean body, pipeline %.1fs, bundle %.1fs",
		n, exits, meanLen(in.bodies)/1024, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds())
	return in, nil
}

// replayOrder interleaves the pooled test set's duration tiers, each
// shuffled by the seed, so that every window of a replay carries the same
// mix of long and short utterances, whose costs differ several-fold.
func replayOrder(seed uint64, p *experiments.Pipeline) []int {
	var tiers [][]int
	longest := 0
	for i, dur := range corpus.Durations {
		idx := append([]int(nil), p.TestIdx[dur]...)
		r := rng.New(seed).SplitString("lrebench:order").Split(uint64(i))
		r.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		tiers = append(tiers, idx)
		longest = max(longest, len(idx))
	}
	var order []int
	for k := 0; k < longest; k++ {
		for _, t := range tiers {
			if k < len(t) {
				order = append(order, t[k])
			}
		}
	}
	return order
}

// exportCompressedCascade writes the rank-24 int8 bundle with the
// pipeline's tier-1 cascade model added (the compressed export ships
// without one), so one lred exercises projection, the int8 kernel and the
// cascade together.
func exportCompressedCascade(p *experiments.Pipeline, dir string) error {
	cs, err := p.Compress(compressRank, svm.Int8)
	if err != nil {
		return err
	}
	b := cs.BuildBundle(p)
	if b.Cascade, err = p.TrainCascade(); err != nil {
		return err
	}
	return persist.SaveBundle(dir, b, persist.Manifest{
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Seed:      p.Seed,
		Scale:     p.Scale.String(),
	})
}

// wireSlots turns a decoded confusion network back into the wire form:
// slot i holds the alternatives of the edges leaving node i.
func wireSlots(l *lattice.Lattice) [][]serve.Slot {
	slots := make([][]serve.Slot, l.NumNodes-1)
	for _, e := range l.Edges {
		slots[e.From] = append(slots[e.From], serve.Slot{Phone: e.Phone, Prob: math.Exp(e.LogScore)})
	}
	return slots
}

func meanLen(bodies [][]byte) float64 {
	var s float64
	for _, b := range bodies {
		s += float64(len(b))
	}
	return s / float64(len(bodies))
}

// fileSize is the size of a file in bytes (0 when missing).
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
