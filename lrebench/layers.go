package main

import (
	"encoding/json"
	"errors"
	"time"

	"repro/internal/cascade"
	"repro/internal/lattice"
	"repro/internal/ngram"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// The traced run replays a workload's requests in the benchmark process
// through the same public layer functions lred calls, with a span around
// each call. Spans live in memory and are written out when the run ends.
// The same replay without a tracer is the reference scorer of the
// lattice-cascade workload.

// span is one timed call into a layer on behalf of one request.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans; a nil tracer records nothing and costs nothing
// beyond the nil checks.
type tracer struct {
	t0    time.Time
	req   int
	spans []span
	total map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), total: make(map[string]time.Duration)}
}

func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) end(name string, start time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	t.spans = append(t.spans, span{
		Req: t.req, Name: name, Parent: "request",
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: now.Sub(t.t0).Nanoseconds(),
	})
	t.total[name] += now.Sub(start)
}

// work counts what one request made each layer do.
type work struct {
	edges       int // lattice edges parsed
	nnz         int // supervector non-zeros entering TFLLR/projection
	macs        int // kernel multiply-adds
	weightBytes int // kernel weight bytes read, computed from sizes
	exited      bool
}

// replayOne scores one request body the way lred does, layer by layer:
// JSON decode, optional cascade tier 1, per front-end lattice parse,
// n-gram extraction, TFLLR, projection and the SVM kernel, then fusion
// and the response encode.
func replayOne(m *serve.Model, pol cascade.Policy, cascadeOn bool, body []byte, tr *tracer) (serve.ScoreResult, work, error) {
	var w work
	s := tr.begin()
	var req serve.ScoreRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return serve.ScoreResult{}, w, err
	}
	tr.end("serve.decode", s)

	var res serve.ScoreResult
	var casc *serve.CascadeOutcome
	if cascadeOn {
		s = tr.begin()
		out, fast := serve.CascadeTier1(m, pol, &req, nil)
		tr.end("cascade.tier1", s)
		casc = out
		if fast != nil {
			res, w.exited = *fast, true
		}
	}
	if !w.exited {
		scores := make(map[int][]float64, len(req.FrontEnds))
		for q := range m.Bundle.FrontEnds {
			fe := &m.Bundle.FrontEnds[q]
			in, ok := req.FrontEnds[fe.Name]
			if !ok {
				continue
			}
			var v *sparse.Vector
			switch {
			case in.Supervector != nil:
				sv := in.Supervector
				v = &sparse.Vector{Idx: append([]int32(nil), sv.Idx...), Val: append([]float64(nil), sv.Val...)}
				if !sv.Scaled && fe.TFLLR != nil {
					s = tr.begin()
					fe.TFLLR.Apply(v)
					tr.end("ngram.tfllr", s)
				}
			case in.Lattice != nil:
				s = tr.begin()
				l, err := lattice.ParseSausage(sausage(in.Lattice), fe.NumPhones)
				tr.end("lattice.parse", s)
				if err != nil {
					return serve.ScoreResult{}, w, err
				}
				w.edges += l.NumEdges()
				space := ngram.NewSpace(fe.NumPhones, fe.Order)
				s = tr.begin()
				v = space.Supervector(l)
				tr.end("ngram.extract", s)
				if fe.TFLLR != nil {
					s = tr.begin()
					fe.TFLLR.Apply(v)
					tr.end("ngram.tfllr", s)
				}
			default:
				return serve.ScoreResult{}, w, errors.New("front-end " + fe.Name + ": empty input")
			}
			w.nnz += len(v.Idx)
			if fe.Proj != nil {
				s = tr.begin()
				v = fe.Proj.Apply(v)
				tr.end("proj.apply", s)
			}
			s = tr.begin()
			row := fe.Scores(v)
			tr.end("svm.kernel", s)
			w.macs += len(v.Idx) * fe.NumClasses()
			w.weightBytes += len(v.Idx) * fe.NumClasses() * weightWidth(fe.Precision, fe.Quant != nil)
			scores[q] = row
		}
		// AssembleResult is the serving path's fusion step: it calls
		// fusion.Backend.Score once per language.
		s = tr.begin()
		res = serve.AssembleResult(m, req.ID, scores, nil)
		tr.end("fusion.score", s)
		res.Cascade = casc
	}

	s = tr.begin()
	_, err := json.Marshal(&serve.ScoreResponse{ModelVersion: m.Version, Languages: m.Bundle.Languages, ScoreResult: res})
	tr.end("serve.encode", s)
	return res, w, err
}

// sausage converts wire slots to the lattice package's slot type.
func sausage(slots [][]serve.Slot) []lattice.SausageSlot {
	out := make([]lattice.SausageSlot, len(slots))
	for i, slot := range slots {
		for _, alt := range slot {
			out[i] = append(out[i], struct {
				Phone int
				Prob  float64
			}{Phone: alt.Phone, Prob: alt.Prob})
		}
	}
	return out
}

// weightWidth is the bytes per kernel weight at a bundle precision.
func weightWidth(precision string, quantized bool) int {
	switch {
	case quantized:
		return 1
	case precision == "float32":
		return 4
	}
	return 8
}
