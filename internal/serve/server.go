package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/cascade"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// Config sizes the server. Zero values select the defaults noted per
// field.
type Config struct {
	// ModelDir is the bundle directory (required); New fails fast if the
	// initial load fails.
	ModelDir string
	// MaxBatch bounds how many requests share one scoring pass (16).
	MaxBatch int
	// BatchWait is how long a non-full batch waits for company (2 ms).
	BatchWait time.Duration
	// QueueDepth bounds the admission queue; beyond it requests get
	// 429 + Retry-After (256).
	QueueDepth int
	// Workers sizes the scoring pool (GOMAXPROCS).
	Workers int
	// RequestTimeout is the per-request deadline covering queueing and
	// scoring (5 s).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: queued work is finished and
	// open connections closed within it (10 s).
	DrainTimeout time.Duration
	// MaxBodyBytes bounds request bodies (32 MiB).
	MaxBodyBytes int64
	// Reload governs reload retry/backoff and the circuit breaker.
	Reload ReloadPolicy
	// Cascade opts into the two-tier scoring cascade (see cascade.go).
	Cascade CascadeConfig
	// Adapt opts into online DBA self-training (see adapt.go): "" or
	// "off" disables it (the default — serving is then bit-identical to a
	// build without the subsystem); "on"/"default" selects
	// adapt.DefaultPolicy; anything else parses as a policy spec.
	Adapt string

	// AccessLog receives sampled JSON access-log lines, one object per
	// line (nil: access logging off).
	AccessLog io.Writer
	// AccessLogEvery samples every Nth request onto AccessLog (1 = all).
	// Degraded and errored requests are always logged regardless.
	AccessLogEvery int
	// DisableTracing turns off per-request trace spans, the /tracez
	// buffer, access logging, and the rolling-window metrics — the
	// baseline configuration of the tracing-overhead benchmark
	// (BENCH_obs.json). Production serving keeps tracing on.
	DisableTracing bool

	// WaitForModel lets the server start with an empty or unloadable
	// bundle directory: scoring requests get 503 "no model loaded" and
	// /readyz stays unready until a later reload succeeds. Cluster shard
	// workers run this way — they boot against an empty spool directory
	// and wait for the coordinator to push their shard bundle.
	WaitForModel bool

	// clock substitutes the time source in tests (nil: real time).
	clock Clock
}

func (c *Config) setDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.BatchWait <= 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	c.Reload.setDefaults()
}

// Server is the scoring daemon: registry + batcher + HTTP handlers.
type Server struct {
	cfg       Config
	reg       *Registry
	reloader  *reloader
	batcher   *Batcher
	mux       *http.ServeMux
	traces    *obs.TraceBuffer
	accessLog *accessLogger
	draining  atomic.Bool
	inflight  atomic.Int64

	// cascadePolicy is the parsed threshold-offset policy; read-only
	// after New. Meaningful only when cfg.Cascade.Enabled.
	cascadePolicy cascade.Policy

	// adapter is the online self-training loop, nil unless cfg.Adapt
	// selects a policy (see adapt.go).
	adapter *adapt.Adapter
}

// New loads the bundle and starts the batching dispatcher. The returned
// server is ready to serve; pass its Handler to an http.Server or call
// Run.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	if cfg.ModelDir == "" {
		return nil, fmt.Errorf("serve: no model directory configured")
	}
	s := &Server{cfg: cfg, reg: NewRegistry(cfg.ModelDir)}
	if cfg.Cascade.Enabled {
		pol, err := cascade.ParsePolicy(cfg.Cascade.Margin)
		if err != nil {
			return nil, fmt.Errorf("serve: cascade margin: %w", err)
		}
		s.cascadePolicy = pol
	}
	if _, err := s.reg.Reload(); err != nil && !cfg.WaitForModel {
		return nil, fmt.Errorf("serve: initial model load: %w", err)
	}
	s.reloader = newReloader(s.reg, cfg.Reload, cfg.clock)
	if err := s.initAdapter(); err != nil {
		return nil, fmt.Errorf("serve: adapt: %w", err)
	}
	s.batcher = newBatcher(cfg.MaxBatch, cfg.QueueDepth, cfg.Workers, cfg.BatchWait, nil, cfg.clock)
	s.batcher.windowed = !cfg.DisableTracing
	s.traces = obs.NewTraceBuffer(0, 0, 0) // default bounds (see obs.NewTraceBuffer)
	if !cfg.DisableTracing {
		s.accessLog = newAccessLogger(cfg.AccessLog, cfg.AccessLogEvery)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/score", s.instrument("score", s.handleScore))
	s.mux.HandleFunc("/v1/score/batch", s.instrument("batch", s.handleScoreBatch))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	s.mux.HandleFunc("/tracez", s.handleTracez)
	s.mux.HandleFunc("/-/reload", s.instrument("reload", s.handleReload))
	s.mux.HandleFunc("/adaptz", s.handleAdaptz)
	s.mux.HandleFunc("/-/adapt/promote", s.instrument("adapt_promote", s.handleAdaptPromote))
	s.mux.HandleFunc("/-/adapt/rollback", s.instrument("adapt_rollback", s.handleAdaptRollback))
	return s, nil
}

// Registry exposes the model registry (reload loops, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Reload swaps in a fresh bundle through the retry/backoff and
// circuit-breaker policy; SIGHUP handlers and the /-/reload endpoint both
// go through here. On failure the previous model stays active.
func (s *Server) Reload() (*Model, error) { return s.reloader.Reload() }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// statusWriter records the response status so instrumentation, the
// trace buffer, and the access log can see the request's outcome.
// instrument wraps every scoring/reload handler in one, so those
// handlers may assume their ResponseWriter is a *statusWriter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func statusOf(w http.ResponseWriter) int {
	if sw, ok := w.(*statusWriter); ok {
		return sw.status
	}
	return http.StatusOK
}

// instrument wraps a handler with per-endpoint request counts, latency
// histograms (cumulative + rolling windows), server-error counters, and
// the shared in-flight gauge.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	reqs := obs.GetCounter("serve.http." + name + ".requests")
	lat := obs.GetHistogram("serve.http." + name + ".seconds")
	wlat := obs.GetWindow("serve.http." + name + ".seconds")
	errs := obs.GetCounter("serve.http.errors")
	werrs := obs.GetWindowCounter("serve.http.errors")
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		obs.SetGauge("serve.http.inflight", float64(s.inflight.Add(1)))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		defer func() {
			d := time.Since(t0).Seconds()
			lat.Observe(d)
			if !s.cfg.DisableTracing {
				wlat.Observe(d)
			}
			if sw.status >= 500 {
				errs.Inc()
				if !s.cfg.DisableTracing {
					werrs.Inc()
				}
			}
			obs.SetGauge("serve.http.inflight", float64(s.inflight.Add(-1)))
		}()
		h(sw, r)
	}
}

// reqTrace is the per-request tracing context of a scoring handler:
// W3C identifiers plus the detached root span the batcher hangs its
// stage spans off. Fields past root are written only by the handler
// goroutine.
type reqTrace struct {
	id        string // 32-hex trace id (accepted or minted)
	parent    string // caller's span id when the request carried a traceparent
	spanID    string // this server's root span id
	start     time.Time
	root      *obs.Span
	batchID   int64
	modelVer  int64
	degraded  bool
	surviving []string
	errMsg    string
}

// startTrace accepts the request's traceparent (or mints a fresh trace),
// opens the root span, and stamps the response header so the client
// learns the id even on error paths. Returns nil when tracing is off.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request, endpoint string) *reqTrace {
	if s.cfg.DisableTracing {
		return nil
	}
	id, parent, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		id, parent = obs.NewTraceID(), ""
	}
	tr := &reqTrace{
		id:     id,
		parent: parent,
		spanID: obs.NewSpanID(),
		start:  time.Now(),
		root:   obs.NewSpan("serve." + endpoint),
	}
	tr.root.SetLabel("trace_id", id)
	w.Header().Set("traceparent", obs.Traceparent(id, tr.spanID))
	return tr
}

// finishTrace ends the root span, files the finished trace into the
// /tracez buffer, and emits the (sampled) access-log line.
func (s *Server) finishTrace(tr *reqTrace, endpoint string, status int) {
	if tr == nil {
		return
	}
	dur := tr.root.End()
	e := &obs.TraceEntry{
		TraceID:      tr.id,
		SpanID:       tr.spanID,
		ParentSpanID: tr.parent,
		Endpoint:     endpoint,
		Start:        tr.start,
		DurationSec:  dur.Seconds(),
		Status:       status,
		ModelVersion: tr.modelVer,
		BatchID:      tr.batchID,
		Degraded:     tr.degraded,
		Surviving:    tr.surviving,
		Error:        tr.errMsg,
		Root:         tr.root.Data(),
	}
	s.traces.Add(e)
	if s.accessLog != nil {
		s.accessLog.log(recordFromTrace(e), e.Degraded || e.Error != "" || status >= 500)
	}
}

// noteResult folds one job result into the trace: degradation state,
// survivors, and the dispatch batch the job rode in.
func (tr *reqTrace) noteResult(j *job, res *ScoreResult) {
	if tr == nil {
		return
	}
	if j != nil {
		if id := j.batchID.Load(); id > tr.batchID {
			tr.batchID = id
		}
	}
	if res == nil {
		return
	}
	if res.Degraded {
		tr.degraded = true
		tr.surviving = mergeSurvivors(tr.surviving, res.Surviving)
		wobsDegraded.Inc()
	}
	if res.Error != "" {
		tr.errMsg = res.Error
	}
}

// mergeSurvivors unions sorted survivor sets (batch requests may degrade
// several utterances differently).
func mergeSurvivors(a, b []string) []string {
	if len(a) == 0 {
		return append([]string(nil), b...)
	}
	seen := make(map[string]bool, len(a)+len(b))
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		seen[x] = true
	}
	out := make([]string, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// admit runs the checks every scoring request passes before decode:
// method, drain state, and model presence. It returns the model to score
// against, or nil after writing the response.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) *Model {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return nil
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return nil
	}
	// Chaos hook: error faults surface as 503 (bounded, well-formed
	// failures), delay faults model a slow handler.
	if err := faultinject.At("serve.handler"); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return nil
	}
	m := s.reg.Current()
	if m == nil {
		writeError(w, http.StatusServiceUnavailable, "no model loaded")
		return nil
	}
	return m
}

// submit admits one resolved utterance into the batcher and translates
// backpressure into HTTP semantics. span, when non-nil, becomes the
// job's trace node: resolution and queue wait record as children, and
// the batcher attaches batch-formation and per-front-end scoring spans.
func (s *Server) submit(ctx context.Context, m *Model, id string, req *ScoreRequest, span *obs.Span) (*job, int, error) {
	var rsp *obs.Span
	if span != nil {
		rsp = span.StartChild("resolve")
	}
	vectors, err := buildVectors(m, req)
	if rsp != nil {
		rsp.End()
	}
	if err != nil {
		var re *requestError
		if errors.As(err, &re) {
			return nil, http.StatusBadRequest, err
		}
		return nil, http.StatusInternalServerError, err
	}
	j := &job{
		ctx:      ctx,
		model:    m,
		id:       id,
		vectors:  vectors,
		result:   make(chan jobResult, 1),
		enqueued: time.Now(),
		span:     span,
	}
	if span != nil {
		j.queueSpan = span.StartChild("queue.wait")
	}
	if err := s.batcher.Submit(j); err != nil {
		if j.queueSpan != nil {
			j.queueSpan.SetLabel("error", err.Error())
			j.queueSpan.End()
		}
		switch {
		case errors.Is(err, ErrQueueFull):
			return nil, http.StatusTooManyRequests, err
		case errors.Is(err, ErrDraining):
			return nil, http.StatusServiceUnavailable, err
		default:
			return nil, http.StatusInternalServerError, err
		}
	}
	return j, 0, nil
}

// await blocks until the job completes or its deadline passes.
func await(ctx context.Context, j *job) (jobResult, error) {
	select {
	case res := <-j.result:
		return res, nil
	case <-ctx.Done():
		return jobResult{}, ctx.Err()
	}
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	m := s.admit(w, r)
	if m == nil {
		return
	}
	tr := s.startTrace(w, r, "score")
	defer func() { s.finishTrace(tr, "score", statusOf(w)) }()
	var jobSpan *obs.Span
	if tr != nil {
		tr.modelVer = m.Version
		jobSpan = tr.root
	}
	var req ScoreRequest
	var dsp *obs.Span
	if tr != nil {
		dsp = tr.root.StartChild("decode")
	}
	ok := DecodeBody(w, r, s.cfg.MaxBodyBytes, &req)
	if dsp != nil {
		dsp.End()
	}
	if !ok {
		return
	}
	// Cascade fast path: a confident tier-1 answer returns here without
	// touching the batcher or the SVM battery. Escalations (including
	// tier-1 faults) fall through to the heavy path unchanged, carrying
	// the outcome for the response.
	var casc *CascadeOutcome
	cascStart := time.Now()
	if s.cfg.Cascade.Enabled {
		var fast *ScoreResult
		var parent *obs.Span
		if tr != nil {
			parent = tr.root
		}
		casc, fast = s.tryCascade(m, &req, parent)
		if fast != nil {
			s.noteCascadeExit(time.Since(cascStart))
			resp := ScoreResponse{
				ModelVersion:      m.Version,
				ClusterGeneration: m.ClusterGeneration(),
				Languages:         m.Bundle.Languages,
				ScoreResult:       *fast,
			}
			if tr != nil {
				resp.TraceID = tr.id
			}
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	j, status, err := s.submit(ctx, m, req.ID, &req, jobSpan)
	if err != nil {
		if tr != nil {
			tr.errMsg = err.Error()
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, "%v", err)
		return
	}
	res, err := await(ctx, j)
	tr.noteResult(j, nil)
	if err != nil {
		if tr != nil {
			tr.errMsg = err.Error()
		}
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded: %v", err)
		return
	}
	if res.err != nil {
		if tr != nil {
			tr.errMsg = res.err.Error()
		}
		status := http.StatusInternalServerError
		if errors.Is(res.err, context.DeadlineExceeded) || errors.Is(res.err, context.Canceled) {
			status = http.StatusGatewayTimeout
		}
		writeError(w, status, "%v", res.err)
		return
	}
	var fsp *obs.Span
	if tr != nil {
		fsp = tr.root.StartChild("fuse")
	}
	result := AssembleResult(m, req.ID, res.scores, res.feErrs)
	if fsp != nil {
		fsp.End()
	}
	if casc != nil {
		result.Cascade = casc
		s.noteCascadeEscalate(time.Since(cascStart), result.Degraded)
	}
	s.observeAdapt(j, &result, res.scores)
	tr.noteResult(j, &result)
	resp := ScoreResponse{
		ModelVersion:      m.Version,
		ClusterGeneration: m.ClusterGeneration(),
		Languages:         m.Bundle.Languages,
		ScoreResult:       result,
	}
	if tr != nil {
		resp.TraceID = tr.id
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	m := s.admit(w, r)
	if m == nil {
		return
	}
	tr := s.startTrace(w, r, "batch")
	defer func() { s.finishTrace(tr, "batch", statusOf(w)) }()
	if tr != nil {
		tr.modelVer = m.Version
	}
	var req BatchRequest
	if !DecodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if len(req.Utterances) == 0 {
		writeError(w, http.StatusBadRequest, "batch names no utterances")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// Admit every utterance first (they coalesce into shared scoring
	// passes), then gather; per-utterance faults degrade that item only.
	// Each utterance gets its own "utt" child span, so a batch trace shows
	// the fan-out: queue wait and per-front-end scoring per utterance.
	jobs := make([]*job, len(req.Utterances))
	results := make([]ScoreResult, len(req.Utterances))
	cascOut := make([]*CascadeOutcome, len(req.Utterances))
	for i := range req.Utterances {
		u := &req.Utterances[i]
		var uttSpan *obs.Span
		if tr != nil {
			uttSpan = tr.root.StartChild("utt")
			uttSpan.SetLabel("id", u.ID)
		}
		// Cascade fast path, per utterance: a tier-1 exit finishes the
		// utterance without a batcher submit; escalations fall through
		// and carry their outcome onto the heavy result.
		if s.cfg.Cascade.Enabled {
			casc, fast := s.tryCascade(m, u, uttSpan)
			if fast != nil {
				s.noteCascadeExit(-1)
				results[i] = *fast
				if uttSpan != nil {
					uttSpan.End()
				}
				continue
			}
			cascOut[i] = casc
		}
		j, _, err := s.submit(ctx, m, u.ID, u, uttSpan)
		if err != nil {
			if uttSpan != nil {
				uttSpan.SetLabel("error", err.Error())
				uttSpan.End()
			}
			results[i] = ScoreResult{ID: u.ID, Error: err.Error()}
			tr.noteResult(nil, &results[i])
			continue
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		if j == nil {
			continue
		}
		res, err := await(ctx, j)
		tr.noteResult(j, nil)
		switch {
		case err != nil:
			results[i] = ScoreResult{ID: j.id, Error: err.Error()}
		case res.err != nil:
			results[i] = ScoreResult{ID: j.id, Error: res.err.Error()}
		default:
			var fsp *obs.Span
			if j.span != nil {
				fsp = j.span.StartChild("fuse")
			}
			results[i] = AssembleResult(m, j.id, res.scores, res.feErrs)
			if fsp != nil {
				fsp.End()
			}
			s.observeAdapt(j, &results[i], res.scores)
		}
		if cascOut[i] != nil {
			results[i].Cascade = cascOut[i]
			s.noteCascadeEscalate(-1, results[i].Degraded)
		}
		tr.noteResult(j, &results[i])
		if j.span != nil {
			j.span.End()
		}
	}
	resp := BatchResponse{
		ModelVersion:      m.Version,
		ClusterGeneration: m.ClusterGeneration(),
		Languages:         m.Bundle.Languages,
		Results:           results,
	}
	// Per-utterance degradation rolls up into the batch summary; the
	// per-utterance flags and survivor sets on Results stay authoritative
	// (one degraded utterance must not smear its batch-mates).
	for i := range results {
		if results[i].Degraded {
			resp.Degraded = true
			resp.DegradedCount++
		}
	}
	if tr != nil {
		resp.TraceID = tr.id
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	m := s.reg.Current()
	if m == nil {
		writeError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	// An open reload breaker means the process cannot pick up new models
	// (SIGHUP, cluster pushes, adapt promotions all route through it) —
	// not ready for orchestration purposes even though in-flight scoring
	// still works against the current model.
	if s.reloader != nil && s.reloader.breakerOpen() {
		writeError(w, http.StatusServiceUnavailable, "reload circuit breaker open")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ready",
		"model_version": m.Version,
		"loaded_at":     m.LoadedAt.UTC().Format(time.RFC3339),
		"front_ends":    m.Manifest.FrontEnds,
		"languages":     len(m.Bundle.Languages),
		"fusion":        m.Bundle.Fusion != nil,
	})
}

// handleMetricsz serves the process metrics in two formats, negotiated
// by the ?format query parameter (JSON by default, Prometheus text
// exposition for ?format=prom / ?format=prometheus). The JSON view is
// the metrics-only report — counters, gauges, histograms, and the
// 1m/5m rolling windows — without the per-run span dump (that lives at
// /tracez).
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	rep := obs.Snapshot().MetricsOnly()
	rep.Meta = map[string]string{"service": "lred"}
	if m := s.reg.Current(); m != nil {
		rep.Meta["model_version"] = fmt.Sprintf("%d", m.Version)
		rep.Meta["front_ends"] = strings.Join(m.Manifest.FrontEnds, ",")
		rank, prec := m.CompressionSummary()
		rep.Meta["model_precision"] = prec
		if rank > 0 {
			rep.Meta["model_rank"] = fmt.Sprintf("%d", rank)
		}
	}
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rep.WritePrometheus(w)
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		rep.WriteJSON(w)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json or prom)", r.URL.Query().Get("format"))
	}
}

// handleTracez dumps the bounded trace buffer: recent requests, the
// slowest retained, and the degraded/errored exemplars (always kept).
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.traces.Snapshot())
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	m, err := s.reloader.Reload()
	if err != nil {
		if errors.Is(err, ErrBreakerOpen) {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.Reload.Cooldown/time.Second)+1))
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "reload failed (previous model still active): %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"model_version": m.Version,
		"manifest":      m.Manifest,
	})
}

// Run serves on l until ctx is cancelled (the daemon wires SIGTERM/SIGINT
// into that), then drains gracefully: new scoring work is rejected with
// 503, every queued job is finished and delivered, and open connections
// close — all within DrainTimeout. A clean drain returns nil.
func (s *Server) Run(ctx context.Context, l net.Listener) error {
	return s.RunHandler(ctx, l, s.mux)
}

// RunHandler is Run with a caller-supplied handler tree — a wrapper
// that extends this server's endpoints (the cluster shard worker mounts
// /-/bundle and a generation check in front of the scoring handlers)
// while keeping the server's drain discipline: on ctx cancellation the
// queue finishes, new scoring work gets 503, and connections close
// within DrainTimeout.
func (s *Server) RunHandler(ctx context.Context, l net.Listener, h http.Handler) error {
	hs := &http.Server{Handler: h}
	if s.adapter != nil {
		actx, acancel := context.WithCancel(ctx)
		defer acancel()
		go s.adapter.Run(actx)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(l) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	return s.drain(hs)
}

func (s *Server) drain(hs *http.Server) error {
	s.draining.Store(true)
	obs.SetGauge("serve.draining", 1)
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	// Finish the queue first: handlers blocked in await are the open
	// connections Shutdown waits on, and they can only finish once the
	// dispatcher delivers their results.
	if err := s.batcher.Drain(ctx); err != nil {
		hs.Close()
		return fmt.Errorf("serve: drain: %w", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	return nil
}
