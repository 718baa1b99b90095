package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
)

// ErrBreakerOpen marks a shard RPC rejected without touching the
// network because the peer's circuit breaker is open.
var ErrBreakerOpen = errors.New("cluster: peer circuit breaker open")

// GenerationHeader carries the fleet generation a scoring RPC was
// routed for; workers reject mismatches with 409 (see worker.go).
const GenerationHeader = "X-Cluster-Generation"

// peer is the coordinator's client for one shard worker: base URL,
// assigned front-ends, circuit breaker, and per-peer metrics. The
// metric names are flat obs keys suffixed by the peer address —
// cluster.peer.<addr>.up, cluster.peer.<addr>.breaker_open,
// cluster.peer.<addr>.failures, cluster.rpc.<addr>.seconds — which is
// what lrestat's shards panel reads off /metricsz.
type peer struct {
	addr   string   // host:port (metric and log key)
	base   string   // http://host:port
	fes    []string // assigned front-end names, bundle order
	client *http.Client
	br     *breaker
	clock  Clock

	// ackedGen is the generation the worker last acked an install for
	// (0 before the first push); the repair loop keys re-pushes off it.
	ackedGen atomic.Int64

	up       *obs.Gauge
	brOpen   *obs.Gauge
	failures *obs.Counter
	rpcHist  *obs.Histogram
	rpcWin   *obs.Window
}

func newPeer(addr string, pol BreakerPolicy, transport http.RoundTripper, clock Clock) *peer {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	key := strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://")
	return &peer{
		addr:     key,
		base:     base,
		client:   &http.Client{Transport: transport},
		br:       newBreaker(pol),
		clock:    clock,
		up:       obs.GetGauge("cluster.peer." + key + ".up"),
		brOpen:   obs.GetGauge("cluster.peer." + key + ".breaker_open"),
		failures: obs.GetCounter("cluster.peer." + key + ".failures"),
		rpcHist:  obs.GetHistogram("cluster.rpc." + key + ".seconds"),
		rpcWin:   obs.GetWindow("cluster.rpc." + key + ".seconds"),
	}
}

// status snapshots the peer for /clusterz and the shards panel.
func (p *peer) status() PeerStatus {
	return PeerStatus{
		Addr:       p.addr,
		FrontEnds:  p.fes,
		Up:         p.up.Value() > 0,
		Breaker:    p.br.state(p.clock.Now()),
		Failures:   p.failures.Value(),
		Generation: p.ackedGen.Load(),
	}
}

// rpc runs one POST against the peer with breaker gating, the
// cluster.rpc.<addr> fault-injection site, and per-peer latency/health
// metrics. out, when non-nil, receives the decoded 2xx JSON body.
func (p *peer) rpc(ctx context.Context, path string, hdr http.Header, body []byte, out any) error {
	if !p.br.allow(p.clock.Now()) {
		// Failing fast is the point of the breaker: the shard degrades
		// without a network timeout. Not a recorded failure — the breaker
		// state only moves on real probe outcomes.
		return ErrBreakerOpen
	}
	err := p.do(ctx, path, hdr, body, out)
	if err != nil {
		p.failures.Inc()
		p.up.Set(0)
		if p.br.failure(p.clock.Now()) {
			obs.Inc("cluster.breaker.trips")
		}
		if p.br.state(p.clock.Now()) == BreakerOpen {
			p.brOpen.Set(1)
		}
		return err
	}
	p.br.success()
	p.up.Set(1)
	p.brOpen.Set(0)
	return nil
}

func (p *peer) do(ctx context.Context, path string, hdr http.Header, body []byte, out any) error {
	// Chaos hook: an injected error fails the RPC before it leaves the
	// process (dead peer), a delay stalls it into its shard deadline
	// (slow peer). Site per peer; plans usually use cluster.rpc.*.
	if err := faultinject.At("cluster.rpc." + p.addr); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	t0 := time.Now()
	resp, err := p.client.Do(req)
	d := time.Since(t0).Seconds()
	p.rpcHist.Observe(d)
	p.rpcWin.Observe(d)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("shard status %d: %s", resp.StatusCode, e.Error)
		}
		return fmt.Errorf("shard status %d", resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// score runs one /v1/score RPC routed for generation gen; traceparent,
// when non-empty, propagates the coordinator's trace across the hop.
// The generation echoed in the response is re-checked so a worker that
// hot-swapped between routing and admission degrades this shard instead
// of silently contributing scores from another generation.
func (p *peer) score(ctx context.Context, gen int64, traceparent string, req *serve.ScoreRequest) (*serve.ScoreResponse, error) {
	body, err := serve.MarshalScoreRequest(req)
	if err != nil {
		return nil, err
	}
	var out serve.ScoreResponse
	if err := p.rpc(ctx, "/v1/score", p.headers(gen, traceparent), body, &out); err != nil {
		return nil, err
	}
	if out.ClusterGeneration != gen {
		return nil, fmt.Errorf("shard answered for generation %d, routed for %d", out.ClusterGeneration, gen)
	}
	return &out, nil
}

// batch runs one /v1/score/batch RPC (same contract as score).
func (p *peer) batch(ctx context.Context, gen int64, traceparent string, req *serve.BatchRequest) (*serve.BatchResponse, error) {
	body, err := serve.MarshalBatchRequest(req)
	if err != nil {
		return nil, err
	}
	var out serve.BatchResponse
	if err := p.rpc(ctx, "/v1/score/batch", p.headers(gen, traceparent), body, &out); err != nil {
		return nil, err
	}
	if out.ClusterGeneration != gen {
		return nil, fmt.Errorf("shard answered for generation %d, routed for %d", out.ClusterGeneration, gen)
	}
	if len(out.Results) != len(req.Utterances) {
		return nil, fmt.Errorf("shard returned %d results for %d utterances", len(out.Results), len(req.Utterances))
	}
	return &out, nil
}

// push installs a shard bundle on the worker and records the acked
// generation. Distribution retries with backoff (the reload-policy
// idiom) because a push races worker startup; the breaker still gates
// and observes each attempt.
func (p *peer) push(ctx context.Context, m persist.Manifest, sealed []byte, retries int, backoff time.Duration) (*bundleAck, error) {
	body, err := json.Marshal(&bundlePush{Manifest: m, BundleB64: base64.StdEncoding.EncodeToString(sealed)})
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		var ack bundleAck
		lastErr = p.rpc(ctx, "/-/bundle", nil, body, &ack)
		if lastErr == nil {
			if ack.Generation != m.ClusterGeneration {
				return nil, fmt.Errorf("worker %s acked generation %d, pushed %d", p.addr, ack.Generation, m.ClusterGeneration)
			}
			p.ackedGen.Store(ack.Generation)
			return &ack, nil
		}
		if attempt >= retries || ctx.Err() != nil {
			return nil, lastErr
		}
		obs.Inc("cluster.distribute.retries")
		p.clock.Sleep(backoff)
		backoff *= 2
	}
}

func (p *peer) headers(gen int64, traceparent string) http.Header {
	h := make(http.Header, 2)
	h.Set(GenerationHeader, fmt.Sprintf("%d", gen))
	if traceparent != "" {
		h.Set("traceparent", traceparent)
	}
	return h
}
