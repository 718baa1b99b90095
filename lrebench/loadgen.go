package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator is open loop: arrivals follow a fixed schedule at a
// constant rate whether or not earlier requests have finished, and every
// latency is timed from the request's due time, so a stalled server is
// charged for the wait it imposes on later arrivals. Arrivals are handed
// to a fixed set of connections (one HTTP/1.1 keep-alive connection per
// sender); when all are busy, arrivals queue in the generator, and that
// queueing counts as latency.

// sent is one request's record within a step.
type sent struct {
	utt     int           // index into the workload's utterances
	due     time.Time     // scheduled send time
	lag     time.Duration // how late the scheduler handed it to a sender
	done    time.Time
	status  int
	err     error
	body    []byte
	skipped bool // abandoned backlog: due but never sent
}

// generator owns the sender connections to one scoring endpoint: one per
// CPU.
type generator struct {
	url     string
	clients []*http.Client
}

func newGenerator(url string) *generator {
	g := &generator{url: url}
	for i := 0; i < runtime.NumCPU(); i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: deadlineMs * time.Millisecond,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// post sends one pre-marshalled body and reads the whole response.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// stepRun is one step's raw records.
type stepRun struct {
	rate float64
	recs []sent
}

// run replays utts (indices into bodies, cycled) at rate for dur and
// returns every record. Nothing but sending and timing happens on the
// send path: bodies are marshalled beforehand and responses are checked
// by the caller after the step.
func (g *generator) run(bodies [][]byte, utts []int, next *int, rate float64, dur time.Duration) stepRun {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	recs := make([]sent, n)
	for i := range recs {
		recs[i].utt = utts[*next%len(utts)]
		*next++
	}
	queue := make(chan int, n) // sized to the number of sends: the scheduler never blocks
	var abandon atomic.Bool
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range queue {
				r := &recs[i]
				if abandon.Load() {
					r.skipped = true
					continue
				}
				r.status, r.body, r.err = post(c, g.url, bodies[r.utt])
				r.done = time.Now()
			}
		}(c)
	}
	start := time.Now().Add(2 * time.Millisecond)
	interval := float64(time.Second) / rate
	for i := range recs {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		recs[i].due = due
		recs[i].lag = time.Since(due)
		queue <- i
	}
	close(queue)
	// Arrivals still queued after the grace period are abandoned: the step
	// has already failed its backlog criterion, and sending them would only
	// delay the next step.
	end := start.Add(dur + drainGraceMs*time.Millisecond)
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(time.Until(end)):
		abandon.Store(true)
		<-finished
	}
	return stepRun{rate: rate, recs: recs}
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
