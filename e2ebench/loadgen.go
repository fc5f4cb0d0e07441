package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Endpoints of the SOAK-1 mix, in mix order (trigger 4 : poll 4 :
// metrics 1 : trace 1).
const (
	epTrigger = iota
	epPoll
	epMetrics
	epTrace
	numEndpoints
)

var epNames = [numEndpoints]string{"trigger_denm", "request_denm", "metrics", "trace"}

// mixWeights is the SOAK-1 request mix.
var mixWeights = [numEndpoints]int{4, 4, 1, 1}

// causeCodes are the DENM cause codes the generator triggers with
// (roadworks, stationary vehicle, collision risk, dangerous situation).
var causeCodes = []int{3, 94, 97, 99}

// planned is one request of a schedule, fixed before the run starts.
type planned struct {
	due     time.Duration // offset from the phase start
	ep      int
	station uint32
	body    []byte // trigger payload
	cause   int
}

// makeSchedule draws an open-loop schedule of n requests at the given
// mean rate: Poisson arrivals, the exact SOAK-1 mix in seeded random
// order, uniformly drawn stations. n must be a multiple of 10 so the
// mix is exact.
func makeSchedule(rng *rand.Rand, n int, rate float64, firstStation uint32, stations int) []planned {
	eps := make([]int, 0, n)
	for ep, w := range mixWeights {
		for i := 0; i < n*w/10; i++ {
			eps = append(eps, ep)
		}
	}
	rng.Shuffle(len(eps), func(i, j int) { eps[i], eps[j] = eps[j], eps[i] })
	out := make([]planned, len(eps))
	var t time.Duration
	for i, ep := range eps {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		p := planned{due: t, ep: ep, station: firstStation + uint32(rng.Intn(stations))}
		if ep == epTrigger {
			p.cause = causeCodes[rng.Intn(len(causeCodes))]
			p.body = triggerBody(p.cause, rng)
		}
		out[i] = p
	}
	return out
}

// triggerBody is a trigger_denm payload with a jittered event
// position, so LDM shards see distinct events.
func triggerBody(cause int, rng *rand.Rand) []byte {
	return []byte(fmt.Sprintf(`{"causeCode":%d,"subCauseCode":0,"latitude":%.6f,"longitude":%.6f}`,
		cause, 41.1780+rng.Float64()*0.001, -8.6080+rng.Float64()*0.001))
}

// outcome of one request.
type reqOutcome struct {
	late    time.Duration // dispatcher wake-up after the due time
	latency time.Duration // response complete − due time
	service time.Duration // response complete − sent
	status  int
	err     error
	body    []byte
}

// phaseResult is one schedule's outcomes, index-aligned with it.
type phaseResult struct {
	sched    []planned
	out      []reqOutcome
	wall     time.Duration // first due time → last response
	perEP    [numEndpoints]int
	failures int
}

// latencies returns the due-time latencies in ms.
func (r *phaseResult) latencies() []float64 {
	xs := make([]float64, len(r.out))
	for i, o := range r.out {
		xs[i] = ms(o.latency)
	}
	return xs
}

// endpointLatencies returns the due-time latencies in ms of the
// requests to one endpoint.
func (r *phaseResult) endpointLatencies(ep int) []float64 {
	var xs []float64
	for i, o := range r.out {
		if r.sched[i].ep == ep {
			xs = append(xs, ms(o.latency))
		}
	}
	return xs
}

func (r *phaseResult) lateness() []float64 {
	xs := make([]float64, len(r.out))
	for i, o := range r.out {
		xs[i] = ms(o.late)
	}
	return xs
}

// newClient returns an HTTP client that opens at most conns
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// runSchedule executes a schedule open loop: a dispatcher enqueues each
// request at its due time whatever the state of earlier ones, and
// conns workers, one connection each, send them in order. Every
// request is timed from its due time. Requests still in flight when
// the schedule ends are awaited, never cancelled.
func runSchedule(client *http.Client, base string, sched []planned, conns int, spans *spanRecorder, parent int64) *phaseResult {
	res := &phaseResult{sched: sched, out: make([]reqOutcome, len(sched))}
	// Sized to the schedule so the dispatcher never blocks: a slow
	// daemon makes requests queue here, not the schedule slip.
	queue := make(chan int, len(sched))
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range queue {
				p := sched[i]
				due := start.Add(p.due)
				sent := time.Now()
				status, body, err := doRequest(client, base, p)
				done := time.Now()
				o := &res.out[i]
				o.latency, o.service, o.status, o.err, o.body = done.Sub(due), done.Sub(sent), status, err, body
				spans.add("openc2x."+epNames[p.ep], parent, sent, done.Sub(sent), lane)
			}
		}(w + 1)
	}
	for i, p := range sched {
		due := start.Add(p.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.out[i].late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	res.wall = time.Since(start)
	for i, o := range res.out {
		res.perEP[sched[i].ep]++
		if o.err != nil || o.status/100 != 2 {
			res.failures++
		}
	}
	return res
}

// doRequest issues one planned request and reads the whole response.
func doRequest(client *http.Client, base string, p planned) (int, []byte, error) {
	var req *http.Request
	var err error
	switch p.ep {
	case epTrigger:
		req, err = http.NewRequest(http.MethodPost, fmt.Sprintf("%s/stations/%d/trigger_denm", base, p.station), bytes.NewReader(p.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	case epPoll:
		req, err = http.NewRequest(http.MethodPost, fmt.Sprintf("%s/stations/%d/request_denm", base, p.station), nil)
	case epMetrics:
		req, err = http.NewRequest(http.MethodGet, base+"/metrics", nil)
	case epTrace:
		req, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/stations/%d/trace", base, p.station), nil)
	}
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if p.ep == epMetrics || p.ep == epTrace {
		body = nil // only trigger and poll bodies are checked
	}
	return resp.StatusCode, body, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
