package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// service-mux make-up. The low phase stays under the mailbox bound so
// no DENM is evicted; the high phase runs after every mailbox is full.
const (
	svcStations     = 500
	svcFirstStation = 1001
	mailboxBound    = 256
	lowRate         = 60.0 // req/s
	highRate        = 70.0
	fillTriggers    = mailboxBound + 1 // from distinct origins: every mailbox ends full
	svcSetups       = 7                // daemon starts timed for setup_s
)

// svcSizes derives the request counts from the run length: the low
// phase is capped by the mailbox bound, the high phase holds enough
// requests for ten samples beyond its p99.
func svcSizes(seconds int) (nLow, nHigh int) {
	nLow = 600 // 240 triggers < 256
	nHigh = roundTen(math.Max(1000, highRate*float64(seconds)))
	return
}

func roundTen(x float64) int { return int(math.Ceil(x/10)) * 10 }

// svcRun is one pass over the service-mux workload.
type svcRun struct {
	setups   []float64 // seconds, every daemon start of the pass
	liveHeap float64   // MB after a forced GC at the end of set-up
	low      *phaseResult
	high     *phaseResult
	wall     time.Duration
	cpu      float64 // daemon lifetime CPU
	allocMB  float64
	allocsK  float64
	gcCycles float64
	counters map[string]float64 // final /metrics scrape (labels folded in)
	drained  int
}

// svcConns is the generator's connection budget: one per CPU.
func svcConns() int { return runtime.NumCPU() }

func runService(c *runCtx) (*workloadResult, error) {
	r, err := servicePass(c)
	if err != nil {
		return nil, err
	}
	nLow, nHigh := svcSizes(c.seconds)
	res := &workloadResult{attempted: nLow + nHigh, failed: r.low.failures + r.high.failures}
	// attempt_ms is the chain's own HTTP step, a trigger_denm, timed
	// under capacity. In the high phase queueing turns a slow spell of
	// the host into a latency several times as long.
	lowLat, highLat := r.low.latencies(), r.high.latencies()
	res.e2e = map[string]float64{
		"setup_s":      median(r.setups),
		"wall_s":       r.wall.Seconds(),
		"cpu_s":        r.cpu,
		"attempt_ms":   median(r.low.endpointLatencies(epTrigger)),
		"alloc_mb":     r.allocMB,
		"allocs_k":     r.allocsK,
		"live_heap_mb": r.liveHeap,
	}
	late := append(r.low.lateness(), r.high.lateness()...)
	res.layer = map[string]float64{
		"openc2x.requests":        float64(nLow + nHigh),
		"openc2x.deliveries":      r.counters["openc2x_denms_received_total"],
		"openc2x.mailbox_dropped": r.counters["openc2x_mailbox_dropped_total"],
		"gc.cycles":               r.gcCycles,
		"openc2x.queue_depth_max": r.counters["max:overload_queue_depth_max"],
		"openc2x.inflight_max":    r.counters["max:overload_inflight_max"],
		"gen.late_ms":             percentile(late, 0.99),
		"openc2x.lat_p50_ms.low":  percentile(lowLat, 0.50),
		"openc2x.lat_p99_ms.low":  percentile(lowLat, 0.99),
		"openc2x.lat_p50_ms.high": percentile(highLat, 0.50),
		"openc2x.lat_p99_ms.high": percentile(highLat, 0.99),
	}
	res.wall = r.wall
	if c.spans != nil {
		for ep := 0; ep < numEndpoints; ep++ {
			res.layer["openc2x."+shortEP(ep)+"_ms"] = c.spans.medianMS("openc2x." + epNames[ep])
		}
	}
	return res, nil
}

func shortEP(ep int) string {
	return [...]string{"trigger", "poll", "metrics", "trace"}[ep]
}

// servicePass times daemon start-up, then on a fresh daemon runs the
// low phase, fills every mailbox, runs the high phase and checks the
// daemon's books against the generator's.
func servicePass(c *runCtx) (r *svcRun, err error) {
	r = &svcRun{}
	nLow, nHigh := svcSizes(c.seconds)
	rng := rand.New(rand.NewSource(c.seed))
	lowSched := makeSchedule(rng, nLow, lowRate, svcFirstStation, svcStations)
	highSched := makeSchedule(rng, nHigh, highRate, svcFirstStation, svcStations)
	fillRNG := rand.New(rand.NewSource(c.seed ^ 0x5eed))

	for i := 1; i < svcSetups; i++ {
		_, end := c.spans.begin("openc2x.daemon_start", 0, 0)
		d, err := startDaemon(c.rsud, svcStations)
		end()
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, d.setup.Seconds())
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	_, end := c.spans.begin("openc2x.daemon_start", 0, 0)
	d, err := startDaemon(c.rsud, svcStations)
	end()
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := d.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	r.setups = append(r.setups, d.setup.Seconds())
	m0, err := d.memStats(true)
	if err != nil {
		return nil, err
	}
	r.liveHeap = m0["HeapAlloc"] / 1e6

	conns := svcConns()
	client := newClient(conns)
	defer client.CloseIdleConnections()

	var profErr error
	var profWG sync.WaitGroup
	if c.traced {
		if c.allocProfiles[0], err = d.get("/debug/pprof/allocs"); err != nil {
			return nil, err
		}
		// The CPU profile covers both phases and the fill between them.
		secs := int(math.Ceil((lowSched[len(lowSched)-1].due + highSched[len(highSched)-1].due).Seconds())) + 3
		profWG.Add(1)
		go func() {
			defer profWG.Done()
			c.cpuProfile, profErr = d.get(fmt.Sprintf("/debug/pprof/profile?seconds=%d", secs))
		}()
		time.Sleep(100 * time.Millisecond) // let the profiler start
	}

	sent := map[[2]uint32]int{} // (origin, seq) → cause code
	var polled []denmSummary
	triggersOK := 0

	phase := func(name string, sched []planned) (*phaseResult, error) {
		ms0, err := d.memStats(false)
		if err != nil {
			return nil, err
		}
		id, end := c.spans.begin("openc2x.phase_"+name, 0, 0)
		ph := runSchedule(client, d.base, sched, conns, c.spans, id)
		end()
		ms1, err := d.memStats(false)
		if err != nil {
			return nil, err
		}
		r.wall += ph.wall
		lat := ph.latencies()
		c.logf("phase of %d requests: latency p50 %.2f p99 %.1f ms, generator late p99 %.2f ms, service medians %s",
			len(sched), percentile(lat, 0.5), percentile(lat, 0.99), percentile(ph.lateness(), 0.99), ph.serviceByEndpoint())
		r.allocMB += (ms1["TotalAlloc"] - ms0["TotalAlloc"]) / 1e6
		r.allocsK += (ms1["Mallocs"] - ms0["Mallocs"]) / 1e3
		r.gcCycles += ms1["NumGC"] - ms0["NumGC"]
		for i, o := range ph.out {
			if err := ph.collect(i, o, sent, &polled, &triggersOK); err != nil {
				return nil, err
			}
		}
		return ph, nil
	}

	if r.low, err = phase("low", lowSched); err != nil {
		return nil, err
	}
	if err := fill(client, d.base, fillRNG, sent, &triggersOK); err != nil {
		return nil, err
	}
	if r.high, err = phase("high", highSched); err != nil {
		return nil, err
	}
	if c.traced {
		profWG.Wait()
		if profErr != nil {
			return nil, profErr
		}
		if c.allocProfiles[1], err = d.get("/debug/pprof/allocs"); err != nil {
			return nil, err
		}
	}

	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	if r.counters, err = foldMetrics(body); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	r.drained = d.drained
	r.cpu = d.cpuSeconds()

	if err := checkService(r, sent, polled, triggersOK); err != nil {
		return nil, err
	}
	if r.low.failures+r.high.failures > 0 {
		return nil, fmt.Errorf("service-mux: %d requests failed", r.low.failures+r.high.failures)
	}

	return r, nil
}

// denmSummary is the part of a polled DENM the checks read.
type denmSummary struct {
	Origin uint32 `json:"originatingStationID"`
	Seq    uint16 `json:"sequenceNumber"`
	Cause  int    `json:"causeCode"`
}

// collect books one response: trigger IDs with the cause sent, polled
// DENMs for the cause check.
func (ph *phaseResult) collect(i int, o reqOutcome, sent map[[2]uint32]int, polled *[]denmSummary, triggersOK *int) error {
	if o.err != nil || o.status/100 != 2 {
		return nil // counted as a failure by runSchedule
	}
	switch ph.sched[i].ep {
	case epTrigger:
		id, err := parseTrigger(o.body)
		if err != nil {
			return err
		}
		sent[id] = ph.sched[i].cause
		*triggersOK++
	case epPoll:
		var batch []denmSummary
		if err := json.Unmarshal(o.body, &batch); err != nil {
			return fmt.Errorf("service-mux: poll response: %w", err)
		}
		*polled = append(*polled, batch...)
	}
	ph.out[i].body = nil
	return nil
}

func parseTrigger(body []byte) ([2]uint32, error) {
	var tr struct {
		OK     bool   `json:"ok"`
		Origin uint32 `json:"originatingStationID"`
		Seq    uint16 `json:"sequenceNumber"`
	}
	if err := json.Unmarshal(body, &tr); err != nil || !tr.OK {
		return [2]uint32{}, fmt.Errorf("service-mux: trigger response %q: %v", body, err)
	}
	return [2]uint32{tr.Origin, uint32(tr.Seq)}, nil
}

// fill sends one trigger from each of fillTriggers distinct stations,
// so every hosted station's mailbox receives at least mailboxBound
// DENMs and ends full.
func fill(client *http.Client, base string, rng *rand.Rand, sent map[[2]uint32]int, triggersOK *int) error {
	for i := 0; i < fillTriggers; i++ {
		cause := causeCodes[rng.Intn(len(causeCodes))]
		p := planned{ep: epTrigger, station: svcFirstStation + uint32(i), cause: cause, body: triggerBody(cause, rng)}
		status, body, err := doRequest(client, base, p)
		if err != nil || status/100 != 2 {
			return fmt.Errorf("service-mux: fill trigger %d: status %d: %v", i, status, err)
		}
		id, err := parseTrigger(body)
		if err != nil {
			return err
		}
		sent[id] = cause
		*triggersOK++
	}
	return nil
}

// foldMetrics flattens a /metrics JSON scrape: counters summed over
// labels by name, per-endpoint request counters as
// "name{endpoint}", and gauges' maximum over labels as "max:name".
func foldMetrics(body []byte) (map[string]float64, error) {
	var snap struct {
		Counters []struct {
			Name   string `json:"name"`
			Labels []struct {
				Key, Value string
			} `json:"labels"`
			Value float64 `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"gauges"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("service-mux: /metrics: %w", err)
	}
	out := map[string]float64{}
	for _, c := range snap.Counters {
		out[c.Name] += c.Value
		for _, l := range c.Labels {
			if l.Key == "endpoint" {
				out[c.Name+"{"+l.Value+"}"] += c.Value
			}
		}
	}
	for _, g := range snap.Gauges {
		out["max:"+g.Name] = math.Max(out["max:"+g.Name], g.Value)
	}
	return out, nil
}

// checkService reconciles the daemon's books with the generator's.
func checkService(r *svcRun, sent map[[2]uint32]int, polled []denmSummary, triggersOK int) error {
	var errs []error
	// Per-endpoint request counters: the generator's tally plus the
	// benchmark's own calls (the fill triggers and the final scrape,
	// which counts itself).
	own := [numEndpoints]int{epTrigger: fillTriggers, epMetrics: 1}
	for ep := 0; ep < numEndpoints; ep++ {
		want := r.low.perEP[ep] + r.high.perEP[ep] + own[ep]
		got := r.counters["overload_requests_total{"+epNames[ep]+"}"]
		if got != float64(want) {
			errs = append(errs, fmt.Errorf("%s: daemon counted %.0f requests, generator+own sent %d", epNames[ep], got, want))
		}
	}
	received := r.counters["openc2x_denms_received_total"]
	if want := float64(triggersOK * (svcStations - 1)); received != want {
		errs = append(errs, fmt.Errorf("openc2x_denms_received_total = %.0f, want %d triggers × %d = %.0f",
			received, triggersOK, svcStations-1, want))
	}
	dropped := r.counters["openc2x_mailbox_dropped_total"]
	if got := float64(len(polled)) + dropped + float64(r.drained); got != received {
		errs = append(errs, fmt.Errorf("DENMs polled %d + dropped %.0f + drained %d = %.0f, want received %.0f",
			len(polled), dropped, r.drained, got, received))
	}
	bad := 0
	for _, p := range polled {
		if cause, ok := sent[[2]uint32{p.Origin, uint32(p.Seq)}]; !ok || cause != p.Cause {
			bad++
		}
	}
	if bad > 0 {
		errs = append(errs, fmt.Errorf("%d of %d polled DENMs carry a cause code the generator did not send for that action", bad, len(polled)))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("service-mux check: %w", err)
	}
	return nil
}

// serviceByEndpoint summarises median service time per endpoint.
func (ph *phaseResult) serviceByEndpoint() string {
	var by [numEndpoints][]float64
	for i, o := range ph.out {
		by[ph.sched[i].ep] = append(by[ph.sched[i].ep], ms(o.service))
	}
	out := ""
	for ep, xs := range by {
		out += fmt.Sprintf("%s=%.2fms ", shortEP(ep), median(xs))
	}
	return out
}
