package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"itsbed/internal/experiments"
)

// city-1k make-up: SCALE-1 at one density.
const (
	cityVehicles      = 1000
	cityRSUs          = 4
	citySimTime       = time.Second
	citySetups        = 3
	cityRunsPerSecond = 0.2 // one density run takes ~6.5 s on a 2 vCPU Xeon VM
)

func cityOptions(base int64, simTime time.Duration) experiments.CityOptions {
	return experiments.CityOptions{
		BaseSeed: base,
		Stations: []int{cityVehicles},
		RSUs:     cityRSUs,
		Duration: simTime,
		Workers:  1,
	}
}

func runCity(c *runCtx) (*workloadResult, error) {
	base := baseSeed(c.seed)
	// Set-up: the city assembled and started with (next to) zero
	// simulated time.
	var setups []float64
	for i := 0; i < citySetups; i++ {
		_, end := c.spans.begin("campaign.city_assembly", 0, 0)
		t0 := time.Now()
		if _, err := experiments.CitySweep(cityOptions(base+int64(i), time.Nanosecond)); err != nil {
			return nil, fmt.Errorf("city set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		end()
	}
	live, err := cityLiveHeapMB(base)
	if err != nil {
		return nil, err
	}

	runs := int(math.Max(1, math.Round(cityRunsPerSecond*float64(c.seconds))))
	if err := c.profStart(); err != nil {
		return nil, err
	}
	m := startMeter()
	var rows []experiments.CityRow
	var perRun []float64
	for i := 0; i < runs; i++ {
		_, end := c.spans.begin("campaign.city_run", 0, 0)
		t0 := time.Now()
		r, err := experiments.CitySweep(cityOptions(base+int64(i)*7, citySimTime))
		perRun = append(perRun, ms(time.Since(t0)))
		end()
		if err != nil {
			return nil, fmt.Errorf("city run: %w", err)
		}
		rows = append(rows, r...)
	}
	mt := m.stop()
	if err := c.profStop(); err != nil {
		return nil, err
	}

	var sent, dlvd, lost, culled uint64
	for _, r := range rows {
		if err := checkCity(r); err != nil {
			return nil, err
		}
		sent, dlvd, lost, culled = sent+r.FramesSent, dlvd+r.FramesDelivered, lost+r.FramesLost, culled+r.FramesCulled
	}
	res := &workloadResult{attempted: runs, wall: mt.wall}
	res.e2e = map[string]float64{
		"setup_s":      median(setups),
		"wall_s":       mt.wall.Seconds(),
		"cpu_s":        mt.cpu,
		"attempt_ms":   median(perRun),
		"alloc_mb":     mt.allocMB,
		"allocs_k":     mt.allocsK,
		"live_heap_mb": live,
	}
	rx := dlvd + lost - culled
	stations := uint64(cityVehicles + cityRSUs)
	res.layer = map[string]float64{
		"radio.frames_sent":   float64(sent),
		"radio.rx_evaluated":  float64(rx),
		"radio.frames_culled": float64(culled),
		"gc.cycles":           mt.gcCycles,
		"radio.decode_ratio":  float64(dlvd) / float64(rx),
		"radio.cull_ratio":    float64(culled) / float64(sent*(stations-1)),
	}
	return res, nil
}

// checkCity holds one density run to EN 302 637-2 and to the medium's
// frame accounting.
func checkCity(r experiments.CityRow) error {
	var errs []error
	if r.TxPerStation < 1 || r.TxPerStation > 10 {
		errs = append(errs, fmt.Errorf("mean tx rate %.3f Hz per station outside the 1–10 Hz CAM range", r.TxPerStation))
	}
	sum := 0
	for _, n := range r.DCCStates {
		sum += n
	}
	if sum != cityVehicles {
		errs = append(errs, fmt.Errorf("DCC states %v sum to %d, want %d vehicles", r.DCCStates, sum, cityVehicles))
	}
	if r.MeanCBR < 0 || r.MeanCBR > 1 || math.IsNaN(r.MeanCBR) {
		errs = append(errs, fmt.Errorf("mean CBR %.4f outside [0, 1]", r.MeanCBR))
	}
	n := uint64(cityVehicles + cityRSUs)
	ceiling := r.FramesSent * (n - 1)
	got := r.FramesDelivered + r.FramesLost
	switch {
	case got > ceiling:
		errs = append(errs, fmt.Errorf("delivered %d + lost %d exceed sent %d × %d", r.FramesDelivered, r.FramesLost, r.FramesSent, n-1))
	case ceiling-got > n*(n-1):
		errs = append(errs, fmt.Errorf("delivered + lost fall %d short of sent × %d, more than one frame on air per station", ceiling-got, n-1))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("city-1k check: %w", err)
	}
	return nil
}

// cityLiveHeapMB estimates the live heap the assembled city holds.
// CitySweep drops the city when it returns, so the heap is sampled
// while it runs: with the GC percent at 1 the collector marks the
// live heap every few hundred kilobytes, and the largest live heap it
// reports, less the one before the call, is the city's state.
func cityLiveHeapMB(base int64) (float64, error) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtime.GC()
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	old := debug.SetGCPercent(1)
	defer debug.SetGCPercent(old)
	var peak uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	_, err := experiments.CitySweep(cityOptions(base, time.Nanosecond))
	close(stop)
	wg.Wait()
	if err != nil {
		return 0, fmt.Errorf("city live heap: %w", err)
	}
	return float64(peak-min(peak, before)) / 1e6, nil
}
