package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"itsbed/internal/core"
	"itsbed/internal/experiments"
	"itsbed/internal/geo"
	"itsbed/internal/metrics"
	"itsbed/internal/track"
	"itsbed/internal/vehicle"
	"itsbed/internal/vision"
)

// Chain workload make-up, per second of run length: chain-vision runs
// the image pipeline (~0.6 s an attempt on a 2 vCPU Xeon VM), chain-net runs the
// ground-truth follower over every backend (~2.2 ms an attempt).
const (
	visionRunsPerSecond = 2
	netRunsPerSecond    = 180 // per backend
	setupBuilds         = 21  // core.New calls timed for setup_s
	reproRuns           = 3   // leading rows a shorter TableII must reproduce
	brakeDecelSpread    = 0.8 // the campaign draws BrakeDecel in base ± 0.8 m/s²
	paperChainBound     = 100 * time.Millisecond
	labStations         = 2 // RSU and OBU on the air
)

// baseSeed maps the benchmark seed to a campaign base seed; blocks of
// one million keep the seeds of different benchmark seeds apart
// (BAKEOFF-1 puts backend b at BaseSeed + b·100000).
func baseSeed(seed int64) int64 { return seed * 1_000_000 }

func runChainVision(c *runCtx) (*workloadResult, error) {
	runs := int(math.Max(2, math.Round(visionRunsPerSecond*float64(c.seconds))))
	res, err := runChain(c, true, []experiments.Backend{experiments.BackendITSG5}, runs)
	if err != nil {
		return nil, err
	}
	if err := checkVision(c.seed); err != nil {
		return nil, err
	}
	return res, nil
}

func runChainNet(c *runCtx) (*workloadResult, error) {
	runs := netRunsPerSecond * c.seconds
	return runChain(c, false, experiments.Backends(), runs)
}

// labConfig is the lab testbed config a campaign attempt builds.
func labConfig(seed int64, useVision bool, be experiments.Backend) core.Config {
	cfg := core.Config{Seed: seed, Layout: experiments.DefaultLabSetup()}
	cfg.Vehicle = vehicle.DefaultConfig(cfg.Layout)
	cfg.Vehicle.UseVision = useVision
	switch be {
	case experiments.BackendCV2XPC5:
		cfg.Radio = core.RadioCV2XPC5
	case experiments.BackendCV2XUu:
		cfg.Radio = core.RadioCV2XUu
	}
	return cfg
}

// chainSetup times core.New of the lab testbed and measures the live
// heap one testbed holds.
func chainSetup(c *runCtx, useVision bool, backends []experiments.Backend) (setupS, liveMB float64, err error) {
	var times []float64
	for i := 0; i < setupBuilds; i++ {
		be := backends[i%len(backends)]
		cfg := labConfig(baseSeed(c.seed)+int64(i), useVision, be)
		_, end := c.spans.begin("core.new", 0, 0)
		t0 := time.Now()
		_, err := core.New(cfg)
		times = append(times, time.Since(t0).Seconds())
		end()
		if err != nil {
			return 0, 0, fmt.Errorf("core.New: %w", err)
		}
	}
	before := liveHeapMB()
	held := make([]*core.Testbed, len(backends))
	for i, be := range backends {
		if held[i], err = core.New(labConfig(baseSeed(c.seed), useVision, be)); err != nil {
			return 0, 0, fmt.Errorf("core.New: %w", err)
		}
	}
	after := liveHeapMB()
	runtime.KeepAlive(held)
	return median(times), (after - before) / float64(len(backends)), nil
}

// chainBlock is one backend's campaign outcome.
type chainBlock struct {
	backend  experiments.Backend
	results  []*core.Result
	attempts []float64 // host ms per processed attempt
	rejected float64
	sent     uint64
	dlvd     uint64
	lost     uint64
	culled   uint64
}

// runChain runs the Table II campaign (experiments.CollectRuns, the
// campaign behind TableII) per backend on BAKEOFF-1's seed blocks, on
// one worker, and checks every run.
func runChain(c *runCtx, useVision bool, backends []experiments.Backend, runs int) (*workloadResult, error) {
	setupS, liveMB, err := chainSetup(c, useVision, backends)
	if err != nil {
		return nil, err
	}
	if err := c.profStart(); err != nil {
		return nil, err
	}
	m := startMeter()
	var blocks []*chainBlock
	for bi, be := range backends {
		b, err := chainCampaign(c, baseSeed(c.seed)+int64(bi)*100000, useVision, be, runs)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, b)
	}
	mt := m.stop()
	if err := c.profStop(); err != nil {
		return nil, err
	}

	var attempts []float64
	var rejected float64
	var sent, dlvd, lost, culled uint64
	for bi, b := range blocks {
		if err := checkChain(b, runs); err != nil {
			return nil, err
		}
		if err := checkReproduces(baseSeed(c.seed)+int64(bi)*100000, useVision, b); err != nil {
			return nil, err
		}
		attempts = append(attempts, b.attempts...)
		rejected += b.rejected
		sent, dlvd, lost, culled = sent+b.sent, dlvd+b.dlvd, lost+b.lost, culled+b.culled
	}
	res := &workloadResult{attempted: runs * len(backends), wall: mt.wall}
	res.e2e = map[string]float64{
		"setup_s":      setupS,
		"wall_s":       mt.wall.Seconds(),
		"cpu_s":        mt.cpu,
		"attempt_ms":   median(attempts),
		"alloc_mb":     mt.allocMB,
		"allocs_k":     mt.allocsK,
		"live_heap_mb": liveMB,
	}
	res.layer = map[string]float64{
		"campaign.attempts":   float64(len(attempts)),
		"campaign.rejected":   rejected,
		"radio.frames_sent":   float64(sent),
		"radio.rx_evaluated":  float64(dlvd + lost - culled),
		"radio.frames_culled": float64(culled),
		"gc.cycles":           mt.gcCycles,
		"core.new_ms":         c.spans.medianMS("core.new"),
	}
	if rx := dlvd + lost - culled; rx > 0 {
		res.layer["radio.decode_ratio"] = float64(dlvd) / float64(rx)
	}
	return res, nil
}

// chainCampaign runs one backend's block and books per-attempt host
// time from the campaign's Progress callback.
func chainCampaign(c *runCtx, base int64, useVision bool, be experiments.Backend, runs int) (*chainBlock, error) {
	b := &chainBlock{backend: be}
	reg := metrics.NewRegistry()
	blockID, endBlock := c.spans.begin("campaign.table2."+string(be), 0, 0)
	last := time.Now()
	opt := experiments.ScenarioOptions{
		BaseSeed:  base,
		Runs:      runs,
		UseVision: useVision,
		Horizon:   30 * time.Second,
		Radio:     be,
		Workers:   1,
		Metrics:   reg,
		Progress: func(done, total int) {
			now := time.Now()
			b.attempts = append(b.attempts, ms(now.Sub(last)))
			c.spans.add("campaign.attempt", blockID, last, now.Sub(last), 0)
			last = now
		},
	}
	results, err := experiments.CollectRuns(opt, runs, func(r *core.Result) bool { return r.Run.Complete() })
	endBlock()
	if err != nil {
		return nil, fmt.Errorf("%s campaign: %w", be, err)
	}
	b.results = results
	for _, cs := range reg.Snapshot().Counters {
		if cs.Name == "campaign_runs_rejected_total" {
			b.rejected += float64(cs.Value)
		}
	}
	for _, r := range results {
		for _, cs := range r.Metrics.Counters {
			switch cs.Name {
			case "radio_frames_sent_total":
				b.sent += cs.Value
			case "radio_frames_delivered_total":
				b.dlvd += cs.Value
			case "radio_frames_lost_total":
				b.lost += cs.Value
			case "radio_frames_culled_total":
				b.culled += cs.Value
			}
		}
	}
	return b, nil
}

// checkChain holds every run of a block to the method's properties.
func checkChain(b *chainBlock, runs int) error {
	if len(b.results) != runs {
		return fmt.Errorf("%s: %d of %d requested runs completed", b.backend, len(b.results), runs)
	}
	veh := vehicle.DefaultConfig(experiments.DefaultLabSetup())
	base := veh.Params.BrakeDecel
	// The power cut lands an actuation latency after the stop command
	// (serial transfer, then up to one MCU loop and half a PWM frame),
	// the body integrates in PhysicsStep increments, and the chain total
	// spans two NTP-disciplined clocks (6σ of their offset difference).
	act := veh.Actuation
	clockSlack := 6 * math.Sqrt2 * (veh.NTP.OffsetStdDev + veh.NTP.JitterStdDev).Seconds()
	lagMin := act.SerialDelay().Seconds() - clockSlack - veh.PhysicsStep.Seconds()
	lagMax := (act.SerialDelay() + act.MCULoopPeriod + act.PWMPeriod/2 + veh.PhysicsStep).Seconds() + clockSlack
	var errs []error
	for i, r := range b.results {
		iv := r.Intervals
		// Each step is stamped by its own platform's NTP clock, so an
		// interval may read below zero by at most the clocks' offset
		// difference; the total must not.
		if s := -clockSlack; iv.DetectionToSend.Seconds() < s || iv.SendToReceive.Seconds() < s ||
			iv.ReceiveToAction.Seconds() < s || iv.Total < 0 {
			errs = append(errs, fmt.Errorf("run %d: interval below zero beyond clock error %+v", i, iv))
		}
		if iv.DetectionToSend+iv.SendToReceive+iv.ReceiveToAction != iv.Total {
			errs = append(errs, fmt.Errorf("run %d: intervals do not sum to the total %+v", i, iv))
		}
		if b.backend == experiments.BackendITSG5 && iv.Total >= paperChainBound {
			errs = append(errs, fmt.Errorf("run %d: ITS-G5 chain %v is not under %v", i, iv.Total, paperChainBound))
		}
		// ITS-G5 runs must stop clear of the camera as in the paper;
		// the slower C-V2X paths may stop inside the program's 0.15 m
		// collision margin but must still halt before the lens.
		if !r.Stopped || r.FinalCameraDistance <= 0 || (b.backend == experiments.BackendITSG5 && r.Collision) {
			errs = append(errs, fmt.Errorf("run %d: no halt short of the camera (stopped %v, collision %v, %.3f m left)",
				i, r.Stopped, r.Collision, r.FinalCameraDistance))
		}
		// Constant-deceleration stop: the chain delay and actuation lag
		// at approach speed, then v²/2a for any a the campaign can draw.
		v, t := r.ApproachSpeed, iv.Total.Seconds()
		lo := v*(t+lagMin) + v*v/(2*(base+brakeDecelSpread))
		hi := v*(t+lagMax) + v*v/(2*(base-brakeDecelSpread))
		if d := r.BrakingDistance; d < lo || d > hi {
			errs = append(errs, fmt.Errorf("run %d: halt distance %.4f m outside [%.4f, %.4f] m for %.3f m/s after %v",
				i, d, lo, hi, v, iv.Total))
		}
	}
	if b.dlvd+b.lost > b.sent*(labStations-1) {
		errs = append(errs, fmt.Errorf("delivered %d + lost %d exceed sent %d × %d", b.dlvd, b.lost, b.sent, labStations-1))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("%s check: %w", b.backend, err)
	}
	return nil
}

// checkReproduces runs a shorter TableII over the same base seed and
// requires its rows to equal the block's leading runs exactly.
func checkReproduces(base int64, useVision bool, b *chainBlock) error {
	n := min(reproRuns, len(b.results))
	t2, err := experiments.TableII(experiments.ScenarioOptions{
		BaseSeed: base, Runs: n, UseVision: useVision, Radio: b.backend, Workers: 1,
	})
	if err != nil {
		return fmt.Errorf("%s: short TableII: %w", b.backend, err)
	}
	for i, row := range t2.Rows {
		iv := b.results[i].Intervals
		if row.DetectionToSend != iv.DetectionToSend || row.SendToReceive != iv.SendToReceive ||
			row.ReceiveToAction != iv.ReceiveToAction || row.Total != iv.Total {
			return fmt.Errorf("%s: short TableII row %d %+v differs from the campaign's %+v", b.backend, i, row, iv)
		}
	}
	return nil
}

// checkVision renders frames of a straight guide line at known
// lateral offsets and headings and runs them through the detector.
// The line's centre crosses the near edge of the camera patch at the
// known offset; at forward distance f it sits at off + (near − f)·tan h.
// Both detected points must lie on the line: the far target at its
// forward distance, and the near-end lateral error somewhere between
// the near edge and the target (the longest Hough segment need not
// reach the bottom row). The tolerance is half the line width (the
// detector reports one of the line's two edges), two pixel columns and
// one pixel row's forward footprint times the line's lateral slope.
// At heading 0 this is the plain check |LateralError − off| ≤ tol, and
// the offsets exceed the tolerance, so the sign must match too.
func checkVision(seed int64) error {
	line, err := track.NewLine([]geo.Point{{X: 0, Y: -5}, {X: 0, Y: 20}})
	if err != nil {
		return err
	}
	det := vision.NewDetector(rand.New(rand.NewSource(seed)))
	cam := det.Camera
	du := cam.PatchWidth / float64(cam.Width-1)
	dv := cam.PatchLength / float64(cam.Height-1)
	var errs []error
	for _, off := range []float64{-0.15, -0.08, 0.08, 0.15} {
		for _, h := range []float64{-0.05, 0, 0.05} {
			x := -off*math.Cos(h) - cam.NearOffset*math.Sin(h)
			d := det.Detect(line, geo.Point{X: x, Y: 0}, h)
			tol := det.LineWidth/2 + 2*du + dv*math.Abs(math.Tan(h))
			at := func(f float64) float64 { return off + (cam.NearOffset-f)*math.Tan(h) }
			lo, hi := math.Min(at(cam.NearOffset), at(d.TargetForward)), math.Max(at(cam.NearOffset), at(d.TargetForward))
			switch {
			case !d.Found:
				errs = append(errs, fmt.Errorf("offset %.2f m heading %.2f: no line found", off, h))
			case math.Signbit(d.LateralError) != math.Signbit(off) ||
				d.LateralError < lo-tol || d.LateralError > hi+tol:
				errs = append(errs, fmt.Errorf("offset %.2f m heading %.2f: lateral error %.4f m, want within %.4f m of [%.4f, %.4f]",
					off, h, d.LateralError, tol, lo, hi))
			case math.Abs(d.TargetLateral-at(d.TargetForward)) > tol:
				errs = append(errs, fmt.Errorf("offset %.2f m heading %.2f: target (%.3f, %.4f) m is %.4f m off the line",
					off, h, d.TargetForward, d.TargetLateral, math.Abs(d.TargetLateral-at(d.TargetForward))))
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("vision check: %w", err)
	}
	return nil
}
