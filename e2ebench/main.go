// Command e2ebench measures the testbed end to end on four workloads
// and, in a traced run, splits each workload's CPU and allocations by
// layer. It drives the program only through public entry points: the
// experiments campaign functions behind `itsbed table2`, `bakeoff` and
// `city`, core.New, and the rsud daemon in service mode over HTTP.
//
//	e2ebench --workload chain-net --seed 1 --seconds 10 --trace 0 --rsud PATH
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1). Any failed output check exits
// with status 1 and prints no result. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runCtx) (*workloadResult, error){
	"chain-vision": runChainVision,
	"chain-net":    runChainNet,
	"city-1k":      runCity,
	"service-mux":  runService,
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"attempt_ms", "ms"},
	{"alloc_mb", "MB"},
	{"allocs_k", "k"},
	{"live_heap_mb", "MB"},
}

// perLayer lists the per-layer metrics with their units: each layer's
// CPU and allocations from the traced run's profiles, then work
// counts, ratios, span medians and waiting.
func perLayer() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	for _, l := range Layers {
		out = append(out, struct{ name, unit string }{l + ".cpu_s", "s"})
	}
	for _, l := range Layers {
		if l != "gc" {
			out = append(out, struct{ name, unit string }{l + ".alloc_mb", "MB"})
		}
	}
	for _, m := range [][2]string{
		{"campaign.attempts", "count"},
		{"campaign.rejected", "count"},
		{"radio.frames_sent", "count"},
		{"radio.rx_evaluated", "count"},
		{"radio.frames_culled", "count"},
		{"openc2x.requests", "count"},
		{"openc2x.deliveries", "count"},
		{"openc2x.mailbox_dropped", "count"},
		{"gc.cycles", "count"},
		{"radio.us_per_rx", "us"},
		{"radio.decode_ratio", "ratio"},
		{"radio.cull_ratio", "ratio"},
		{"openc2x.us_per_delivery", "us"},
		{"core.new_ms", "ms"},
		{"openc2x.trigger_ms", "ms"},
		{"openc2x.poll_ms", "ms"},
		{"openc2x.metrics_ms", "ms"},
		{"openc2x.trace_ms", "ms"},
		{"openc2x.queue_depth_max", "count"},
		{"openc2x.inflight_max", "count"},
		{"gen.late_ms", "ms"},
		{"openc2x.lat_p50_ms.low", "ms"},
		{"openc2x.lat_p99_ms.low", "ms"},
		{"openc2x.lat_p50_ms.high", "ms"},
		{"openc2x.lat_p99_ms.high", "ms"},
		{"bench.overhead_pct", "%"},
	} {
		out = append(out, struct{ name, unit string }{m[0], m[1]})
	}
	return out
}

// spanMetrics are the per-layer metrics read from the traced run's
// spans around the benchmark's own calls.
var spanMetrics = []string{"core.new_ms", "openc2x.trigger_ms", "openc2x.poll_ms", "openc2x.metrics_ms", "openc2x.trace_ms"}

// runCtx is what a workload runner gets for one pass.
type runCtx struct {
	seed    int64
	seconds int
	rsud    string
	traced  bool          // profile the timed work
	spans   *spanRecorder // nil when untraced

	// The traced pass's profiles: of this process (profStart/profStop)
	// or of the daemon.
	cpuProfile    []byte
	allocProfiles [2][]byte
	cpuBuf        bytes.Buffer
}

func (c *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

// profStart begins profiling the benchmark process (traced runs only).
func (c *runCtx) profStart() error {
	if !c.traced {
		return nil
	}
	runtime.GC() // the allocation profile is as of the last GC
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return err
	}
	c.allocProfiles[0] = b.Bytes()
	c.cpuBuf.Reset()
	return pprof.StartCPUProfile(&c.cpuBuf)
}

// profStop ends profiling and keeps both profiles.
func (c *runCtx) profStop() error {
	if !c.traced {
		return nil
	}
	pprof.StopCPUProfile()
	c.cpuProfile = append([]byte(nil), c.cpuBuf.Bytes()...)
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return err
	}
	c.allocProfiles[1] = b.Bytes()
	return nil
}

// workloadResult is one pass's outcome.
type workloadResult struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64 // counts, ratios, spans, waiting
	wall              time.Duration      // timed work, for the tracing overhead
}

// meter brackets timed work: host time, process CPU and heap
// allocation.
type meter struct {
	t0  time.Time
	ru0 syscall.Rusage
	ms0 runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru0)
	m.t0 = time.Now()
	return m
}

// measured is what a meter saw over the timed work.
type measured struct {
	wall     time.Duration
	cpu      float64 // user+system seconds
	allocMB  float64
	allocsK  float64 // thousands of heap objects
	gcCycles float64
}

func (m *meter) stop() measured {
	wall := time.Since(m.t0)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return measured{
		wall:     wall,
		cpu:      tv(ru.Utime) + tv(ru.Stime) - tv(m.ru0.Utime) - tv(m.ru0.Stime),
		allocMB:  float64(ms.TotalAlloc-m.ms0.TotalAlloc) / 1e6,
		allocsK:  float64(ms.Mallocs-m.ms0.Mallocs) / 1e3,
		gcCycles: float64(ms.NumGC - m.ms0.NumGC),
	}
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: chain-vision, chain-net, city-1k or service-mux")
	seed := flag.Int64("seed", 1, "workload seed; the program only sees inputs generated from it")
	seconds := flag.Int("seconds", 15, "run length the workload sizes are derived from")
	trace := flag.Int("trace", 0, "1: add a traced run and report per-layer metrics")
	rsud := flag.String("rsud", ".bench_build/rsud", "rsud binary for service-mux")
	out := flag.String("out", ".bench_out", "directory for traced-run artefacts")
	flag.Parse()

	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	printEnv(*workload, *seed, *seconds, *trace)

	c := &runCtx{seed: *seed, seconds: *seconds, rsud: *rsud}
	res, err := drive(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *workload, err)
		return 1
	}
	metrics := map[string]float64{}
	units := map[string]string{}
	if *trace == 0 {
		for _, m := range endToEnd {
			v, ok := res.e2e[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "e2ebench: %s: no value for %s\n", *workload, m.name)
				return 1
			}
			metrics[m.name], units[m.name] = v, m.unit
		}
		printTable("end-to-end", *workload, endToEnd, metrics)
	} else {
		tc := &runCtx{seed: *seed, seconds: *seconds, rsud: *rsud, traced: true, spans: newSpanRecorder()}
		tres, err := drive(tc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s (traced): %v\n", *workload, err)
			return 1
		}
		if metrics, err = layerMetrics(*workload, res, tres, tc, *out); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *workload, err)
			return 1
		}
		names := perLayer()
		for _, m := range names {
			units[m.name] = m.unit
		}
		printTable("per-layer", *workload, names, metrics)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	outMetrics := map[string]value{}
	for k, v := range metrics {
		outMetrics[k] = value{v, units[k]}
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": res.attempted, "failed": res.failed, "metrics": outMetrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// layerMetrics folds the traced run's profiles into layers and joins
// them with the untraced run's counts and the traced run's spans.
func layerMetrics(workload string, untraced, traced *workloadResult, tc *runCtx, outDir string) (map[string]float64, error) {
	cpuProf, allocProfs := tc.cpuProfile, tc.allocProfiles
	out := map[string]float64{}
	for _, m := range perLayer() {
		out[m.name] = 0
	}
	p, err := parseProfile(cpuProf)
	if err != nil {
		return nil, err
	}
	cpu, cpuTotal, err := foldByLayer(p, "cpu", true)
	if err != nil {
		return nil, err
	}
	var sum int64
	for _, l := range Layers {
		out[l+".cpu_s"] = float64(cpu[l]) / 1e9
		sum += cpu[l]
	}
	if sum != cpuTotal {
		return nil, fmt.Errorf("per-layer CPU %d ns does not add up to the profile total %d ns", sum, cpuTotal)
	}
	var alloc [2]map[string]int64
	for i, b := range allocProfs {
		ap, err := parseProfile(b)
		if err != nil {
			return nil, err
		}
		if alloc[i], _, err = foldByLayer(ap, "alloc_space", false); err != nil {
			return nil, err
		}
	}
	for _, l := range Layers {
		if l != "gc" {
			out[l+".alloc_mb"] = float64(alloc[1][l]-alloc[0][l]) / 1e6
		}
	}
	// The simulations are deterministic: the traced pass must repeat
	// the untraced pass's work exactly.
	for _, k := range []string{"campaign.attempts", "radio.frames_sent", "radio.rx_evaluated"} {
		if untraced.layer[k] != traced.layer[k] {
			return nil, fmt.Errorf("%s: untraced pass %v, traced pass %v; the work did not repeat", k, untraced.layer[k], traced.layer[k])
		}
	}
	// Counts, latencies and waiting come from the untraced run, span
	// medians from the traced one.
	for k, v := range untraced.layer {
		out[k] = v
	}
	for _, k := range spanMetrics {
		out[k] = traced.layer[k]
	}
	// Ratios: CPU from the traced run over that run's own counts,
	// which repeat the untraced run's exactly on the simulations.
	if rx := traced.layer["radio.rx_evaluated"]; rx > 0 {
		out["radio.us_per_rx"] = out["radio.cpu_s"] * 1e6 / rx
	}
	if dl := traced.layer["openc2x.deliveries"]; dl > 0 {
		out["openc2x.us_per_delivery"] = out["openc2x.cpu_s"] * 1e6 / dl
	}
	out["bench.overhead_pct"] = (traced.wall.Seconds()/untraced.wall.Seconds() - 1) * 100

	dir := filepath.Join(outDir, workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := tc.spans.writeChrome(filepath.Join(dir, "spans.trace.json")); err != nil {
		return nil, err
	}
	files := map[string][]byte{"cpu.pprof": cpuProf, "allocs.before.pprof": allocProfs[0], "allocs.after.pprof": allocProfs[1]}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return nil, err
		}
	}
	table := map[string]any{"workload": workload, "cpu_total_s": float64(cpuTotal) / 1e9, "metrics": out}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), b, 0o644); err != nil {
		return nil, err
	}
	return out, nil
}

// printTable prints metrics by name with units, one per line.
func printTable(kind, workload string, names []struct{ name, unit string }, values map[string]float64) {
	fmt.Printf("# %s metrics, workload %s\n", kind, workload)
	for _, m := range names {
		fmt.Printf("%-26s %14.6g %s\n", m.name, values[m.name], m.unit)
	}
}

// printEnv prints the environment header every run starts with.
func printEnv(workload string, seed int64, seconds, trace int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# e2ebench workload=%s seed=%d seconds=%d trace=%d\n", workload, seed, seconds, trace)
	fmt.Printf("# go=%s nproc=%d GOMAXPROCS=%d cpu=%q commit=%s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
