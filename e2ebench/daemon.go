package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one rsud process in service mode, started on ports the OS
// picks and stopped with SIGTERM.
type daemon struct {
	cmd      *exec.Cmd
	base     string // "http://127.0.0.1:port"
	started  time.Time
	setup    time.Duration // start → /healthz reports every station
	client   *http.Client
	logDone  chan struct{}
	addrc    chan string
	drained  int  // undelivered DENMs logged at shutdown
	stopping bool // SIGTERM sent
	exited   chan error
}

// startDaemon launches rsud hosting n stations and waits until the
// daemon that answers /healthz is provably this one: it reports n
// stations and an uptime no longer than our own clock has run.
func startDaemon(bin string, n int) (*daemon, error) {
	d := &daemon{
		logDone: make(chan struct{}),
		addrc:   make(chan string, 1),
		exited:  make(chan error, 1),
		// Long enough for a CPU profile covering both phases.
		client: &http.Client{Timeout: 2 * time.Minute},
	}
	d.cmd = exec.Command(bin,
		"-stations", strconv.Itoa(n),
		"-api", "127.0.0.1:0", "-listen", "127.0.0.1:0",
		"-pprof", "-log-format", "json")
	// If the benchmark dies without stopping the daemon, the kernel
	// sends it SIGTERM so it cannot outlive us and keep the port.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("daemon: start %s: %w", bin, err)
	}
	go d.readLog(stderr)
	go func() { d.exited <- d.cmd.Wait() }()

	select {
	case addr := <-d.addrc:
		d.base = "http://" + addr
	case err := <-d.exited:
		d.exited <- err
		<-d.logDone
		return nil, fmt.Errorf("daemon: exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("daemon: no startup log line within 30s")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		h, err := d.healthz()
		if err == nil && h.Status == "ok" && h.Stations == n {
			if h.Uptime > time.Since(d.started).Seconds()+0.5 {
				d.stop()
				return nil, fmt.Errorf("daemon: %s answers with uptime %.1fs, older than the process started %.1fs ago",
					d.base, h.Uptime, time.Since(d.started).Seconds())
			}
			d.setup = time.Since(d.started)
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon: not ready within 60s (last: %+v, %v)", h, err)
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			<-d.logDone
			return nil, fmt.Errorf("daemon: exited during start-up: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// readLog parses rsud's JSON log: the bound API address at start-up
// and the drained-DENM count at shutdown.
func (d *daemon) readLog(r io.Reader) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			continue
		}
		msg, _ := rec["msg"].(string)
		switch {
		case strings.Contains(msg, "started"):
			if addr, ok := rec["api"].(string); ok {
				select {
				case d.addrc <- addr:
				default:
				}
			}
		case msg == "drained mailboxes":
			if v, ok := rec["undelivered_denms"].(float64); ok {
				d.drained = int(v)
			}
		}
	}
}

type health struct {
	Status   string  `json:"status"`
	Stations int     `json:"stations"`
	Uptime   float64 `json:"uptime_seconds"`
}

func (d *daemon) healthz() (health, error) {
	var h health
	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}

// get fetches a daemon URL path and returns the body.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// cpuSeconds returns the user+system CPU the daemon used over its
// whole life, as the kernel reported it when the process was reaped
// (microsecond resolution, unlike the 10 ms ticks of /proc/<pid>/stat).
// It is zero until stop has returned.
func (d *daemon) cpuSeconds() float64 {
	if d.cmd.ProcessState == nil {
		return 0
	}
	return (d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime()).Seconds()
}

// memStats reads the daemon's runtime.MemStats through its pprof heap
// endpoint; gc forces a collection first.
func (d *daemon) memStats(gc bool) (map[string]float64, error) {
	path := "/debug/pprof/heap?debug=1"
	if gc {
		path += "&gc=1"
	}
	b, err := d.get(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		if x, err := strconv.ParseFloat(v, 64); err == nil {
			out[k] = x
		}
	}
	if _, ok := out["TotalAlloc"]; !ok {
		return nil, errors.New("daemon: no MemStats in heap profile")
	}
	return out, nil
}

// stop sends SIGTERM, waits for the process and its log to end, and
// kills it if it has not exited within 15 s. It is safe to call more
// than once.
func (d *daemon) stop() error {
	if d == nil || d.cmd.Process == nil {
		return nil
	}
	if d.stopping {
		return nil
	}
	d.stopping = true
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		err = <-d.exited
		err = fmt.Errorf("daemon: killed after SIGTERM timeout (%v)", err)
	}
	<-d.logDone
	return err
}
