package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function.
type span struct {
	name   string // "<layer>.<call>", e.g. "core.new"
	id     int64
	parent int64
	start  time.Duration // since the recorder's origin
	dur    time.Duration
	tid    int // lane in the trace viewer (0: benchmark, 1..n: connections)
}

// spanRecorder keeps spans in memory until the run ends. A nil
// recorder records nothing, so untraced runs pay one nil check.
type spanRecorder struct {
	mu     sync.Mutex
	origin time.Time
	next   int64
	spans  []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// begin opens a span and returns its id (for children) and the
// function that closes it.
func (r *spanRecorder) begin(name string, parent int64, tid int) (id int64, end func()) {
	if r == nil {
		return 0, func() {}
	}
	t0 := time.Now()
	r.mu.Lock()
	r.next++
	id = r.next
	r.mu.Unlock()
	return id, func() {
		d := time.Since(t0)
		r.mu.Lock()
		r.spans = append(r.spans, span{name: name, id: id, parent: parent, start: t0.Sub(r.origin), dur: d, tid: tid})
		r.mu.Unlock()
	}
}

// add records a span whose extent was measured elsewhere.
func (r *spanRecorder) add(name string, parent int64, start time.Time, dur time.Duration, tid int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.next++
	r.spans = append(r.spans, span{name: name, id: r.next, parent: parent, start: start.Sub(r.origin), dur: dur, tid: tid})
	r.mu.Unlock()
}

// medianMS returns the median duration in milliseconds of the spans
// with the given name (0 when there are none).
func (r *spanRecorder) medianMS(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var xs []float64
	for _, s := range r.spans {
		if s.name == name {
			xs = append(xs, float64(s.dur)/float64(time.Millisecond))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// writeChrome writes the spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), loadable in Perfetto.
func (r *spanRecorder) writeChrome(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		TS   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		PID  int              `json:"pid"`
		TID  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		cat := s.name
		for i := range s.name {
			if s.name[i] == '.' {
				cat = s.name[:i]
				break
			}
		}
		events = append(events, event{
			Name: s.name, Cat: cat, Ph: "X",
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.dur) / float64(time.Microsecond),
			PID: 1, TID: s.tid,
			Args: map[string]int64{"id": s.id, "parent": s.parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
