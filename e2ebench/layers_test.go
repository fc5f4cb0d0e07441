package main

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestLayerMapCoversInternal: every package under internal/ maps to
// exactly one layer, and the map names no package that does not exist,
// so a new package cannot fall outside the table.
func TestLayerMapCoversInternal(t *testing.T) {
	root := filepath.Join("..", "internal")
	found := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		found[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no packages found under internal/")
	}
	known := map[string]bool{}
	for _, l := range Layers {
		known[l] = true
	}
	for pkg := range found {
		l, ok := layerOf[pkg]
		switch {
		case !ok:
			t.Errorf("internal/%s maps to no layer", pkg)
		case !known[l]:
			t.Errorf("internal/%s maps to unknown layer %q", pkg, l)
		}
	}
	for pkg := range layerOf {
		if !found[pkg] {
			t.Errorf("layer map names internal/%s, which has no Go files", pkg)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		cpu   bool
		want  string
	}{
		{[]string{"math.Log", "itsbed/internal/radio.(*Medium).evaluate", "itsbed/internal/sim.(*Kernel).Run"}, true, "radio"},
		{[]string{"itsbed/internal/its/facilities/ldm.(*Sharded).Ingest", "itsbed/internal/openc2x.(*RealNode).deliver"}, true, "ldm"},
		{[]string{"itsbed/internal/experiments.CollectRuns.func1", "itsbed/internal/campaign.Collect[...]"}, true, "campaign"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, true, "gc"},
		{[]string{"encoding/json.Marshal", "net/http.(*conn).serve"}, true, "http"},
		{[]string{"runtime.mallocgc", "main.runSchedule"}, true, "other"},
		{[]string{"runtime.mallocgc"}, false, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack, c.cpu); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		n++
	}
	return n
}

// TestFoldAddsUpToProfileTotal profiles real work and checks that the
// per-layer CPU sums to the profile's total.
func TestFoldAddsUpToProfileTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byLayer, total, err := foldByLayer(p, "cpu", true)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("profile total %d", total)
	}
	var sum int64
	for l, v := range byLayer {
		known := false
		for _, k := range Layers {
			known = known || k == l
		}
		if !known {
			t.Errorf("fold produced unknown layer %q", l)
		}
		sum += v
	}
	if sum != total {
		t.Fatalf("layers sum to %d ns, profile total %d ns", sum, total)
	}
	if byLayer["other"] == 0 {
		t.Errorf("the test's own spin loop was not charged to other: %v", byLayer)
	}
}

func TestParseAllocProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := foldByLayer(p, "alloc_space", false); err != nil {
		t.Fatal(err)
	}
}
