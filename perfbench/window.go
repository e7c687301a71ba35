package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// window is one measured pass: the runs it completed, in cycle order, and
// the host time and bytes allocated over it.
type window struct {
	outs       []*runOutput
	cycleWalls []float64 // evmd windows: host seconds per cycle
	start      time.Time
	wall       time.Duration
	allocStart uint64
	allocBytes uint64
}

func (w *window) begin() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.allocStart = ms.TotalAlloc
	w.start = time.Now()
}

func (w *window) end() {
	w.wall = time.Since(w.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.allocBytes = ms.TotalAlloc - w.allocStart
}

func (w *window) elapsed() float64 { return time.Since(w.start).Seconds() }

// serialWindow runs the spec cycle through h, one run at a time, until
// seconds have passed and a cycle is complete. It runs at least two
// cycles, so every spec is repeated and checked against itself.
func serialWindow(h *harness, wl *workload, seconds float64) *window {
	win := &window{}
	win.begin()
	for i := 0; ; i++ {
		if i >= 2*len(wl.specs) && i%len(wl.specs) == 0 && win.elapsed() >= seconds {
			break
		}
		win.outs = append(win.outs, h.run(wl.specs[i%len(wl.specs)]))
	}
	win.end()
	return win
}

// layerProfile is the CPU and allocation split of one profiled pass.
type layerProfile struct {
	cpu     map[string]int64 // CPU nanoseconds per layer
	alloc   map[string]int64 // bytes allocated per layer
	samples int64
}

// profiled runs pass under the CPU profiler and between two snapshots of
// the allocation profile, and charges both to layers.
func profiled(pass func() error) (*layerProfile, error) {
	before, err := allocsByLayer()
	if err != nil {
		return nil, err
	}
	var cpuBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	passErr := pass()
	pprof.StopCPUProfile()
	if passErr != nil {
		return nil, passErr
	}
	after, err := allocsByLayer()
	if err != nil {
		return nil, err
	}
	cpu, err := parsePprof(cpuBuf.Bytes())
	if err != nil {
		return nil, err
	}
	lp := &layerProfile{alloc: make(map[string]int64), samples: cpu.sampleCount()}
	if lp.cpu, err = cpu.byLayer("cpu"); err != nil {
		return nil, err
	}
	for l, v := range after {
		lp.alloc[l] = v - before[l]
	}
	return lp, nil
}

// allocsByLayer reads the cumulative alloc_space profile. The GC first
// brings the profile up to date with every allocation made so far.
func allocsByLayer() (map[string]int64, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("alloc profile: %w", err)
	}
	p, err := parsePprof(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return p.byLayer("alloc_space")
}

// shares converts per-layer totals to percentages of their sum.
func shares(m map[string]int64) map[string]float64 {
	var total int64
	for _, v := range m {
		total += v
	}
	out := make(map[string]float64, len(m))
	if total <= 0 {
		return out
	}
	for l, v := range m {
		out[l] = 100 * float64(v) / float64(total)
	}
	return out
}

// percentile is the p-th percentile (0 <= p <= 100) of xs, interpolated
// linearly between the two nearest order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }
