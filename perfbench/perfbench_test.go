package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
)

func TestLayerMapCoversModule(t *testing.T) {
	if err := checkLayerMap(".."); err != nil {
		t.Fatal(err)
	}
}

func TestFrameLayer(t *testing.T) {
	for _, c := range []struct {
		fn, file, layer string
		ok              bool
	}{
		{"evm/internal/radio.(*Medium).complete", "medium.go", "radio", true},
		{"evm/internal/modbus.CRC16", "crc.go", "gateway", true},
		{"evm/internal/sim.SortedKeys[go.shape.string]", "keys.go", "sim", true},
		{"evm.(*Runner).runSpec.func1", "/src/runner.go", "runner", true},
		{"evm.(*Backbone).send", "/src/backbone.go", "federation", true},
		{"evm.installEventSpans", "/src/tracing.go", "span", true},
		{"evm.(*RunSpec).eq", "<autogenerated>", "runner", true},
		{"evm/evmd.(*Server).handleEvents", "http.go", "evmd", true},
		{"runtime.mallocgc", "malloc.go", "", false},
		{"main.(*harness).run", "record.go", "", false},
	} {
		layer, ok := frameLayer(c.fn, c.file)
		if layer != c.layer || ok != c.ok {
			t.Errorf("frameLayer(%q, %q) = %q, %v; want %q, %v", c.fn, c.file, layer, ok, c.layer, c.ok)
		}
	}
}

func TestParseAllocProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parsePprof(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byLayer, err := p.byLayer("alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	if byLayer["runtime"] <= 0 {
		t.Errorf("no allocations charged to runtime: %v", byLayer)
	}
	if _, err := p.byLayer("cpu"); err == nil {
		t.Error("an alloc profile has no cpu values, want an error")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
}
