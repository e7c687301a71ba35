package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func BenchmarkEngineScheduleAndFire(b *testing.B) {
	e := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Microsecond, func() {})
		e.Step()
	}
}

// TestEngineScheduleAndFireAllocs pins the steady state: once one event
// record exists, scheduling and firing reuses it.
func TestEngineScheduleAndFireAllocs(t *testing.T) {
	e := New()
	fn := func() {}
	e.After(time.Microsecond, fn)
	e.Step()
	got := testing.AllocsPerRun(1000, func() {
		e.After(time.Microsecond, fn)
		e.Step()
	})
	if got != 0 {
		t.Fatalf("allocs per schedule+fire = %v, want 0", got)
	}
}

// TestTickerAllocs: a running ticker reschedules itself without
// allocating.
func TestTickerAllocs(t *testing.T) {
	e := New()
	n := 0
	tk := e.Every(time.Millisecond, func() { n++ })
	e.Step()
	got := testing.AllocsPerRun(1000, func() { e.Step() })
	tk.Stop()
	if got != 0 {
		t.Fatalf("allocs per tick = %v, want 0", got)
	}
}

func BenchmarkEngineChurn1000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			d := time.Duration(j%97) * time.Microsecond
			e.After(d, func() {})
		}
		e.Run()
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkRNGNormFloat64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

func TestEngineFiresInTimeOrderProperty(t *testing.T) {
	// Whatever the scheduling order, events fire in non-decreasing time.
	f := func(delays []uint16) bool {
		e := New()
		var fired []time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Microsecond
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
