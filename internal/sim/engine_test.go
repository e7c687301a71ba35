package sim

import (
	"errors"
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(3*time.Millisecond, func() { got = append(got, 3) })
	e.At(1*time.Millisecond, func() { got = append(got, 1) })
	e.At(2*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineTieBreakPriority(t *testing.T) {
	e := New()
	var got []string
	e.AtPrio(time.Millisecond, 5, func() { got = append(got, "low") })
	e.AtPrio(time.Millisecond, 1, func() { got = append(got, "high") })
	e.Run()
	if got[0] != "high" || got[1] != "low" {
		t.Fatalf("priority tie-break failed: %v", got)
	}
}

func TestEngineAfterRelative(t *testing.T) {
	e := New()
	var at time.Duration
	e.At(10*time.Millisecond, func() {
		e.After(5*time.Millisecond, func() { at = e.Now() })
	})
	e.Run()
	if at != 15*time.Millisecond {
		t.Fatalf("After fired at %v, want 15ms", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(time.Millisecond, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	// Double-cancel is a no-op.
	e.Cancel(ev)
	e.Cancel(Event{})
}

func TestEngineSchedulePastClamps(t *testing.T) {
	e := New()
	var firedAt time.Duration
	e.At(10*time.Millisecond, func() {
		e.At(time.Millisecond, func() { firedAt = e.Now() }) // in the past
	})
	e.Run()
	if firedAt != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want clamp to 10ms", firedAt)
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	e := New()
	count := 0
	e.Every(time.Millisecond, func() { count++ })
	if err := e.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	// Ticks at 1..9 ms fire; the tick at exactly 10ms does not.
	if count != 9 {
		t.Fatalf("count = %d, want 9", count)
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v, want horizon", e.Now())
	}
}

func TestRunUntilDrained(t *testing.T) {
	e := New()
	e.At(time.Millisecond, func() {})
	err := e.RunUntil(time.Second)
	if !errors.Is(err, ErrHorizon) {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
	if e.Now() != time.Second {
		t.Fatalf("Now = %v, want horizon even when drained", e.Now())
	}
}

func TestTickerStop(t *testing.T) {
	e := New()
	count := 0
	var tk *Ticker
	tk = e.Every(time.Millisecond, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestEveryAt(t *testing.T) {
	e := New()
	var times []time.Duration
	tk := e.EveryAt(5*time.Millisecond, 2*time.Millisecond, func() {
		times = append(times, e.Now())
	})
	_ = e.RunUntil(10 * time.Millisecond)
	tk.Stop()
	want := []time.Duration{5 * time.Millisecond, 7 * time.Millisecond, 9 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestPending(t *testing.T) {
	e := New()
	e.At(time.Millisecond, func() {})
	e.At(2*time.Millisecond, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
}

func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := New()
	old := e.At(time.Millisecond, func() {})
	e.Run()
	fired := false
	cur := e.At(2*time.Millisecond, func() { fired = true })
	if old.ev != cur.ev {
		t.Fatal("fired event record was not reused")
	}
	e.Cancel(old)
	if old.Canceled() || cur.Canceled() {
		t.Fatal("stale handle reported or caused a cancellation")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after stale cancel, want 1", e.Pending())
	}
	e.Run()
	if !fired {
		t.Fatal("stale handle cancelled the event reusing its record")
	}
}

func TestCancelZeroEvent(t *testing.T) {
	e := New()
	fired := false
	e.At(time.Millisecond, func() { fired = true })
	var zero Event
	e.Cancel(zero)
	if zero.Canceled() {
		t.Fatal("zero Event reports Canceled")
	}
	e.Run()
	if !fired || e.Pending() != 0 {
		t.Fatal("cancelling the zero Event disturbed the queue")
	}
}

func TestCanceledEventNotRecycled(t *testing.T) {
	e := New()
	ev := e.At(time.Millisecond, func() {})
	e.Cancel(ev)
	next := e.At(time.Millisecond, func() {})
	if next.ev == ev.ev {
		t.Fatal("cancelled event record was reused")
	}
	e.Run()
	if !ev.Canceled() {
		t.Fatal("Canceled() = false once the engine moved on")
	}
}

func TestTickerStopInsideCallbackAndAgain(t *testing.T) {
	e := New()
	count := 0
	var tk *Ticker
	tk = e.Every(time.Millisecond, func() {
		count++
		if count == 2 {
			tk.Stop()
			tk.Stop()
		}
	})
	// Other events reuse the ticker's fired records; a later Stop must
	// not cancel them.
	later := 0
	e.At(10*time.Millisecond, func() {
		tk.Stop()
		e.After(time.Millisecond, func() { later++ })
		tk.Stop()
	})
	e.Run()
	if count != 2 {
		t.Fatalf("ticks = %d, want 2", count)
	}
	if later != 1 {
		t.Fatal("Stop after the ticker ended cancelled an unrelated event")
	}
}
