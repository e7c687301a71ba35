package sim

import (
	"math"
	"testing"
	"time"
)

// laneRig drives one engine through a seeded random mix of heap and lane
// events. Built with lanes, it appends each "lane" event to that lane;
// built without, it pushes the very same calls onto the heap, which makes
// it the all-heap reference. Both make identical RNG draws as long as
// their events fire in the same order.
type laneRig struct {
	e     *Engine
	rng   *RNG
	lanes []*Lane // nil for the reference
	// tail is each lane's last appended (at, prio), so generated lane
	// events stay in order; tracked alike with and without real lanes.
	tail  []key
	fired []int
	ids   int
	// horizon is the current RunUntil bound; late counts events fired
	// at or after it.
	horizon time.Duration
	late    int
}

func newLaneRig(seed uint64, nLanes int, real bool) *laneRig {
	r := &laneRig{e: New(), rng: NewRNG(seed), tail: make([]key, nLanes), horizon: math.MaxInt64}
	if real {
		for i := 0; i < nLanes; i++ {
			r.lanes = append(r.lanes, r.e.NewLane())
		}
	}
	return r
}

// schedule adds one random event: on the heap (possibly at a time already
// passed, which clamps) or appended to a random lane at or after that
// lane's tail, often tying it. A fired event sometimes schedules another.
func (r *laneRig) schedule() {
	id := r.ids
	r.ids++
	fn := func() {
		r.fired = append(r.fired, id)
		if r.e.Now() >= r.horizon {
			r.late++
		}
		if r.ids < 3000 && r.rng.Intn(3) == 0 {
			r.schedule()
		}
	}
	lane := r.rng.Intn(len(r.tail)+1) - 1
	if lane < 0 {
		at := r.e.Now() + time.Duration(r.rng.Intn(40)-5)*time.Microsecond
		r.e.AtPrio(at, r.rng.Intn(3)-1, fn)
		return
	}
	tail := r.tail[lane]
	at := max(tail.at, r.e.Now()) + time.Duration(r.rng.Intn(3))*5*time.Microsecond
	prio := r.rng.Intn(3) - 1
	if at == tail.at && prio < tail.prio {
		prio = tail.prio
	}
	r.tail[lane] = key{at: at, prio: prio}
	if r.lanes == nil {
		r.e.AtPrio(at, prio, fn)
	} else {
		r.lanes[lane].AtPrio(at, prio, fn)
	}
}

// TestLanesMatchAllHeapEngine: random mixes of heap and lane events over
// several lanes, with equal (at, prio) ties across lanes and horizons on
// a pending lane event's time, fire in the same order as the all-heap
// reference, with the same Pending, RunUntil, Now and Dispatched results.
func TestLanesMatchAllHeapEngine(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		nLanes := 1 + int(seed%4)
		got, ref := newLaneRig(seed, nLanes, true), newLaneRig(seed, nLanes, false)
		pick := NewRNG(seed ^ 0xabcdef)
		for phase := 0; phase < 6; phase++ {
			for i := 0; i < 50; i++ {
				got.schedule()
				ref.schedule()
			}
			if got.e.Pending() != ref.e.Pending() {
				t.Fatalf("seed %d phase %d: Pending %d, reference %d", seed, phase, got.e.Pending(), ref.e.Pending())
			}
			// Horizon on a pending lane head when there is one, so events
			// exactly at the horizon must stay queued.
			horizon := got.e.Now() + time.Duration(pick.Intn(60))*time.Microsecond
			for _, l := range got.lanes {
				if l.head < len(l.evs) && pick.Intn(2) == 0 {
					horizon = l.evs[l.head].at
					break
				}
			}
			got.horizon, ref.horizon = horizon, horizon
			errGot, errRef := got.e.RunUntil(horizon), ref.e.RunUntil(horizon)
			got.horizon, ref.horizon = math.MaxInt64, math.MaxInt64
			if errGot != errRef {
				t.Fatalf("seed %d phase %d: RunUntil = %v, reference %v", seed, phase, errGot, errRef)
			}
			if got.late != 0 {
				t.Fatalf("seed %d phase %d: %d events fired at or after the horizon", seed, phase, got.late)
			}
			if got.e.Now() != ref.e.Now() || got.e.Pending() != ref.e.Pending() {
				t.Fatalf("seed %d phase %d: now %v pending %d, reference now %v pending %d",
					seed, phase, got.e.Now(), got.e.Pending(), ref.e.Now(), ref.e.Pending())
			}
		}
		got.e.Run()
		ref.e.Run()
		if len(got.fired) != len(ref.fired) || got.e.Pending() != 0 || ref.e.Pending() != 0 {
			t.Fatalf("seed %d: fired %d (pending %d), reference %d (pending %d)",
				seed, len(got.fired), got.e.Pending(), len(ref.fired), ref.e.Pending())
		}
		for i := range ref.fired {
			if got.fired[i] != ref.fired[i] {
				t.Fatalf("seed %d: dispatch %d fired event %d, reference %d", seed, i, got.fired[i], ref.fired[i])
			}
		}
		if got.e.Dispatched() != uint64(len(got.fired)) || ref.e.Dispatched() != got.e.Dispatched() {
			t.Fatalf("seed %d: Dispatched %d, reference %d, fired %d", seed, got.e.Dispatched(), ref.e.Dispatched(), len(got.fired))
		}
	}
}

// TestLaneEqualKeysAcrossLanes: events with equal (at, prio) on two lanes
// and the heap fire in scheduling order, after a lower priority at the
// same time.
func TestLaneEqualKeysAcrossLanes(t *testing.T) {
	e := New()
	a, b := e.NewLane(), e.NewLane()
	var got []string
	add := func(name string) func() { return func() { got = append(got, name) } }
	b.AtPrio(time.Millisecond, 0, add("b1"))
	e.AtPrio(time.Millisecond, 0, add("heap"))
	a.AtPrio(time.Millisecond, 0, add("a1"))
	b.AtPrio(time.Millisecond, 0, add("b2"))
	e.AtPrio(time.Millisecond, -1, add("heap-first"))
	e.Run()
	want := []string{"heap-first", "b1", "heap", "a1", "b2"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestLaneAppendAfterDrain: once a lane's events have fired, the next
// append only has to respect the clock, not the fired tail, and a time in
// the past clamps to now as on the heap.
func TestLaneAppendAfterDrain(t *testing.T) {
	e := New()
	l := e.NewLane()
	var at []time.Duration
	record := func() { at = append(at, e.Now()) }
	l.AtPrio(time.Millisecond, 1, record)
	e.At(2*time.Millisecond, record)
	_ = e.RunUntil(time.Millisecond + 1)
	l.AtPrio(0, -1, record)
	e.Run()
	want := []time.Duration{time.Millisecond, time.Millisecond + 1, 2 * time.Millisecond}
	if len(at) != len(want) || at[0] != want[0] || at[1] != want[1] || at[2] != want[2] {
		t.Fatalf("fired at %v, want %v", at, want)
	}
}

// TestLaneOutOfOrderAppendPanics: an append ordering before the lane's
// last pending event panics, by time or by priority at equal time.
func TestLaneOutOfOrderAppendPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		at   time.Duration
		prio int
	}{
		{"earlier time", time.Millisecond, 5},
		{"lower priority at equal time", 2 * time.Millisecond, -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			l := e.NewLane()
			l.AtPrio(2*time.Millisecond, 0, func() {})
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-order append did not panic")
				}
			}()
			l.AtPrio(c.at, c.prio, func() {})
		})
	}
}
