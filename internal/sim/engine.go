// Package sim provides a deterministic discrete-event simulation engine.
//
// All higher layers (radio medium, RT-Link TDMA, the nano-RK task model,
// the EVM runtime and the gas-plant dynamics) run on the virtual clock
// provided by Engine. Nothing in the repository sleeps on the wall clock;
// every experiment is reproducible bit-for-bit from a PRNG seed.
package sim

import (
	"errors"
	"fmt"
	"time"

	"evm/internal/span"
)

// ErrHorizon is returned by RunUntil when the event queue drains before the
// requested horizon is reached.
var ErrHorizon = errors.New("sim: event queue drained before horizon")

// key orders events: by time, then priority, then scheduling order. The
// order is total, so the firing sequence depends neither on heap layout
// nor on which queue (heap or lane) holds an event.
type key struct {
	at   time.Duration
	prio int
	seq  uint64
}

func (a key) less(b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// event is one queued callback. Fired events go back to their engine's
// free list and are reused; gen counts the reuses so stale handles can be
// told apart from the event currently occupying the record.
type event struct {
	key
	fn       func()
	index    int // heap index, -1 once removed
	gen      uint64
	canceled bool
}

// Event is a handle to a scheduled callback, returned by Engine.At,
// Engine.AtPrio and Engine.After. The zero value means "no event".
// A handle stays valid after its event fires: cancelling it then is a
// no-op even though the engine has reused the record for a later event.
type Event struct {
	ev  *event
	gen uint64
}

// Canceled reports whether Cancel removed the event before it fired.
// Cancelled records are never reused, so the answer stays true.
func (h Event) Canceled() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.canceled
}

// Engine is a single-threaded discrete-event scheduler over virtual time.
// The zero value is not usable; construct with New.
type Engine struct {
	now   time.Duration
	queue []*event // binary min-heap under less
	// free holds fired event records for reuse. It never outgrows the
	// peak queue length, and being per engine it needs no locking.
	free []*event
	seq  uint64
	// lanes are the in-order queues created by NewLane. Dispatch merges
	// their heads with the heap top.
	lanes []*Lane
	// dispatched counts fired events, for exact per-run regression gates.
	dispatched uint64
	// tracer, when non-nil, records causal spans for this engine's run.
	// Every subsystem holding an engine reference reaches it through
	// Tracer(), so enabling tracing never changes constructor signatures.
	tracer *span.Tracer
}

// New returns an engine with the virtual clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// SetTracer attaches (or with nil detaches) a span tracer. Tracing is
// off by default; a nil tracer costs one pointer check per dispatch.
func (e *Engine) SetTracer(t *span.Tracer) { e.tracer = t }

// Tracer returns the attached span tracer, or nil when tracing is off.
func (e *Engine) Tracer() *span.Tracer { return e.tracer }

// Dispatched returns the number of events fired so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Pending returns the number of events still queued, on the heap and on
// every lane.
func (e *Engine) Pending() int {
	n := len(e.queue)
	for _, l := range e.lanes {
		n += len(l.evs) - l.head
	}
	return n
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// clamps to the current time (the event fires on the next Step).
func (e *Engine) At(t time.Duration, fn func()) Event {
	return e.atPrio(t, 0, fn)
}

// AtPrio schedules fn at time t with an explicit tie-break priority; among
// events at the same instant, lower prio fires first.
func (e *Engine) AtPrio(t time.Duration, prio int, fn func()) Event {
	return e.atPrio(t, prio, fn)
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) Event {
	return e.atPrio(e.now+d, 0, fn)
}

func (e *Engine) atPrio(t time.Duration, prio int, fn func()) Event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.prio, ev.seq, ev.fn = t, prio, e.seq, fn
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.up(ev.index)
	return Event{ev: ev, gen: ev.gen}
}

// Cancel removes a pending event. Cancelling the zero Event, an event
// that already fired or one already cancelled is a no-op.
func (e *Engine) Cancel(h Event) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.canceled || ev.index < 0 {
		return
	}
	ev.canceled = true
	e.remove(ev.index)
	ev.fn = nil
}

// next returns the key of the earliest pending event and where it waits:
// lane index i, or -1 for the heap. ok is false when nothing is pending.
func (e *Engine) next() (k key, lane int, ok bool) {
	lane = -1
	if len(e.queue) > 0 {
		k, ok = e.queue[0].key, true
	}
	for i, l := range e.lanes {
		if l.head == len(l.evs) {
			continue
		}
		if h := l.evs[l.head].key; !ok || h.less(k) {
			k, lane, ok = h, i, true
		}
	}
	return k, lane, ok
}

// Step fires the next event, advancing the clock to it. It returns false
// when nothing is pending.
func (e *Engine) Step() bool {
	_, lane, ok := e.next()
	if ok {
		e.dispatch(lane)
	}
	return ok
}

// dispatch fires the head of the given queue (a lane index, or -1 for the
// heap), which must be the earliest pending event.
func (e *Engine) dispatch(lane int) {
	var fn func()
	if lane < 0 {
		ev := e.remove(0)
		e.now = ev.at
		fn = ev.fn
		// Recycle before dispatch: the callback's own scheduling reuses
		// the record, and any handle to it is stale from here on.
		ev.fn = nil
		ev.gen++
		e.free = append(e.free, ev)
	} else {
		fn = e.lanes[lane].pop()
	}
	e.dispatched++
	if t := e.tracer; t != nil && t.Dispatch() {
		// Dispatch spans are zero-width in virtual time (the clock
		// does not advance inside a callback) but give every span
		// recorded within the callback its causal parent.
		id := t.Enter("dispatch", "sim", "engine", e.now)
		fn()
		t.Exit(id, e.now)
	} else {
		fn()
	}
}

// RunUntil executes events until the virtual clock reaches horizon. Events
// scheduled exactly at the horizon do not fire. The clock is left at the
// horizon on success. If the queue drains early the clock is advanced to the
// horizon and ErrHorizon is returned.
func (e *Engine) RunUntil(horizon time.Duration) error {
	for {
		k, lane, ok := e.next()
		if !ok {
			e.now = horizon
			return ErrHorizon
		}
		if k.at >= horizon {
			e.now = horizon
			return nil
		}
		e.dispatch(lane)
	}
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// remove takes the event at heap index i out of the queue and returns it.
func (e *Engine) remove(i int) *event {
	q := e.queue
	n := len(q) - 1
	ev := q[i]
	if i != n {
		q[i] = q[n]
		q[i].index = i
		if !e.down(i, n) {
			e.up(i)
		}
	}
	q[n] = nil
	e.queue = q[:n]
	ev.index = -1
	return ev
}

func (e *Engine) up(j int) {
	q := e.queue
	for j > 0 {
		i := (j - 1) / 2
		if !q[j].less(q[i].key) {
			break
		}
		q[i], q[j] = q[j], q[i]
		q[i].index = i
		q[j].index = j
		j = i
	}
}

// down sifts the element at i0 toward the leaves within q[:n] and reports
// whether it moved.
func (e *Engine) down(i0, n int) bool {
	q := e.queue
	i := i0
	for {
		l := 2*i + 1
		if l >= n || l < 0 {
			break
		}
		j := l
		if r := l + 1; r < n && q[r].less(q[l].key) {
			j = r
		}
		if !q[j].less(q[i].key) {
			break
		}
		q[i], q[j] = q[j], q[i]
		q[i].index = i
		q[j].index = j
		i = j
	}
	return i > i0
}

// Lane is an in-order event queue that the engine merges with its heap at
// dispatch. A schedule whose events are known in ascending order (a TDMA
// frame's slot boundaries) appends them here for O(1) each instead of
// sifting them through the heap. Lane events draw sequence numbers from
// the engine exactly as Engine.AtPrio does, so an event fires at the same
// point whichever queue holds it. They have no handle and cannot be
// cancelled.
type Lane struct {
	eng  *Engine
	evs  []laneEvent // pending events are evs[head:]
	head int
}

type laneEvent struct {
	key
	fn func()
}

// NewLane returns an empty lane on the engine.
func (e *Engine) NewLane() *Lane {
	l := &Lane{eng: e}
	e.lanes = append(e.lanes, l)
	return l
}

// AtPrio appends fn at time t with tie-break priority prio, with the
// clamping and ordering of Engine.AtPrio. It panics if the event would
// order before the lane's last pending event.
func (l *Lane) AtPrio(t time.Duration, prio int, fn func()) {
	e := l.eng
	if t < e.now {
		t = e.now
	}
	if n := len(l.evs); n > l.head {
		if last := l.evs[n-1]; t < last.at || t == last.at && prio < last.prio {
			panic(fmt.Sprintf("sim: lane event at (%v, %d) orders before pending (%v, %d)", t, prio, last.at, last.prio))
		}
	}
	if l.head > 0 && len(l.evs) == cap(l.evs) {
		// Reclaim the fired prefix before growing.
		n := copy(l.evs, l.evs[l.head:])
		clear(l.evs[n:])
		l.evs, l.head = l.evs[:n], 0
	}
	e.seq++
	l.evs = append(l.evs, laneEvent{key: key{t, prio, e.seq}, fn: fn})
}

// pop removes the lane's head, advances the clock to it and returns its
// callback. A drained lane rewinds so its storage is reused.
func (l *Lane) pop() func() {
	le := &l.evs[l.head]
	l.eng.now = le.at
	fn := le.fn
	le.fn = nil
	l.head++
	if l.head == len(l.evs) {
		l.evs, l.head = l.evs[:0], 0
	}
	return fn
}

// Ticker fires a callback at a fixed period until stopped.
type Ticker struct {
	eng    *Engine
	period time.Duration
	fn     func()
	tickFn func() // t.tick, bound once so rescheduling does not allocate
	ev     Event
	stop   bool
}

// Every schedules fn to fire every period, first at now+period.
// The returned Ticker must be stopped to release it.
func (e *Engine) Every(period time.Duration, fn func()) *Ticker {
	t := newTicker(e, period, fn)
	t.ev = e.After(period, t.tickFn)
	return t
}

// EveryAt is like Every but fires first at the absolute time first.
func (e *Engine) EveryAt(first, period time.Duration, fn func()) *Ticker {
	t := newTicker(e, period, fn)
	t.ev = e.At(first, t.tickFn)
	return t
}

func newTicker(e *Engine, period time.Duration, fn func()) *Ticker {
	t := &Ticker{eng: e, period: period, fn: fn}
	t.tickFn = t.tick
	return t
}

func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.fn()
	if !t.stop {
		t.ev = t.eng.After(t.period, t.tickFn)
	}
}

// Stop cancels the ticker; pending fires are removed. Stop may be called
// from the ticker's own callback and any number of times.
func (t *Ticker) Stop() {
	t.stop = true
	t.eng.Cancel(t.ev)
}
