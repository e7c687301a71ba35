package evmd

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"evm"
)

// EventRecord is one streamed event line: the run's virtual timestamp,
// the cell the event is attributed to (campus streams; "" for
// single-cell runs), the event's telemetry series and its stable
// one-line rendering. Event strings are byte-identical across equal-seed
// runs, so two subscribers — or two tenants — comparing streams see
// exactly the library's determinism guarantee.
type EventRecord struct {
	T      float64 `json:"t"` // virtual seconds
	Cell   string  `json:"cell,omitempty"`
	Series string  `json:"series"`
	Event  string  `json:"event"`
}

// Sample is one flat telemetry measurement in the vpnctl-Metric style:
// every field is a column, ready for CSV or a TSDB row. The daemon emits
// one cumulative-count sample per event on its (cell, series) pair —
// per-cell load, backbone drops, rollout phases — plus one sample per
// final run metric (failover latency, qos_coverage, ...) stamped at the
// horizon with series "metric.<name>".
type Sample struct {
	T        float64 `json:"t"` // virtual seconds
	Run      string  `json:"run"`
	Tenant   string  `json:"tenant"`
	Scenario string  `json:"scenario"`
	Seed     uint64  `json:"seed"`
	Cell     string  `json:"cell,omitempty"`
	Series   string  `json:"series"`
	Value    float64 `json:"value"`
}

// sampleSeries refines evm.SeriesName for telemetry: backbone drops get
// their own series (the bus folds deliver/drop into one event type), and
// rollout events carry their phase as the series suffix so a dashboard
// can plot rollout progress directly.
func sampleSeries(ev evm.Event) string {
	if ce, ok := ev.(evm.CellEvent); ok {
		return sampleSeries(ce.Inner)
	}
	switch e := ev.(type) {
	case evm.BackboneEvent:
		if e.Kind == evm.BackboneDrop {
			return "backbone_drops"
		}
	case evm.RolloutEvent:
		return "rollout_phase." + string(e.Phase)
	}
	return evm.SeriesName(ev)
}

// stream is one run's append-only observation log: the typed bus events
// for streaming subscribers, plus the final metrics once the run ends.
// Event records and telemetry samples are derived from those on read
// rather than stored, so a finished run kept for replay holds each event
// once, as the immutable value the bus published. Writers (the run's
// worker goroutine) append under mu; readers follow the log by index and
// block on cond until more arrives or the stream closes, and format
// outside the lock so they never stall the simulation. Late subscribers
// replay from the start — runs are deterministic and bounded, so
// replay-from-zero is both cheap and the property the determinism tests
// lean on.
type stream struct {
	mu      sync.Mutex
	cond    *sync.Cond
	events  []evm.Event
	metrics map[string]float64 // the run's final metrics, shared with Run
	horizon float64            // virtual seconds at finalize
	closed  bool
}

func newStream() *stream {
	s := &stream{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// cellOf returns the cell a campus event is attributed to ("" for
// single-cell runs).
func cellOf(ev evm.Event) string {
	if ce, ok := ev.(evm.CellEvent); ok {
		return ce.Cell
	}
	return ""
}

// record renders one bus event as its stream line.
func record(ev evm.Event) EventRecord {
	return EventRecord{
		T:      ev.When().Seconds(),
		Cell:   cellOf(ev),
		Series: sampleSeries(ev),
		Event:  ev.String(),
	}
}

// observe appends one bus event to the log. It runs synchronously on the
// simulation goroutine, so ordering is the bus's deterministic publication
// order. Bus events are values whose slices are never written after
// publication, so the log keeps them as they are.
func (s *stream) observe(ev evm.Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// finalize records the run's final metrics, stamped at the horizon. The
// map is the Runner's result and is not modified afterwards.
func (s *stream) finalize(now time.Duration, metrics map[string]float64) {
	s.mu.Lock()
	s.metrics = metrics
	s.horizon = now.Seconds()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// close ends the stream; blocked readers drain and return. The log is
// copied to its exact length, since a closed run may be kept for replay
// long after. Idempotent.
func (s *stream) close() {
	s.mu.Lock()
	if !s.closed {
		s.events = append(make([]evm.Event, 0, len(s.events)), s.events...)
		s.closed = true
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// next returns the record at index i, blocking until it exists. ok is
// false once the stream is closed and fully drained, or when cancel
// (checked after every wakeup) reports the reader is gone; callers pair
// it with a goroutine that broadcasts on context cancellation.
func (s *stream) next(i int, cancelled func() bool) (EventRecord, bool) {
	s.mu.Lock()
	for i >= len(s.events) {
		if s.closed || (cancelled != nil && cancelled()) {
			s.mu.Unlock()
			return EventRecord{}, false
		}
		s.cond.Wait()
	}
	ev := s.events[i]
	s.mu.Unlock()
	return record(ev), true
}

// ready reports, without blocking, whether next(i) would return at
// once: record i exists or the stream is closed.
func (s *stream) ready(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return i < len(s.events) || s.closed
}

// wake re-broadcasts the stream condition (used to unblock readers when
// their HTTP context is cancelled).
func (s *stream) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// lens returns the current event and sample counts.
func (s *stream) lens() (events, samples int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events), len(s.events) + len(s.metrics)
}

// snapshotEvents renders the event records seen so far. The slice taken
// under the lock shares the log's storage, which appends only extend and
// close replaces, so it is formatted after unlocking.
func (s *stream) snapshotEvents() []EventRecord {
	s.mu.Lock()
	events := s.events[:len(s.events):len(s.events)]
	s.mu.Unlock()
	out := make([]EventRecord, len(events))
	for i, ev := range events {
		out[i] = record(ev)
	}
	return out
}

// samples derives the run's flat telemetry so far: one cumulative
// (cell, series) count sample per event, then one sample per final
// metric at the horizon, in key order so the log is byte-deterministic.
func (s *stream) samples(run *Run) []Sample {
	s.mu.Lock()
	events, metrics, horizon := s.events[:len(s.events):len(s.events)], s.metrics, s.horizon
	s.mu.Unlock()
	out := make([]Sample, 0, len(events)+len(metrics))
	counts := make(map[string]float64)
	for _, ev := range events {
		cell, series := cellOf(ev), sampleSeries(ev)
		key := cell + "|" + series
		counts[key]++
		out = append(out, Sample{
			T:        ev.When().Seconds(),
			Run:      run.ID,
			Tenant:   run.Tenant,
			Scenario: run.Spec.Scenario,
			Seed:     run.Spec.Seed,
			Cell:     cell,
			Series:   series,
			Value:    counts[key],
		})
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, Sample{
			T:        horizon,
			Run:      run.ID,
			Tenant:   run.Tenant,
			Scenario: run.Spec.Scenario,
			Seed:     run.Spec.Seed,
			Series:   "metric." + k,
			Value:    metrics[k],
		})
	}
	return out
}

// Events returns the run's streamed event records so far (all of them
// once the run finishes).
func (r *Run) Events() []EventRecord { return r.stream.snapshotEvents() }

// Samples returns the run's flat telemetry samples so far.
func (r *Run) Samples() []Sample { return r.stream.samples(r) }

// WriteSamplesCSV renders samples as one flat CSV table
// (t,run,tenant,scenario,seed,cell,series,value).
func WriteSamplesCSV(w io.Writer, samples []Sample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t", "run", "tenant", "scenario", "seed", "cell", "series", "value"}); err != nil {
		return err
	}
	for _, sm := range samples {
		rec := []string{
			strconv.FormatFloat(sm.T, 'g', -1, 64),
			sm.Run, sm.Tenant, sm.Scenario,
			strconv.FormatUint(sm.Seed, 10),
			sm.Cell, sm.Series,
			strconv.FormatFloat(sm.Value, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SerialEvents executes the spec synchronously on the calling goroutine
// — no daemon, no queue — and returns exactly the event records evmd
// would stream for it. This is the reference side of the multi-tenant
// determinism guarantee: a run streamed through the daemon under load
// must be byte-identical to its SerialEvents output. evmload -verify and
// the evmd test suite both compare against it.
func SerialEvents(spec evm.RunSpec) ([]EventRecord, error) {
	ref := &Run{ID: "serial", Tenant: "serial", Spec: spec, stream: newStream()}
	runner := &evm.Runner{
		Workers: 1,
		Instrument: func(_ evm.RunSpec, exp *evm.Experiment) func(map[string]float64) {
			sub := exp.Bus().Subscribe(func(ev evm.Event) { ref.stream.observe(ev) })
			return func(map[string]float64) { sub.Cancel() }
		},
	}
	res := runner.RunOne(spec)
	if res.Err != nil {
		return nil, res.Err
	}
	ref.stream.close()
	return ref.stream.snapshotEvents(), nil
}
