package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strconv"
	"time"

	"evm"
)

// counters folds the per-layer Stats() of one run, read at the horizon.
type counters struct {
	RadioTx, RadioDelivered, RadioDropLoss, RadioDropCollision, RadioDropNoRX, RadioDropRange int
	// RadioOutcomeMax bounds delivered+drops: every transmission reaches
	// at most every other radio on its medium.
	RadioOutcomeMax int

	RtlinkMsgsSent, RtlinkMsgsDelivered, RtlinkFragsSent, RtlinkFragsRelayed int
	RtlinkQueueDrops, RtlinkReserveDeferrals                                 int
	// RtlinkDeliveredMax bounds message deliveries: a message, broadcast
	// or not, reaches at most every other member of its cell.
	RtlinkDeliveredMax int

	CoreCycles, CoreHealthSent, CoreActuationsSent, CoreStaleInputs int
	CoreFailovers, CoreRoleChangesSent                              int

	// GatewaySensorBroadcasts is the gateway node's rtlink message count:
	// the gateway runtime sends nothing but sensor broadcasts.
	GatewaySensorBroadcasts int

	BackboneSent, BackboneDelivered, BackboneDropped, BackboneForwarded int
}

func (c *counters) add(o counters) {
	c.RadioTx += o.RadioTx
	c.RadioDelivered += o.RadioDelivered
	c.RadioDropLoss += o.RadioDropLoss
	c.RadioDropCollision += o.RadioDropCollision
	c.RadioDropNoRX += o.RadioDropNoRX
	c.RadioDropRange += o.RadioDropRange
	c.RadioOutcomeMax += o.RadioOutcomeMax
	c.RtlinkMsgsSent += o.RtlinkMsgsSent
	c.RtlinkMsgsDelivered += o.RtlinkMsgsDelivered
	c.RtlinkFragsSent += o.RtlinkFragsSent
	c.RtlinkFragsRelayed += o.RtlinkFragsRelayed
	c.RtlinkQueueDrops += o.RtlinkQueueDrops
	c.RtlinkReserveDeferrals += o.RtlinkReserveDeferrals
	c.RtlinkDeliveredMax += o.RtlinkDeliveredMax
	c.CoreCycles += o.CoreCycles
	c.CoreHealthSent += o.CoreHealthSent
	c.CoreActuationsSent += o.CoreActuationsSent
	c.CoreStaleInputs += o.CoreStaleInputs
	c.CoreFailovers += o.CoreFailovers
	c.CoreRoleChangesSent += o.CoreRoleChangesSent
	c.GatewaySensorBroadcasts += o.GatewaySensorBroadcasts
	c.BackboneSent += o.BackboneSent
	c.BackboneDelivered += o.BackboneDelivered
	c.BackboneDropped += o.BackboneDropped
	c.BackboneForwarded += o.BackboneForwarded
}

func (c *counters) radioOutcomes() int {
	return c.RadioDelivered + c.RadioDropLoss + c.RadioDropCollision + c.RadioDropNoRX + c.RadioDropRange
}

// check reports counter inconsistencies.
func (c *counters) check() []string {
	var bad []string
	if o := c.radioOutcomes(); o < c.RadioTx || o > c.RadioOutcomeMax {
		bad = append(bad, fmt.Sprintf("radio: delivered+drops=%d outside [tx=%d, tx*(radios-1)=%d]", o, c.RadioTx, c.RadioOutcomeMax))
	}
	if c.RtlinkMsgsDelivered > c.RtlinkDeliveredMax {
		bad = append(bad, fmt.Sprintf("rtlink: msgs_delivered=%d exceeds msgs_sent*(members-1)=%d", c.RtlinkMsgsDelivered, c.RtlinkDeliveredMax))
	}
	return bad
}

func readCounters(spec evm.RunSpec, exp *evm.Experiment) counters {
	var c counters
	cells := []*evm.Cell{exp.Cell}
	if exp.Campus != nil {
		cells = exp.Campus.Cells()
		bb := exp.Campus.Backbone().Stats()
		c.BackboneSent, c.BackboneDelivered = bb.Sent, bb.Delivered
		c.BackboneDropped, c.BackboneForwarded = bb.Dropped, bb.Forwarded
	}
	for _, cell := range cells {
		med := cell.Medium()
		rs := med.Stats()
		c.RadioTx += rs.Sent
		c.RadioDelivered += rs.Delivered
		c.RadioDropLoss += rs.DroppedLoss
		c.RadioDropCollision += rs.DroppedColl
		c.RadioDropNoRX += rs.DroppedNoRX
		c.RadioDropRange += rs.DroppedRange
		c.RadioOutcomeMax += rs.Sent * max(len(med.Nodes())-1, 0)
		members := cell.Members()
		for _, id := range members {
			l := cell.Network().Link(id)
			if l == nil {
				continue
			}
			ls := l.Stats()
			c.RtlinkMsgsSent += ls.MsgsSent
			c.RtlinkMsgsDelivered += ls.MsgsDelivered
			c.RtlinkFragsSent += ls.FragsSent
			c.RtlinkFragsRelayed += ls.FragsRelayed
			c.RtlinkQueueDrops += ls.QueueDrops
			c.RtlinkReserveDeferrals += ls.ReserveDeferrals
			c.RtlinkDeliveredMax += ls.MsgsSent * max(len(members)-1, 0)
			if spec.Scenario == evm.ScenarioGasPlant && id == evm.GasGatewayID {
				c.GatewaySensorBroadcasts += ls.MsgsSent
			}
		}
		for _, n := range cell.Nodes() {
			ns := n.Stats()
			c.CoreCycles += ns.CyclesRun
			c.CoreHealthSent += ns.HealthSent
			c.CoreActuationsSent += ns.ActuationsSent
			c.CoreStaleInputs += ns.StaleInputs
			if h := n.Head(); h != nil {
				hs := h.Stats()
				c.CoreFailovers += hs.Failovers
				c.CoreRoleChangesSent += hs.RoleChangesSent
			}
		}
	}
	return c
}

// runOutput is what one run produced: the simulated outputs that the
// digest covers, plus host timings that it does not.
type runOutput struct {
	err        string
	violations int
	metrics    map[string]float64
	series     map[string]int // event count per event type
	counters   *counters      // nil when the run went through evmd
	streamHash string         // evmd runs: hash of the NDJSON event stream

	dispatches int // engine dispatch spans (traced pass only)
	dropped    int // spans the tracer's cap rejected

	buildNS int64 // BuildScenario, through Runner.Build
	runNS   int64 // Runner.Instrument to its finish callback
	wallNS  int64 // whole RunOne, or POST to stream end on evmd
}

// digest hashes the run's simulated outputs: the sorted metric map, the
// event count per type, the per-layer counters when present, the event
// stream when it came from evmd, the error and the violation count.
func (o *runOutput) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "err=%s\nviolations=%d\n", o.err, o.violations)
	writeSorted(h, "metric", o.metrics, func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) })
	writeSorted(h, "events", o.series, strconv.Itoa)
	if o.counters != nil {
		fmt.Fprintf(h, "counters=%+v\n", *o.counters)
	}
	if o.streamHash != "" {
		fmt.Fprintf(h, "stream=%s\n", o.streamHash)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeSorted[V any](h hash.Hash, kind string, m map[string]V, format func(V) string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s=%s\n", kind, k, format(m[k]))
	}
}

// timedChecker measures the host time the invariant layer spends in
// Observe.
type timedChecker struct {
	evm.InvariantChecker
	ns *int64
}

func (t timedChecker) Observe(ev evm.Event) {
	start := time.Now()
	t.InvariantChecker.Observe(ev)
	*t.ns += int64(time.Since(start))
}

// harness drives serial runs through the Runner's public hooks: Build is
// timed, Checkers supplies DefaultInvariants, and Instrument counts events
// by type and reads every layer's Stats() at the horizon. Traced
// additionally turns on engine dispatch spans with the span cap lifted and
// times the checkers.
type harness struct {
	traced bool

	cur        *runOutput
	checkerNS  int64
	checkerEvs int64
	runner     *evm.Runner
}

func newHarness(traced bool) *harness {
	h := &harness{traced: traced}
	h.runner = &evm.Runner{
		Workers: 1,
		Build: func(spec evm.RunSpec) (*evm.Experiment, error) {
			start := time.Now()
			exp, err := evm.BuildScenario(spec)
			h.cur.buildNS = int64(time.Since(start))
			return exp, err
		},
		Checkers: func() []evm.InvariantChecker {
			cs := evm.DefaultInvariants()
			if h.traced {
				for i, c := range cs {
					cs[i] = timedChecker{InvariantChecker: c, ns: &h.checkerNS}
				}
			}
			return cs
		},
		Instrument: h.instrument,
	}
	return h
}

func (h *harness) instrument(spec evm.RunSpec, exp *evm.Experiment) func(map[string]float64) {
	start := time.Now()
	out := h.cur
	bus := exp.Cell.Events
	if exp.Campus != nil {
		bus = exp.Campus.Events
	}
	sub := bus().Subscribe(func(ev evm.Event) {
		out.series[evm.SeriesName(ev)]++
		if h.traced {
			h.checkerEvs++
		}
	})
	if h.traced {
		if exp.Campus != nil {
			exp.Campus.EnableTracing(spec.Seed)
		} else {
			exp.Cell.EnableTracing(spec.Seed)
		}
	}
	engine := exp.Cell.Engine
	if exp.Campus != nil {
		engine = exp.Campus.Engine
	}
	tracer := engine().Tracer()
	if tracer != nil {
		tracer.SetDispatch(true)
		tracer.SetMaxSpans(int(^uint(0) >> 1))
	}
	return func(map[string]float64) {
		sub.Cancel()
		c := readCounters(spec, exp)
		out.counters = &c
		if tracer != nil {
			for _, s := range tracer.Spans() {
				if s.Name == "dispatch" {
					out.dispatches++
				}
			}
			out.dropped = tracer.Dropped()
		}
		out.runNS = int64(time.Since(start))
	}
}

// run executes one spec serially and returns its outputs.
func (h *harness) run(spec evm.RunSpec) *runOutput {
	out := &runOutput{series: make(map[string]int)}
	h.cur = out
	start := time.Now()
	res := h.runner.RunOne(spec)
	out.wallNS = int64(time.Since(start))
	h.cur = nil
	if res.Err != nil {
		out.err = res.Err.Error()
	}
	out.violations = len(res.Violations)
	out.metrics = res.Metrics
	return out
}
