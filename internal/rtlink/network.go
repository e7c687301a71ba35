package rtlink

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"time"

	"evm/internal/radio"
	"evm/internal/sim"
	"evm/internal/span"
)

// dataKind is the radio.Kind used for RT-Link data frames.
const dataKind radio.Kind = 1

// Network drives the TDMA frame structure for a set of links sharing a
// medium. One Network corresponds to one synchronized RT-Link cell.
type Network struct {
	eng   *sim.Engine
	med   *radio.Medium
	cfg   Config
	sched Schedule
	links map[radio.NodeID]*Link
	// members holds the joined links sorted by node ID. Frame-loop state
	// changes (reserve replenish, sync wake/sleep) iterate it instead of
	// the links map: map order is randomized, and per-frame radio state
	// transitions must land in the same order every run.
	members []*Link
	// plan is sched compiled for the frame loop, built at the first frame
	// after NewNetwork or SetSchedule.
	plan *slotPlan
	// membership counts Join/Leave calls; a plan resolved at an older
	// count re-resolves its link pointers before use.
	membership uint64
	frame      uint64
	// lane carries each frame's sync-sleep and slot open/close events,
	// which runFrame appends in ascending order. Created by Start.
	lane *sim.Lane
	// runFrameFn and syncSleepFn are the frame-loop callbacks, bound once
	// by Start.
	runFrameFn  func()
	syncSleepFn func()

	started bool
	stopped bool
}

// slotPlan is one schedule ready for the frame loop: its slots in
// ascending order, each with its link pointers and its open and close
// callbacks. A frame captures the plan it started with, so SetSchedule
// applies from the next frame.
type slotPlan struct {
	slots      []plannedSlot
	membership uint64
}

type plannedSlot struct {
	slot      int
	as        SlotAssign
	owner     *Link   // nil when the owner has not joined
	listeners []*Link // parallel to as.Listeners; nil entries not joined
	open      func()
	close     func()
}

// NewNetwork creates a TDMA network over the medium. The schedule may be
// replaced at runtime with SetSchedule.
func NewNetwork(med *radio.Medium, cfg Config, sched Schedule) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sched.Validate(cfg); err != nil {
		return nil, err
	}
	// A maximal fragment must fit on air inside one slot, or listeners
	// would sleep mid-frame and every full slot would be lost.
	airBytes := cfg.MaxPayload + fragHeaderLen + radio.Overhead
	airTime := time.Duration(float64(airBytes*8) / med.Config().BitrateBPS * float64(time.Second))
	if airTime > cfg.SlotDuration {
		return nil, fmt.Errorf("rtlink: max fragment air time %v exceeds slot %v", airTime, cfg.SlotDuration)
	}
	return &Network{
		eng:   med.Engine(),
		med:   med,
		cfg:   cfg,
		sched: sched,
		links: make(map[radio.NodeID]*Link),
	}, nil
}

// Config returns the frame configuration.
func (n *Network) Config() Config { return n.cfg }

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Frame returns the number of frames started so far.
func (n *Network) Frame() uint64 { return n.frame }

// Schedule returns the current slot schedule.
func (n *Network) Schedule() Schedule { return n.sched }

// SetSchedule swaps the slot schedule; it takes effect at the next frame
// boundary (the EVM uses this for runtime slot reassignment).
func (n *Network) SetSchedule(s Schedule) error {
	if err := s.Validate(n.cfg); err != nil {
		return err
	}
	n.sched = s
	n.plan = nil
	return nil
}

// Join creates the link layer for a node whose radio is already attached
// to the medium.
func (n *Network) Join(id radio.NodeID) (*Link, error) {
	r := n.med.Radio(id)
	if r == nil {
		return nil, fmt.Errorf("rtlink: node %v has no radio on the medium", id)
	}
	if _, ok := n.links[id]; ok {
		return nil, fmt.Errorf("rtlink: node %v already joined", id)
	}
	l := &Link{
		net:    n,
		r:      r,
		reasm:  newReassembler(),
		routes: make(map[radio.NodeID]radio.NodeID),
	}
	r.SetHandler(l.onFrame)
	n.links[id] = l
	at, _ := slices.BinarySearchFunc(n.members, id, func(m *Link, id radio.NodeID) int { return cmp.Compare(m.ID(), id) })
	n.members = slices.Insert(n.members, at, l)
	n.membership++
	return l, nil
}

// Leave removes a node's link layer (the rollback of Join, used when a
// runtime admission fails partway). The node's radio stays attached; the
// caller decides whether to detach it from the medium as well.
func (n *Network) Leave(id radio.NodeID) {
	l, ok := n.links[id]
	if !ok {
		return
	}
	l.r.SetHandler(nil)
	delete(n.links, id)
	if i := slices.Index(n.members, l); i >= 0 {
		n.members = slices.Delete(n.members, i, i+1)
	}
	n.membership++
}

// Link returns the link layer for id, or nil.
func (n *Network) Link(id radio.NodeID) *Link { return n.links[id] }

// Start begins the TDMA frame loop at the current virtual time.
func (n *Network) Start() {
	if n.started {
		return
	}
	n.started = true
	n.lane = n.eng.NewLane()
	n.runFrameFn = n.runFrame
	n.syncSleepFn = n.syncSleep
	n.eng.At(n.eng.Now(), n.runFrameFn)
}

// Stop halts the frame loop after the current frame completes.
func (n *Network) Stop() { n.stopped = true }

// compile builds the plan for the current schedule. Slots are kept in
// ascending order so engine insertion order (the tie-break for same-time,
// same-priority events) never depends on map order, and so a frame's slot
// events reach the lane in ascending time.
func (n *Network) compile() *slotPlan {
	p := &slotPlan{slots: make([]plannedSlot, 0, len(n.sched))}
	for _, slot := range sim.SortedKeys(n.sched) {
		p.slots = append(p.slots, plannedSlot{slot: slot, as: n.sched[slot]})
	}
	for i := range p.slots {
		ps := &p.slots[i]
		ps.listeners = make([]*Link, len(ps.as.Listeners))
		ps.open = func() { n.openSlot(p, ps) }
		ps.close = func() { n.closeSlot(p, ps) }
	}
	n.resolve(p)
	return p
}

// resolve points the plan's slots at the currently joined links.
func (n *Network) resolve(p *slotPlan) {
	for i := range p.slots {
		ps := &p.slots[i]
		ps.owner = n.links[ps.as.Owner]
		for j, id := range ps.as.Listeners {
			ps.listeners[j] = n.links[id]
		}
	}
	p.membership = n.membership
}

func (n *Network) runFrame() {
	if n.stopped {
		return
	}
	frameStart := n.eng.Now()
	n.frame++
	active := (n.frame-1)%uint64(n.cfg.ActiveFrameEvery) == 0
	if t := n.eng.Tracer(); t != nil && active {
		t.Complete("frame", "rtlink", "rtlink", frameStart, frameStart+n.cfg.FrameDuration(),
			span.Arg{Key: "frame", Val: strconv.FormatUint(n.frame, 10)})
	}
	for _, l := range n.members {
		l.txThisFrame = 0 // replenish network reserves
	}
	if active {
		// Sync slot: every live node wakes to catch the AM pulse.
		n.med.Sync()
		for _, l := range n.members {
			if !l.r.Failed() {
				l.r.SetState(radio.StateRX)
			}
		}
		// Lane order: sync sleep (F+S, -1), then per slot k open
		// (F+kS, 0) and close (F+(k+1)S, -1), with k ascending.
		n.lane.AtPrio(frameStart+n.cfg.SlotDuration, -1, n.syncSleepFn)
		if n.plan == nil {
			n.plan = n.compile()
		}
		tracer := n.eng.Tracer()
		for i := range n.plan.slots {
			ps := &n.plan.slots[i]
			at := frameStart + time.Duration(ps.slot)*n.cfg.SlotDuration
			if tracer != nil {
				tracer.Complete("slot", "rtlink", "rtlink", at, at+n.cfg.SlotDuration,
					span.Arg{Key: "slot", Val: strconv.Itoa(ps.slot)},
					span.Arg{Key: "owner", Val: strconv.Itoa(int(ps.as.Owner))})
			}
			n.lane.AtPrio(at, 0, ps.open)
			n.lane.AtPrio(at+n.cfg.SlotDuration, -1, ps.close)
		}
	}
	n.eng.At(frameStart+n.cfg.FrameDuration(), n.runFrameFn)
}

// syncSleep ends the sync slot: every live node goes back to sleep.
func (n *Network) syncSleep() {
	for _, l := range n.members {
		if !l.r.Failed() {
			l.r.SetState(radio.StateSleep)
		}
	}
}

// openSlot wakes the listeners and fires the owner's transmission.
func (n *Network) openSlot(p *slotPlan, ps *plannedSlot) {
	if p.membership != n.membership {
		n.resolve(p)
	}
	for _, l := range ps.listeners {
		if l != nil && !l.r.Failed() {
			l.r.SetState(radio.StateRX)
		}
	}
	if owner := ps.owner; owner != nil && !owner.r.Failed() {
		owner.transmitNext()
	}
}

// closeSlot returns all participants to sleep.
func (n *Network) closeSlot(p *slotPlan, ps *plannedSlot) {
	if p.membership != n.membership {
		n.resolve(p)
	}
	for _, l := range ps.listeners {
		if l != nil && !l.r.Failed() {
			l.r.SetState(radio.StateSleep)
		}
	}
	if owner := ps.owner; owner != nil && !owner.r.Failed() {
		owner.r.SetState(radio.StateSleep)
	}
}
