package radio

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"evm/internal/sim"
	"evm/internal/span"
)

// State is the radio power state.
type State int

// Radio power states. Sleep is the deepest state; Idle means the MCU is
// awake with the radio off; RX and TX are the active radio states.
const (
	StateSleep State = iota + 1
	StateIdle
	StateRX
	StateTX
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateSleep:
		return "sleep"
	case StateIdle:
		return "idle"
	case StateRX:
		return "rx"
	case StateTX:
		return "tx"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// DropReason classifies why a frame was not delivered to a receiver.
type DropReason int

// Drop reasons recorded in Stats.
const (
	DropLoss DropReason = iota + 1 // stochastic channel loss
	DropCollision
	DropNotListening
	DropOutOfRange
)

// Config parameterizes the medium.
type Config struct {
	// BitrateBPS is the air data rate (802.15.4: 250 kbit/s).
	BitrateBPS float64
	// RangeM is the maximum communication distance.
	RangeM float64
	// RefPER is the packet error rate at RangeM/2 used by the
	// distance-loss curve (PER grows with distance^2 up to RangeM).
	RefPER float64
	// Burst enables a Gilbert-Elliott two-state burst-loss overlay.
	Burst GilbertElliott
	// PropDelay is a fixed propagation delay (effectively zero at
	// sensor-network scales but kept explicit).
	PropDelay time.Duration
}

// DefaultConfig returns 802.15.4-like parameters.
func DefaultConfig() Config {
	return Config{
		BitrateBPS: 250_000,
		RangeM:     30,
		RefPER:     0.02,
		Burst:      DefaultGilbertElliott(),
		PropDelay:  0,
	}
}

// GilbertElliott is a classical two-state burst-loss channel: in the Good
// state packets drop with PGood, in Bad with PBad; states flip with the
// given per-packet transition probabilities.
type GilbertElliott struct {
	PGood     float64 // loss probability in Good state
	PBad      float64 // loss probability in Bad state
	GoodToBad float64
	BadToGood float64
}

// DefaultGilbertElliott returns a mild burst-loss channel.
func DefaultGilbertElliott() GilbertElliott {
	return GilbertElliott{PGood: 0, PBad: 0.6, GoodToBad: 0.01, BadToGood: 0.25}
}

type linkState struct {
	bad bool
}

type linkKey struct{ a, b NodeID }

// Position is a 2-D node location in meters.
type Position struct{ X, Y float64 }

// Distance returns the Euclidean distance to q.
func (p Position) Distance(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Stats accumulates medium-wide counters.
type Stats struct {
	Sent         int
	Delivered    int
	DroppedLoss  int
	DroppedColl  int
	DroppedNoRX  int
	DroppedRange int
}

// Medium is the shared wireless channel. It owns all radios and performs
// propagation, loss and collision resolution on the simulation engine.
type Medium struct {
	eng    *sim.Engine
	rng    *sim.RNG
	cfg    Config
	radios map[NodeID]*Radio
	// order lists attached IDs sorted ascending. Every loss/collision
	// draw iterates radios through it so the PRNG stream assignment is
	// independent of map layout — same seed, byte-identical runs.
	order []NodeID
	links map[linkKey]*linkState
	stats Stats
	// forcedPER overrides the distance model when >= 0 (used by
	// experiments that sweep loss rates directly).
	forcedPER float64
	seq       uint32
	// topo counts Attach/Detach calls. A radio whose peer table was built
	// at an older topo rebuilds it before its next use.
	topo uint64
	// freeTx holds completed transmission records for reuse.
	freeTx []*transmission
}

// NewMedium creates a medium on the given engine with its own PRNG stream.
func NewMedium(eng *sim.Engine, rng *sim.RNG, cfg Config) *Medium {
	return &Medium{
		eng:       eng,
		rng:       rng,
		cfg:       cfg,
		radios:    make(map[NodeID]*Radio),
		links:     make(map[linkKey]*linkState),
		forcedPER: -1,
	}
}

// Engine returns the simulation engine the medium runs on.
func (m *Medium) Engine() *sim.Engine { return m.eng }

// Config returns the medium configuration.
func (m *Medium) Config() Config { return m.cfg }

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// ForcePER overrides the distance-based loss model with a fixed packet
// error rate on every link. Pass a negative value to restore the model.
func (m *Medium) ForcePER(per float64) { m.forcedPER = per }

// ForcedPER returns the forced packet error rate, or a negative value
// when the distance model is active.
func (m *Medium) ForcedPER() float64 { return m.forcedPER }

// Attach creates and registers a radio for the node, binding the energy
// model to the battery (which may be nil for a mains-powered node).
// Attaching a duplicate ID returns an error.
func (m *Medium) Attach(id NodeID, pos Position, battery *Battery, model EnergyModel) (*Radio, error) {
	if _, ok := m.radios[id]; ok {
		return nil, fmt.Errorf("radio: node %v already attached", id)
	}
	if battery != nil {
		battery.model = model
	}
	r := &Radio{
		id:        id,
		med:       m,
		pos:       pos,
		state:     StateSleep,
		lastSince: m.eng.Now(),
		battery:   battery,
	}
	m.radios[id] = r
	at := sort.Search(len(m.order), func(i int) bool { return m.order[i] >= id })
	m.order = append(m.order, 0)
	copy(m.order[at+1:], m.order[at:])
	m.order[at] = id
	m.topo++
	return r, nil
}

// Detach removes a node's radio from the medium (the rollback of Attach,
// used when a runtime admission fails partway). Frames still in flight
// toward the node are silently lost.
func (m *Medium) Detach(id NodeID) {
	if _, ok := m.radios[id]; !ok {
		return
	}
	delete(m.radios, id)
	at := sort.Search(len(m.order), func(i int) bool { return m.order[i] >= id })
	m.order = append(m.order[:at], m.order[at+1:]...)
	m.topo++
}

// Radio returns the radio attached for id, or nil.
func (m *Medium) Radio(id NodeID) *Radio { return m.radios[id] }

// Nodes returns the IDs of all attached radios in ascending order, so
// callers iterating the result stay deterministic without re-sorting.
func (m *Medium) Nodes() []NodeID {
	return sim.SortedKeys(m.radios)
}

func (m *Medium) link(a, b NodeID) *linkState {
	if a > b {
		a, b = b, a
	}
	k := linkKey{a, b}
	ls, ok := m.links[k]
	if !ok {
		ls = &linkState{}
		m.links[k] = ls
	}
	return ls
}

// peer is one other radio as a transmitter sees it. Positions are fixed
// after Attach, so range and distance loss are computed once per topology.
type peer struct {
	r       *Radio
	inRange bool
	per     float64    // distance-model packet error rate (in range only)
	link    *linkState // shared burst state of the pair (in range only)
}

// peersOf returns r's peer table: every other attached radio in m.order
// order, so per-receiver RNG draws keep their sequence. The table is
// rebuilt lazily after Attach/Detach, into a fresh slice so a walk over
// the old table is never disturbed.
func (m *Medium) peersOf(r *Radio) []peer {
	if r.peersTopo == m.topo {
		return r.peers
	}
	peers := make([]peer, 0, len(m.order))
	for _, id := range m.order {
		if id == r.id {
			continue
		}
		o := m.radios[id]
		p := peer{r: o}
		if d := r.pos.Distance(o.pos); d < m.cfg.RangeM {
			// Quadratic growth anchored so PER(Range/2) = RefPER.
			norm := d / (m.cfg.RangeM / 2)
			per := m.cfg.RefPER * norm * norm
			if per > 1 {
				per = 1
			}
			p.inRange, p.per, p.link = true, per, m.link(r.id, id)
		}
		peers = append(peers, p)
	}
	r.peers, r.peersTopo = peers, m.topo
	return peers
}

// airTime returns the on-air duration for n bytes.
func (m *Medium) airTime(bytes int) time.Duration {
	secs := float64(bytes*8) / m.cfg.BitrateBPS
	return time.Duration(secs * float64(time.Second))
}

// transmission tracks one frame in flight. Records are reused once the
// frame completes; done is bound to the record once, at allocation.
type transmission struct {
	pkt   Packet
	buf   []byte // the medium's copy of the payload, lent to every receiver
	from  *Radio
	start time.Duration
	end   time.Duration
	// collided lists receivers whose copy was destroyed; nil until the
	// first collision.
	collided []NodeID
	done     func()
}

func (tx *transmission) hasCollided(id NodeID) bool {
	for _, c := range tx.collided {
		if c == id {
			return true
		}
	}
	return false
}

// Transmit sends pkt from the radio. The caller must have put the radio in
// TX state; Transmit enforces this. Delivery callbacks fire at the end of
// the air time. The returned duration is the air time.
func (m *Medium) transmit(from *Radio, pkt Packet) (time.Duration, error) {
	if from.state != StateTX {
		return 0, fmt.Errorf("radio: node %v transmit in state %v", from.id, from.state)
	}
	m.seq++
	pkt.Seq = m.seq
	m.stats.Sent++
	air := m.airTime(pkt.AirBytes())
	var tx *transmission
	if n := len(m.freeTx); n > 0 {
		tx = m.freeTx[n-1]
		m.freeTx = m.freeTx[:n-1]
	} else {
		tx = &transmission{}
		tx.done = func() { m.complete(tx) }
	}
	now := m.eng.Now()
	if len(pkt.Payload) > 0 {
		// Keep a private copy so the sender may reuse its buffer.
		tx.buf = append(tx.buf[:0], pkt.Payload...)
		pkt.Payload = tx.buf
	}
	tx.pkt, tx.from, tx.start, tx.end = pkt, from, now, now+air
	if t := m.eng.Tracer(); t != nil {
		hop := "broadcast"
		if pkt.Hop != Broadcast {
			hop = strconv.Itoa(int(pkt.Hop))
		}
		t.Complete("tx", "radio", "radio", tx.start, tx.end+m.cfg.PropDelay,
			span.Arg{Key: "from", Val: strconv.Itoa(int(from.id))},
			span.Arg{Key: "hop", Val: hop},
			span.Arg{Key: "bytes", Val: strconv.Itoa(pkt.AirBytes())})
	}
	// Collision marking: any receiver already capturing another frame has
	// both frames destroyed.
	for _, p := range m.peersOf(from) {
		if !p.inRange {
			continue
		}
		r := p.r
		if r.capture != nil && now < r.capture.end {
			r.capture.collided = append(r.capture.collided, r.id)
			tx.collided = append(tx.collided, r.id)
			continue
		}
		r.capture = tx
	}
	m.eng.At(tx.end+m.cfg.PropDelay, tx.done)
	return air, nil
}

func (m *Medium) complete(tx *transmission) {
	for i, peers := 0, m.peersOf(tx.from); i < len(peers); i++ {
		p := &peers[i]
		if p.r.capture == tx {
			p.r.capture = nil
		}
		m.deliverTo(tx, p)
	}
	tx.pkt, tx.from, tx.collided = Packet{}, nil, tx.collided[:0]
	m.freeTx = append(m.freeTx, tx)
}

func (m *Medium) deliverTo(tx *transmission, p *peer) {
	r := p.r
	if tx.pkt.Hop != Broadcast && tx.pkt.Hop != r.id {
		return
	}
	if !p.inRange {
		m.stats.DroppedRange++
		r.drops[DropOutOfRange]++
		m.traceDrop(tx, r, "out-of-range")
		return
	}
	if tx.hasCollided(r.id) {
		m.stats.DroppedColl++
		r.drops[DropCollision]++
		m.traceDrop(tx, r, "collision")
		return
	}
	// The receiver must have been in RX for the whole frame.
	if r.state != StateRX || r.lastSince > tx.start {
		m.stats.DroppedNoRX++
		r.drops[DropNotListening]++
		return
	}
	if m.lossDraw(p) {
		m.stats.DroppedLoss++
		r.drops[DropLoss]++
		m.traceDrop(tx, r, "loss")
		return
	}
	m.stats.Delivered++
	r.received++
	if r.handler != nil {
		r.handler(tx.pkt)
	}
}

// traceDrop records a drop instant for the attached tracer. Not-listening
// drops are deliberately untraced: most radios sleep through most slots,
// so tracing them would bury the channel losses the histograms care about.
func (m *Medium) traceDrop(tx *transmission, r *Radio, reason string) {
	t := m.eng.Tracer()
	if t == nil {
		return
	}
	t.Instant("drop", "radio", "radio", m.eng.Now(),
		span.Arg{Key: "from", Val: strconv.Itoa(int(tx.from.id))},
		span.Arg{Key: "at", Val: strconv.Itoa(int(r.id))},
		span.Arg{Key: "reason", Val: reason})
}

// lossDraw decides whether the channel destroys the frame to an in-range
// peer, combining the distance PER with the Gilbert-Elliott burst overlay.
func (m *Medium) lossDraw(pr *peer) bool {
	ls := pr.link
	ge := m.cfg.Burst
	// State transition per packet.
	if ls.bad {
		if m.rng.Bool(ge.BadToGood) {
			ls.bad = false
		}
	} else if m.rng.Bool(ge.GoodToBad) {
		ls.bad = true
	}
	p := pr.per
	if m.forcedPER >= 0 {
		p = m.forcedPER
	}
	if ls.bad {
		p = 1 - (1-p)*(1-ge.PBad)
	} else if ge.PGood > 0 {
		p = 1 - (1-p)*(1-ge.PGood)
	}
	return m.rng.Bool(p)
}
