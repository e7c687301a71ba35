package radio

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"evm/internal/sim"
)

// topologyChurnCounts drives a lossy medium through frames in flight
// while radios attach and detach, and renders every counter.
func topologyChurnCounts(t *testing.T) string {
	t.Helper()
	eng := sim.New()
	m := NewMedium(eng, sim.NewRNG(9), DefaultConfig())
	radios := map[NodeID]*Radio{}
	add := func(id NodeID, x float64) {
		r, err := m.Attach(id, Position{X: x}, nil, DefaultEnergyModel())
		if err != nil {
			t.Fatal(err)
		}
		r.SetHandler(func(Packet) {})
		r.SetState(StateRX)
		radios[id] = r
	}
	send := func(from, dst NodeID, n int) {
		r := m.Radio(from)
		if r == nil {
			return
		}
		if _, err := r.Send(Packet{Dst: dst, Payload: make([]byte, n)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []NodeID{1, 2, 3, 4, 5} {
		add(id, float64(id)*6)
	}
	add(40, 80) // out of everyone's range
	for round := 0; round < 40; round++ {
		base := time.Duration(round) * 20 * time.Millisecond
		eng.At(base, func() { send(1, Broadcast, 60) })
		// Attach mid-flight: one in range, one far away.
		eng.At(base+500*time.Microsecond, func() {
			add(NodeID(100+round), 9)
			add(NodeID(200+round), 500)
		})
		// Detach a receiver mid-flight.
		eng.At(base+time.Millisecond, func() { m.Detach(NodeID(100 + round)) })
		eng.At(base+5*time.Millisecond, func() { send(2, 3, 40) })
		eng.At(base+5500*time.Microsecond, func() { send(4, Broadcast, 40) }) // collides
		// Replace the sender of a frame still in flight.
		eng.At(base+6*time.Millisecond, func() {
			if round%3 == 0 {
				m.Detach(4)
				add(4, 24)
			}
		})
		eng.At(base+12*time.Millisecond, func() {
			send(5, Broadcast, 20)
			m.Detach(NodeID(200 + round))
		})
	}
	eng.Run()
	var b strings.Builder
	fmt.Fprintf(&b, "%+v", m.Stats())
	for _, id := range m.Nodes() {
		r := m.Radio(id)
		fmt.Fprintf(&b, " %d:%d/%d/%d/%d/%d", id, r.Received(),
			r.Drops(DropLoss), r.Drops(DropCollision), r.Drops(DropNotListening), r.Drops(DropOutOfRange))
	}
	return b.String()
}

// TestTopologyChangeMidFlight pins delivery and drop counts when radios
// attach and detach while frames are in the air. The expected string was
// recorded from the map-walking medium that predates per-radio peer
// tables, so it also proves the lazy tables change no outcome.
func TestTopologyChangeMidFlight(t *testing.T) {
	got := topologyChurnCounts(t)
	const want = "{Sent:160 Delivered:305 DroppedLoss:15 DroppedColl:160 DroppedNoRX:40 DroppedRange:200}" +
		" 1:39/1/40/0/0 2:76/4/0/40/0 3:79/1/80/0/0 4:1/0/0/0/0 5:40/0/40/0/0 40:0/0/0/0/120"
	if got != want {
		t.Fatalf("counts drifted:\n got %s\nwant %s", got, want)
	}
}
