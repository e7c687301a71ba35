package rtlink

import (
	"bytes"
	"testing"

	"evm/internal/radio"
	"evm/internal/sim"
)

const (
	dataMsg   Kind = 1
	fillerMsg Kind = 2
)

// reuseNet builds four nodes in range of each other on a perfect channel.
// Node 4 broadcasts a short filler message in slot 2 of every frame,
// between node 1's slot and node 2's, so the medium overwrites the buffer
// node 1's frame was delivered from in place. Data messages reaching
// nodes 2 and 3 are copied into the returned slices.
func reuseNet(t *testing.T) (*sim.Engine, *Network, map[radio.NodeID]*[][]byte) {
	t.Helper()
	eng := sim.New()
	rcfg := radio.DefaultConfig()
	rcfg.RefPER = 0
	rcfg.Burst = radio.GilbertElliott{}
	med := radio.NewMedium(eng, sim.NewRNG(3), rcfg)
	for i := 1; i <= 4; i++ {
		if _, err := med.Attach(radio.NodeID(i), radio.Position{X: float64(i)}, nil, radio.DefaultEnergyModel()); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	sched := Schedule{
		1: {Owner: 1, Listeners: []radio.NodeID{2}},
		2: {Owner: 4, Listeners: []radio.NodeID{2, 3}},
		3: {Owner: 2, Listeners: []radio.NodeID{3}},
	}
	net, err := NewNetwork(med, cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	got := map[radio.NodeID]*[][]byte{}
	for i := 1; i <= 4; i++ {
		l, err := net.Join(radio.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		msgs := &[][]byte{}
		got[l.ID()] = msgs
		l.SetHandler(func(m Message) {
			if m.Kind == dataMsg {
				*msgs = append(*msgs, bytes.Clone(m.Payload))
			}
		})
	}
	filler := bytes.Repeat([]byte{0xEE}, 8)
	for i := 0; i < 8; i++ {
		if err := net.Link(4).Send(Message{Dst: radio.Broadcast, Kind: fillerMsg, Payload: filler}); err != nil {
			t.Fatal(err)
		}
	}
	return eng, net, got
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 1)
	}
	return b
}

// TestRelayKeepsChunkAcrossBufferReuse: node 2 queues node 1's fragment
// for relay, node 4's filler then reuses the medium buffer it arrived in,
// and node 3 must still receive node 1's bytes.
func TestRelayKeepsChunkAcrossBufferReuse(t *testing.T) {
	eng, net, got := reuseNet(t)
	net.Link(1).SetRoute(3, 2)
	net.Link(2).SetRoute(3, 3)
	want := pattern(40)
	if err := net.Link(1).Send(Message{Dst: 3, Kind: dataMsg, Payload: want}); err != nil {
		t.Fatal(err)
	}
	net.Start()
	_ = eng.RunUntil(2 * net.Config().FrameDuration())
	if net.Link(2).Stats().FragsRelayed != 1 {
		t.Fatalf("relayed %d fragments, want 1", net.Link(2).Stats().FragsRelayed)
	}
	if msgs := *got[3]; len(msgs) != 1 || !bytes.Equal(msgs[0], want) {
		t.Fatalf("node 3 received %x, want one message %x", msgs, want)
	}
}

// TestReassemblyKeepsChunksAcrossBufferReuse: node 1's three fragments
// arrive one frame apart, and node 4's filler reuses the medium buffer
// after each; the reassembled message must still be node 1's bytes.
func TestReassemblyKeepsChunksAcrossBufferReuse(t *testing.T) {
	eng, net, got := reuseNet(t)
	want := pattern(2*net.Config().MaxPayload + 17)
	if err := net.Link(1).Send(Message{Dst: 2, Kind: dataMsg, Payload: want}); err != nil {
		t.Fatal(err)
	}
	net.Start()
	_ = eng.RunUntil(4 * net.Config().FrameDuration())
	if msgs := *got[2]; len(msgs) != 1 || !bytes.Equal(msgs[0], want) {
		t.Fatalf("node 2 received %x, want one message %x", msgs, want)
	}
}
