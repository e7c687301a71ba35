package radio

import (
	"testing"

	"evm/internal/sim"
)

// broadcastRig attaches one sender and n listening receivers, all in
// range of each other on a loss-free channel.
func broadcastRig(tb testing.TB, n int) (*sim.Engine, *Radio) {
	tb.Helper()
	eng := sim.New()
	m := NewMedium(eng, sim.NewRNG(1), perfectConfig())
	var tx *Radio
	for i := 0; i <= n; i++ {
		r, err := m.Attach(NodeID(i+1), Position{X: float64(i)}, NewBattery(2600), DefaultEnergyModel())
		if err != nil {
			tb.Fatal(err)
		}
		if i == 0 {
			tx = r
			continue
		}
		r.SetHandler(func(Packet) {})
		r.SetState(StateRX)
	}
	return eng, tx
}

const broadcastReceivers = 8

func BenchmarkBroadcast8(b *testing.B) {
	eng, tx := broadcastRig(b, broadcastReceivers)
	pkt := Packet{Dst: Broadcast, Payload: make([]byte, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Send(pkt); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}

// TestBroadcastAllocs pins one broadcast's steady-state allocations at
// zero: every receiver borrows the medium's payload buffer, and peer
// tables, transmission records and end-of-air callbacks are all reused.
func TestBroadcastAllocs(t *testing.T) {
	eng, tx := broadcastRig(t, broadcastReceivers)
	pkt := Packet{Dst: Broadcast, Payload: make([]byte, 64)}
	send := func() {
		if _, err := tx.Send(pkt); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	send()
	if got := testing.AllocsPerRun(200, send); got != 0 {
		t.Fatalf("allocs per broadcast = %v, want 0", got)
	}
}
