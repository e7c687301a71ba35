package rtlink

import (
	"testing"

	"evm/internal/radio"
)

func BenchmarkIdleFrame8(b *testing.B) {
	eng, net := testNet(b, 8)
	net.Start()
	frame := net.Config().FrameDuration()
	_ = eng.RunUntil(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.RunUntil(eng.Now() + frame)
	}
}

// BenchmarkBroadcastFrame8 runs frames in which every node broadcasts one
// single-fragment message.
func BenchmarkBroadcastFrame8(b *testing.B) {
	eng, net := testNet(b, 8)
	net.Start()
	frame := net.Config().FrameDuration()
	payload := make([]byte, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := radio.NodeID(1); id <= 8; id++ {
			if err := net.Link(id).Send(Message{Dst: radio.Broadcast, Payload: payload}); err != nil {
				b.Fatal(err)
			}
		}
		_ = eng.RunUntil(eng.Now() + frame)
	}
}

// TestIdleFrameAllocs pins an idle TDMA frame at zero allocations: the
// slot plan, its callbacks and the frame-loop callbacks are bound once.
func TestIdleFrameAllocs(t *testing.T) {
	eng, net := testNet(t, 8)
	net.Start()
	frame := net.Config().FrameDuration()
	_ = eng.RunUntil(2 * frame)
	got := testing.AllocsPerRun(50, func() { _ = eng.RunUntil(eng.Now() + frame) })
	if got != 0 {
		t.Fatalf("allocs per idle frame = %v, want 0", got)
	}
}

// TestBroadcastFrameAllocs pins a frame in which each of 8 nodes
// broadcasts one single-fragment message at zero allocations: the 8×7
// receivers borrow the radio's payload buffer and rtlink delivers it as
// is.
func TestBroadcastFrameAllocs(t *testing.T) {
	eng, net := testNet(t, 8)
	net.Start()
	frame := net.Config().FrameDuration()
	payload := make([]byte, 48)
	run := func() {
		for id := radio.NodeID(1); id <= 8; id++ {
			if err := net.Link(id).Send(Message{Dst: radio.Broadcast, Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
		_ = eng.RunUntil(eng.Now() + frame)
	}
	run()
	if got := testing.AllocsPerRun(50, run); got != 0 {
		t.Fatalf("allocs per broadcast frame = %v, want 0", got)
	}
}
