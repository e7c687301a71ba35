package core

import (
	"testing"
	"time"

	"evm/internal/radio"
	"evm/internal/rtlink"
	"evm/internal/wire"
)

// primaryHealth returns two health frames from the primary ctrlA, with
// consecutive sequence numbers and the backup's own output, so a backup
// judges each as fresh and healthy.
func primaryHealth(tb testing.TB, r *rig) [2]rtlink.Message {
	tb.Helper()
	out, ok := r.nodes[ctrlB].LastOutput("lts")
	if !ok {
		tb.Fatal("backup has no output yet")
	}
	var msgs [2]rtlink.Message
	for i := range msgs {
		payload, err := wire.HealthBundle{Node: uint16(ctrlA), Battery: 1, Records: []wire.HealthRecord{
			{TaskID: "lts", Role: wire.RoleActive, Seq: uint32(1000 + i), Output: out, HasOut: true},
		}}.Encode()
		if err != nil {
			tb.Fatal(err)
		}
		msgs[i] = rtlink.Message{Src: ctrlA, Dst: radio.Broadcast, Kind: wire.KindHealth, Payload: payload}
	}
	return msgs
}

func BenchmarkOnHealth(b *testing.B) {
	r := newRig(b, defaultCfg())
	r.run(b, 5*time.Second)
	msgs := primaryHealth(b, r)
	n := r.nodes[ctrlB]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.onHealth(msgs[i%2])
	}
}

// TestOnHealthAllocs pins health handling at zero allocations on a
// backup (lookup plus deviation check) and on the head (liveness and
// single-master bookkeeping).
func TestOnHealthAllocs(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.run(t, 5*time.Second)
	msgs := primaryHealth(t, r)
	for _, id := range []radio.NodeID{ctrlB, headID} {
		n := r.nodes[id]
		i := 0
		step := func() {
			n.onHealth(msgs[i%2])
			i++
		}
		step()
		if got := testing.AllocsPerRun(100, step); got != 0 {
			t.Fatalf("node %v: allocs per onHealth = %v, want 0", id, got)
		}
	}
	if got := r.nodes[ctrlB].Stats().FaultsReported; got != 0 {
		t.Fatalf("healthy primary frames raised %d fault reports", got)
	}
}
