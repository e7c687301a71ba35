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

// sensorFrame returns the gateway's sensor snapshot for the rig's port 0,
// preceded by a reading on another port and a stale reading on port 0 that
// the later one overrides.
func sensorFrame(tb testing.TB, value float64) rtlink.Message {
	tb.Helper()
	payload, err := wire.EncodeSensors([]wire.SensorReading{{Port: 0, Value: -1}, {Port: 3, Value: 7}, {Port: 0, Value: value}})
	if err != nil {
		tb.Fatal(err)
	}
	return rtlink.Message{Src: gwID, Dst: radio.Broadcast, Kind: wire.KindSensor, Payload: payload}
}

func BenchmarkOnSensor(b *testing.B) {
	r := newRig(b, defaultCfg())
	r.run(b, 5*time.Second)
	msg := sensorFrame(b, 50)
	n := r.nodes[ctrlB]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.onSensor(msg)
	}
}

// TestOnSensorAllocs pins a control cycle on a backup replica at one
// allocation: the health frame it broadcasts. Decoding the snapshot and
// finding the replica's reading allocate nothing.
func TestOnSensorAllocs(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.run(t, 5*time.Second)
	msg := sensorFrame(t, 50)
	n := r.nodes[ctrlB]
	if n.Role("lts") != wire.RoleBackup {
		t.Fatalf("ctrlB role %v, want backup", n.Role("lts"))
	}
	n.onSensor(msg)
	if got := testing.AllocsPerRun(100, func() { n.onSensor(msg) }); got != 1 {
		t.Fatalf("allocs per onSensor = %v, want 1", got)
	}
}

// TestReadingOnLastWins keeps the rule of the port map onSensor used to
// build: a repeated port reads as its last reading.
func TestReadingOnLastWins(t *testing.T) {
	rs := []wire.SensorReading{{Port: 0, Value: -1}, {Port: 3, Value: 7}, {Port: 0, Value: 50}}
	for _, c := range []struct {
		port uint8
		want float64
		ok   bool
	}{{0, 50, true}, {3, 7, true}, {1, 0, false}} {
		if got, ok := readingOn(rs, c.port); got != c.want || ok != c.ok {
			t.Errorf("readingOn(port %d) = %v, %v; want %v, %v", c.port, got, ok, c.want, c.ok)
		}
	}
	if _, ok := readingOn(nil, 0); ok {
		t.Error("readingOn(nil) found a reading")
	}
}
