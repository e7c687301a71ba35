package wire

import "testing"

func benchBundle() HealthBundle {
	return HealthBundle{
		Node:    3,
		Battery: 0.9,
		Records: []HealthRecord{
			{TaskID: "lts-level", Role: RoleActive, Seq: 12, Output: 42.5, HasOut: true},
			{TaskID: "chiller-temp", Role: RoleBackup, Seq: 11, Output: 50.1, HasOut: true},
		},
	}
}

func BenchmarkHealthBundleEncode(b *testing.B) {
	hb := benchBundle()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hb.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHealthBundleDecode(b *testing.B) {
	frame, err := benchBundle().Encode()
	if err != nil {
		b.Fatal(err)
	}
	var d HealthDecoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHealthBundleAllocs pins the codec: encoding allocates only the
// presized frame, and a HealthDecoder that has seen the task IDs decodes
// without allocating.
func TestHealthBundleAllocs(t *testing.T) {
	hb := benchBundle()
	if got := testing.AllocsPerRun(100, func() { _, _ = hb.Encode() }); got != 1 {
		t.Fatalf("allocs per encode = %v, want 1", got)
	}
	frame, err := hb.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var d HealthDecoder
	if _, err := d.Decode(frame); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = d.Decode(frame) }); got != 0 {
		t.Fatalf("allocs per decode = %v, want 0", got)
	}
}

func TestHealthDecoderReuse(t *testing.T) {
	a := benchBundle()
	b := HealthBundle{Node: 4, Battery: 0.5, Records: []HealthRecord{
		{TaskID: "chiller-temp", Role: RoleActive, Seq: 2, Output: 1, HasOut: true},
	}}
	var d HealthDecoder
	for _, want := range []HealthBundle{a, b, a, {Node: 5, Battery: 1}} {
		frame, err := want.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got.Node != want.Node || got.Battery != want.Battery || len(got.Records) != len(want.Records) {
			t.Fatalf("decoded %+v, want %+v", *got, want)
		}
		for i := range want.Records {
			if got.Records[i] != want.Records[i] {
				t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], want.Records[i])
			}
		}
	}
}

// TestSnapshotDecoderReuse: a reused decoder returns each frame's own
// readings, decodes without allocating once its slice is large enough,
// and DecodeSnapshot (a fresh decoder per call) agrees with it.
func TestSnapshotDecoderReuse(t *testing.T) {
	frames := []SensorSnapshot{
		{At: 5, Readings: []SensorReading{{Port: 1, Value: 2}, {Port: 4, Value: -3.5}}},
		{At: 0, Readings: []SensorReading{{Port: 9, Value: 1}}},
		{At: 7},
	}
	var d SnapshotDecoder
	for _, want := range frames {
		b, err := want.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := DecodeSnapshot(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.At != want.At || len(got.Readings) != len(want.Readings) || len(ref.Readings) != len(want.Readings) || ref.At != want.At {
			t.Fatalf("decoded %+v and %+v, want %+v", *got, ref, want)
		}
		for i := range want.Readings {
			if got.Readings[i] != want.Readings[i] || ref.Readings[i] != want.Readings[i] {
				t.Fatalf("reading %d = %+v / %+v, want %+v", i, got.Readings[i], ref.Readings[i], want.Readings[i])
			}
		}
	}
	b, _ := frames[0].Encode()
	if got := testing.AllocsPerRun(100, func() { _, _ = d.Decode(b) }); got != 0 {
		t.Fatalf("allocs per snapshot decode = %v, want 0", got)
	}
	if _, err := d.Decode(b[:3]); err == nil {
		t.Fatal("truncated snapshot decoded")
	}
}
