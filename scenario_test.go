package evm

import (
	"math"
	"testing"
	"time"
)

func newGasPlant(t *testing.T, cfg GasPlantConfig) *GasPlant {
	t.Helper()
	s, err := NewGasPlant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGasPlantSteadyState(t *testing.T) {
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(120 * time.Second)
	level := s.Plant.LTSLevelPct()
	if level < 40 || level > 60 {
		t.Fatalf("closed-loop level = %.1f, want near 50", level)
	}
	if s.ActiveController() != GasCtrlAID {
		t.Fatalf("active controller = %v at steady state", s.ActiveController())
	}
	if s.GW.Stats().ActuationsOK == 0 {
		t.Fatal("no actuations reached the plant")
	}
	if s.GW.Stats().SensorBroadcasts == 0 {
		t.Fatal("no sensor broadcasts")
	}
}

func TestFig6ShapeReproduced(t *testing.T) {
	// The Fig. 6(b) shape: level collapses after the fault, the EVM
	// fails over to Ctrl-B, flows spike and then recover toward nominal.
	// The paper's backup deliberates for ~300 s before the switch; a
	// 60 s deviation window here keeps the same shape at shorter test
	// runtime.
	cfg := DefaultGasPlantConfig()
	cfg.DeviationWindow = 240 // 60 s at 250 ms cycles
	s := newGasPlant(t, cfg)
	res, err := s.RunFig6(120*time.Second, 600*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailoverAt == 0 {
		t.Fatal("no failover")
	}
	if res.FailoverAt <= res.FaultAt {
		t.Fatalf("failover %v before fault %v", res.FailoverAt, res.FaultAt)
	}
	if res.LevelMin >= res.LevelBefore-10 {
		t.Fatalf("level did not collapse: before %.1f min %.1f", res.LevelBefore, res.LevelMin)
	}
	if res.FlowPeak <= res.FlowNominal*1.5 {
		t.Fatalf("tower feed did not spike: nominal %.1f peak %.1f", res.FlowNominal, res.FlowPeak)
	}
	// Recovery: the new primary pulls the level back above the minimum.
	if res.LevelEnd <= res.LevelMin+5 {
		t.Fatalf("no recovery: min %.1f end %.1f", res.LevelMin, res.LevelEnd)
	}
	if s.ActiveController() != GasCtrlBID {
		t.Fatalf("active controller = %v after Fig6, want Ctrl-B", s.ActiveController())
	}
	// The recorder holds every Fig. 6(b) series.
	for _, name := range []string{"lts_level_pct", "sepliq_kmolh", "ltsliq_kmolh", "towerfeed_kmolh"} {
		found := false
		for _, n := range s.Recorder().Names() {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("series %s missing", name)
		}
	}
}

func TestCrashFailover(t *testing.T) {
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(60 * time.Second)
	s.CrashPrimary()
	s.Run(30 * time.Second)
	if s.ActiveController() != GasCtrlBID {
		t.Fatalf("active = %v after crash, want Ctrl-B", s.ActiveController())
	}
	// The plant keeps being controlled.
	before := s.GW.Stats().ActuationsOK
	s.Run(10 * time.Second)
	if s.GW.Stats().ActuationsOK == before {
		t.Fatal("control stopped after crash failover")
	}
}

// TestLTSFailoverDerivation pins GasPlant.LTSFailover through the trial
// the fail-over benchmarks run, on seeds picked from a PER 0.2 sweep.
func TestLTSFailoverDerivation(t *testing.T) {
	cases := []struct {
		name          string
		seed          uint64
		per           float64
		crash         bool
		want          time.Duration // latency, to the ms
		falsePositive bool
	}{
		{name: "compute fault", seed: 1, want: 1827 * time.Millisecond},
		{name: "crash", seed: 1, crash: true, want: 2017 * time.Millisecond},
		// The chiller loop fails over at 3.07 s, during the warm-up.
		{name: "other loop first", seed: 1, per: 0.2, want: 2577 * time.Millisecond},
		// The LTS loop fails over at 27.27 s, before the fault at 30 s.
		{name: "false positive", seed: 8, per: 0.2, falsePositive: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			latency, early := failoverTrial(t, c.seed, c.per, c.crash)
			if early != c.falsePositive {
				t.Fatalf("false positive = %v, want %v", early, c.falsePositive)
			}
			if got := latency.Round(time.Millisecond); got != c.want {
				t.Fatalf("latency = %v, want %v", got, c.want)
			}
		})
	}
}

func TestControlLatencyWithinThird(t *testing.T) {
	// Paper objective 5: control cycle <= 250 ms with latency <= 1/3 of
	// the cycle.
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(60 * time.Second)
	lats := s.ActuationLatencies()
	if len(lats) == 0 {
		t.Fatal("no latencies measured")
	}
	bound := 250 * time.Millisecond / 3
	for _, l := range lats {
		if l > bound {
			t.Fatalf("actuation latency %v exceeds %v", l, bound)
		}
	}
}

func TestOperationSwitchBlocksStaleController(t *testing.T) {
	// After failover the gateway must deny Ctrl-A's commands.
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(30 * time.Second)
	s.InjectPrimaryFault()
	s.Run(60 * time.Second)
	if s.ActiveController() != GasCtrlBID {
		t.Skip("failover did not complete in window")
	}
	denied := s.GW.Stats().ActuationsDenied
	if denied == 0 {
		// Ctrl-A may already be Indicator (not sending); that is also
		// acceptable — verify it is no longer actuating at all.
		if s.Cell.Node(GasCtrlAID).Role(LTSTaskID) == RoleActive {
			t.Fatal("old primary still active and never denied")
		}
	}
}

func TestGasPlantUnderPacketLoss(t *testing.T) {
	cfg := DefaultGasPlantConfig()
	cfg.PER = 0.1
	s := newGasPlant(t, cfg)
	s.Run(120 * time.Second)
	level := s.Plant.LTSLevelPct()
	if level < 35 || level > 65 {
		t.Fatalf("closed loop under 10%% PER drifted to %.1f", level)
	}
}

// TestGasPlantPERValidation: NewGasPlant forces rates in (0,1], gives a
// perfect channel at 0, keeps the distance model for negative rates and
// rejects NaN and rates above 1.
func TestGasPlantPERValidation(t *testing.T) {
	cases := []struct {
		per    float64
		forced float64 // Medium.ForcedPER; negative means the distance model or a perfect channel
		ok     bool
	}{
		{per: -1, forced: -1, ok: true},
		{per: 0, forced: -1, ok: true},
		{per: 0.3, forced: 0.3, ok: true},
		{per: 1, forced: 1, ok: true},
		{per: 1.5},
		{per: math.NaN()},
	}
	for _, tc := range cases {
		cfg := DefaultGasPlantConfig()
		cfg.PER = tc.per
		s, err := NewGasPlant(cfg)
		if !tc.ok {
			if err == nil {
				t.Errorf("PER %v: accepted, want an error", tc.per)
			}
			continue
		}
		if err != nil {
			t.Errorf("PER %v: %v", tc.per, err)
			continue
		}
		if got := s.Cell.Medium().ForcedPER(); got != tc.forced {
			t.Errorf("PER %v: forced PER = %v, want %v", tc.per, got, tc.forced)
		}
	}
}

// TestWithPERValidation: WithPER takes a rate in [0,1]. A NaN fails
// the range check like any other out-of-range rate instead of slipping
// past it and leaving the cell on the distance model.
func TestWithPERValidation(t *testing.T) {
	cases := []struct {
		per float64
		ok  bool
	}{
		{per: -0.1},
		{per: 0, ok: true},
		{per: 0.3, ok: true},
		{per: 1, ok: true},
		{per: 1.5},
		{per: math.NaN()},
	}
	for _, tc := range cases {
		cell, err := NewCellWith(CellConfig{Seed: 1}, WithNodes(1, 2, 3), WithPER(tc.per))
		if !tc.ok {
			if err == nil {
				t.Errorf("WithPER(%v): accepted, want an error", tc.per)
			}
			continue
		}
		if err != nil {
			t.Errorf("WithPER(%v): %v", tc.per, err)
			continue
		}
		// WithPER(0) is the perfect channel, which forces no rate.
		want := tc.per
		if tc.per == 0 {
			want = -1
		}
		if got := cell.Medium().ForcedPER(); got != want {
			t.Errorf("WithPER(%v): forced PER = %v, want %v", tc.per, got, want)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (float64, NodeID) {
		s := newGasPlant(t, DefaultGasPlantConfig())
		if _, err := s.RunFig6(60*time.Second, 200*time.Second); err != nil {
			t.Fatal(err)
		}
		return s.Plant.LTSLevelPct(), s.ActiveController()
	}
	l1, a1 := run()
	l2, a2 := run()
	if l1 != l2 || a1 != a2 {
		t.Fatalf("same seed diverged: %.6f/%v vs %.6f/%v", l1, a1, l2, a2)
	}
}

func TestCellAddNodeRuntime(t *testing.T) {
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(10 * time.Second)
	const newID NodeID = 9
	node, err := s.Cell.AddNodeRuntime(newID, s.VC)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10 * time.Second)
	if node == nil {
		t.Fatal("nil node")
	}
	h := s.Cell.Node(GasHeadID).Head()
	if h.Stats().Joins != 1 {
		t.Fatal("join not registered at head")
	}
	// Migrate the task replica to the new node; it becomes a live
	// backup.
	if err := s.Cell.Node(GasCtrlAID).MigrateTask(LTSTaskID, newID); err != nil {
		t.Fatal(err)
	}
	s.Run(10 * time.Second)
	if node.Stats().MigrationsIn != 1 {
		t.Fatal("capacity-expansion migration failed")
	}
}

func TestVMBackedGasPlant(t *testing.T) {
	cfg := DefaultGasPlantConfig()
	cfg.UseVM = true
	s := newGasPlant(t, cfg)
	s.Run(60 * time.Second)
	if s.GW.Stats().ActuationsOK == 0 {
		t.Fatal("VM-backed controller produced no actuations")
	}
	// VM law is proportional-only; the level should still be pulled
	// toward the setpoint band.
	level := s.Plant.LTSLevelPct()
	if level < 30 || level > 70 {
		t.Fatalf("VM-controlled level = %.1f", level)
	}
}
