package evm

import (
	"math"
	"math/big"
	"runtime"
	"testing"
	"time"

	"evm/internal/radio"
)

// headlineRuns are the first iterations (seed 1) of the three headline
// benchmarks: BenchmarkFig6Failover, BenchmarkRingSeverRecovery and
// BenchmarkCampusRollout.
var headlineRuns = []struct {
	name string
	run  func() (uint64, error)
	// events is the exact number of engine dispatches the run fires.
	events uint64
	// allocs caps the run's heap allocations: the measured count plus
	// 1%, since allocation counts wobble by a few between runs.
	allocs float64
}{
	{"fig6-failover", func() (uint64, error) {
		_, n, err := runFig6(1)
		return n, err
	}, 157065, 34603},
	{"ring-sever-recovery", func() (uint64, error) {
		res, n := runCounted(RunSpec{Scenario: ScenarioRefineryRingSever, Seed: 1, Horizon: 40 * time.Second})
		return n, res.Err
	}, 89436, 23064},
	{"campus-rollout", func() (uint64, error) {
		res, n := runCounted(RunSpec{Scenario: ScenarioOTACampus, Seed: 1, Horizon: 30 * time.Second})
		return n, res.Err
	}, 34430, 10808},
}

// TestHeadlineDispatchCounts pins the engine's events/op on the headline
// runs. The counts are deterministic per seed, so any change in how many
// events the simulation fires — an added timer, a dropped slot callback —
// fails here even when the behaviour digests happen not to move.
func TestHeadlineDispatchCounts(t *testing.T) {
	for _, c := range headlineRuns {
		got, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.events {
			t.Errorf("%s: events/op = %d, want %d", c.name, got, c.events)
		}
	}
}

// TestHeadlineAllocCeilings keeps per-delivery copies and per-slot
// scheduling garbage from silently returning to the headline runs.
func TestHeadlineAllocCeilings(t *testing.T) {
	for _, c := range headlineRuns {
		var err error
		got := testing.AllocsPerRun(1, func() { _, err = c.run() })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got > c.allocs {
			t.Errorf("%s: %v allocs per run, ceiling %v", c.name, got, c.allocs)
		}
	}
}

// buildCeiling caps building every registered scenario once at seed 1:
// heap allocations (the measured count plus 1%) and bytes allocated
// (the measured total plus 2%).
var buildCeiling = struct {
	allocs float64
	bytes  uint64
}{10986, 966992}

// TestBuildScenarioAllocCeiling keeps per-node work that belongs to the
// whole Virtual Component, such as re-validating it or rebuilding its
// object-transfer graph, from returning to scenario construction: a
// short run pays it on every build.
func TestBuildScenarioAllocCeiling(t *testing.T) {
	names := Scenarios()
	var err error
	buildAll := func() {
		for _, name := range names {
			if _, err = BuildScenario(RunSpec{Scenario: name, Seed: 1}); err != nil {
				return
			}
		}
	}
	allocs := testing.AllocsPerRun(1, buildAll)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buildAll()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	if allocs > buildCeiling.allocs {
		t.Errorf("building %d scenarios: %v allocs, ceiling %v", len(names), allocs, buildCeiling.allocs)
	}
	if bytes > buildCeiling.bytes {
		t.Errorf("building %d scenarios: %d bytes, ceiling %d", len(names), bytes, buildCeiling.bytes)
	}
}

// TestEnergyMatchesPerTransitionSum replays a 600 s gas-plant run with a
// crash and a recovery one event at a time, records every radio's
// power-state timeline and prices it two ways: with the per-transition
// float loop batteries used before they kept exact per-state times, and
// exactly, in big.Float. The battery must match the old loop to 1e-12
// relative (they differ only by float rounding) and the exact sum to a
// few ulps (it rounds once per state instead of once per transition).
func TestEnergyMatchesPerTransitionSum(t *testing.T) {
	s, err := NewGasPlant(DefaultGasPlantConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := FaultPlan{Name: "crash-recover", Steps: []FaultStep{
		{At: 120 * time.Second, CrashNode: GasCtrlAID},
		{At: 300 * time.Second, RecoverNode: GasCtrlAID},
	}}
	if err := s.Cell.ApplyFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	model := radio.DefaultEnergyModel()
	type track struct {
		r      *radio.Radio
		state  radio.State
		failed bool
		since  time.Duration
		mas    float64 // the old loop: one float multiply-add per settle
		exact  big.Float
	}
	charge := func(tr *track, now time.Duration) {
		d := now - tr.since
		tr.mas += model.Current(tr.state) * d.Seconds()
		var term big.Float
		term.SetPrec(256).SetFloat64(model.Current(tr.state))
		term.Mul(&term, new(big.Float).SetPrec(256).SetInt64(int64(d)))
		term.Quo(&term, new(big.Float).SetPrec(256).SetInt64(int64(time.Second)))
		tr.exact.Add(&tr.exact, &term)
	}
	var tracks []*track
	for _, id := range s.Cell.med.Nodes() {
		r := s.Cell.med.Radio(id)
		tr := &track{r: r, state: r.State()}
		tr.exact.SetPrec(256)
		tracks = append(tracks, tr)
	}
	eng := s.Cell.Engine()
	transitions := 0
	for eng.Now() < 600*time.Second && eng.Step() {
		now := eng.Now()
		for _, tr := range tracks {
			st, failed := tr.r.State(), tr.r.Failed()
			if st == tr.state && failed == tr.failed {
				continue
			}
			// Fail settles before raising the flag and Recover after
			// clearing it, so time spent failed is charged (at the
			// sleep current) only once the radio recovers.
			if !tr.failed || !failed {
				charge(tr, now)
			}
			tr.state, tr.failed, tr.since = st, failed, now
			transitions++
		}
	}
	if transitions < 10000 {
		t.Fatalf("only %d state transitions recorded", transitions)
	}
	var worstOld, worstExact float64
	for _, tr := range tracks {
		if !tr.failed {
			charge(tr, eng.Now())
		}
		got := tr.r.EnergyConsumedMAH() * 3600
		exact, _ := tr.exact.Float64()
		worstOld = max(worstOld, math.Abs(got-tr.mas)/tr.mas)
		worstExact = max(worstExact, math.Abs(got-exact)/exact)
		if tr.mas <= 0 || math.Abs(got-tr.mas) > 1e-12*tr.mas {
			t.Errorf("node %d: consumed %.17g mAs, per-transition sum %.17g (rel %.3g)",
				tr.r.ID(), got, tr.mas, math.Abs(got-tr.mas)/tr.mas)
		}
		if math.Abs(got-exact) > 1e-15*exact {
			t.Errorf("node %d: consumed %.17g mAs, exact %.17g (rel %.3g)",
				tr.r.ID(), got, exact, math.Abs(got-exact)/exact)
		}
	}
	t.Logf("%d transitions; worst relative deviation from the old loop %.3g, from the exact sum %.3g",
		transitions, worstOld, worstExact)
}
