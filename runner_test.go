package evm

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"evm/internal/sim"
)

// crashNode2 works across the built-in scenarios: node 2 is Ctrl-A in the
// gas plant, the first primary in the eight-controller cell, and ctrl1 in
// the capacity scenario.
func crashNode2() FaultPlan {
	return FaultPlan{
		Name:  "crash-2",
		Steps: []FaultStep{{At: 10 * time.Second, CrashNode: 2}},
	}
}

func TestSpecGridCrossProduct(t *testing.T) {
	specs := SpecGrid(
		[]string{ScenarioGasPlant, ScenarioCapacity},
		[]uint64{1, 2, 3},
		[]FaultPlan{{}, crashNode2()},
		30*time.Second)
	if len(specs) != 12 {
		t.Fatalf("grid size = %d, want 2x3x2 = 12", len(specs))
	}
	// No plans means one fault-free run per pair.
	specs = SpecGrid([]string{ScenarioCapacity}, []uint64{1, 2}, nil, 0)
	if len(specs) != 2 {
		t.Fatalf("plan-free grid size = %d, want 2", len(specs))
	}
	for _, s := range specs {
		if len(s.Faults.Steps) != 0 {
			t.Fatalf("plan-free grid spec %s carries fault steps", s.Label())
		}
	}
}

// TestRunnerParallelMatchesSerial is the multi-core guarantee: a 16-run
// scenario x seed x fault-plan grid produces identical per-run metrics
// whether executed on one worker or many.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	specs := SpecGrid(
		[]string{ScenarioEightController, ScenarioCapacity},
		[]uint64{1, 2, 3, 4},
		[]FaultPlan{{}, crashNode2()},
		30*time.Second)
	if len(specs) < 16 {
		t.Fatalf("grid has %d runs, want >= 16", len(specs))
	}
	serial := (&Runner{Workers: 1}).Run(specs)
	parallel := (&Runner{Workers: 8}).Run(specs)
	if len(serial) != len(specs) || len(parallel) != len(specs) {
		t.Fatalf("result counts: serial %d, parallel %d, want %d", len(serial), len(parallel), len(specs))
	}
	for i := range specs {
		if serial[i].Err != nil {
			t.Fatalf("%s: serial run failed: %v", specs[i].Label(), serial[i].Err)
		}
		if parallel[i].Err != nil {
			t.Fatalf("%s: parallel run failed: %v", specs[i].Label(), parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Metrics, parallel[i].Metrics) {
			t.Fatalf("%s: metrics diverge between serial and parallel:\n  serial:   %v\n  parallel: %v",
				specs[i].Label(), serial[i].Metrics, parallel[i].Metrics)
		}
	}
}

func TestRunnerAggregatesFailoverMetrics(t *testing.T) {
	specs := SpecGrid(
		[]string{ScenarioEightController},
		[]uint64{1, 2},
		[]FaultPlan{crashNode2()},
		30*time.Second)
	results := (&Runner{Workers: 4}).Run(specs)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec.Label(), r.Err)
		}
		if r.Metrics[MetricFailovers] < 1 {
			t.Fatalf("%s: no failover recorded after crashing the primary", r.Spec.Label())
		}
		first, ok := r.Metrics[MetricFirstFailoverS]
		if !ok || first <= 10 {
			t.Fatalf("%s: first failover at %.2fs, want after the 10s crash", r.Spec.Label(), first)
		}
	}
	agg := Aggregate(results)
	sum, ok := agg[ScenarioEightController]
	if !ok {
		t.Fatal("aggregate missing the scenario")
	}
	if fo := sum[MetricFailovers]; fo.N != len(specs) || fo.Min < 1 {
		t.Fatalf("aggregate failovers = %+v", fo)
	}
	// Coverage survives the crash thanks to the backup.
	if cov := sum["coverage"]; cov.Min != 1 {
		t.Fatalf("coverage dropped below 1: %+v", cov)
	}
}

func TestRunnerUnknownScenario(t *testing.T) {
	results := (&Runner{}).Run([]RunSpec{{Scenario: "no-such-thing", Seed: 1}})
	if len(results) != 1 || results[0].Err == nil {
		t.Fatal("unknown scenario did not error")
	}
}

// TestRunnerRejectsMalformedExperiments: an experiment that is nil or
// does not hold exactly one of a cell and a campus fails its run with an
// error, through Runner.Build as through the registry, and a rejected
// experiment is still cleaned up.
func TestRunnerRejectsMalformedExperiments(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Experiment, error)
		want  string
	}{
		{"nil", func() (*Experiment, error) { return nil, nil }, "built no cell or campus"},
		{"neither", func() (*Experiment, error) { return &Experiment{}, nil }, "built no cell or campus"},
		{"both", func() (*Experiment, error) {
			cell, err := BuildScenario(RunSpec{Scenario: ScenarioGasPlant, Seed: 1})
			if err != nil {
				return nil, err
			}
			campus, err := BuildScenario(RunSpec{Scenario: ScenarioCampusFailover, Seed: 1})
			if err != nil {
				return nil, err
			}
			return &Experiment{Cell: cell.Cell, Campus: campus.Campus, Cleanup: func() {
				cell.Cleanup()
				campus.Cleanup()
			}}, nil
		}, "built both a cell and a campus"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var built *Experiment
			cleaned := false
			r := &Runner{Workers: 1, Build: func(RunSpec) (*Experiment, error) {
				exp, err := tc.build()
				if exp != nil {
					cleanup := exp.Cleanup
					exp.Cleanup = func() {
						cleaned = true
						if cleanup != nil {
							cleanup()
						}
					}
				}
				built = exp
				return exp, err
			}}
			res := r.RunOne(RunSpec{Scenario: "malformed", Seed: 1})
			if res.Err == nil || !strings.Contains(res.Err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", res.Err, tc.want)
			}
			if res.Metrics != nil {
				t.Fatalf("rejected run reported metrics %v", res.Metrics)
			}
			if built != nil && !cleaned {
				t.Fatal("rejected experiment was not cleaned up")
			}
		})
	}
}

// TestExperimentAccessors: for every registered scenario, Bus, Engine and
// Cells return the underlying cell's or campus's objects, a single-cell
// experiment has exactly one cell, and ApplyFaultPlan honours the cell
// name on a campus only.
func TestExperimentAccessors(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc, func(t *testing.T) {
			exp, err := BuildScenario(RunSpec{Scenario: sc, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer exp.Cleanup()
			var bus *Bus
			var eng *sim.Engine
			var cells []*Cell
			single := exp.Cell != nil
			if single {
				bus, eng, cells = exp.Cell.Events(), exp.Cell.Engine(), []*Cell{exp.Cell}
			} else {
				bus, eng, cells = exp.Campus.Events(), exp.Campus.Engine(), exp.Campus.Cells()
			}
			if exp.Bus() != bus {
				t.Error("Bus is not the underlying event stream")
			}
			if exp.Engine() != eng {
				t.Error("Engine is not the underlying engine")
			}
			if got := exp.Cells(); !slices.Equal(got, cells) || len(got) == 0 {
				t.Errorf("Cells = %v, want %v", got, cells)
			}
			if single && len(exp.Cells()) != 1 {
				t.Errorf("single-cell experiment has %d cells", len(exp.Cells()))
			}
			if err := exp.ApplyFaultPlan("no-such-cell", FaultPlan{}); err != nil {
				t.Errorf("empty plan: %v", err)
			}
			crash := FaultPlan{Steps: []FaultStep{{At: time.Second, CrashNode: cells[0].Members()[0]}}}
			if err := exp.ApplyFaultPlan("no-such-cell", crash); (err == nil) != single {
				t.Errorf("plan on an unknown cell name: err = %v, single cell = %t", err, single)
			}
		})
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	if err := RegisterScenario(ScenarioGasPlant, func(RunSpec) (*Experiment, error) { return nil, nil }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := RegisterScenario("", nil); err == nil {
		t.Fatal("empty registration accepted")
	}
	found := false
	for _, name := range Scenarios() {
		if name == ScenarioGasPlant {
			found = true
		}
	}
	if !found {
		t.Fatalf("built-in scenario missing from %v", Scenarios())
	}
}
