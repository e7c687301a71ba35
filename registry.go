package evm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"evm/internal/sim"
)

// RunSpec names one point of an experiment grid: a registered scenario,
// a seed, a fault plan and a horizon. Specs are plain data — build them
// by hand or with SpecGrid and hand them to a Runner.
type RunSpec struct {
	Scenario string
	Seed     uint64
	// Horizon bounds the run in virtual time (zero = the scenario's
	// default).
	Horizon time.Duration
	// Faults is applied to the scenario's cell before the run starts.
	Faults FaultPlan
	// FaultCell names the cell the plan targets in campus scenarios
	// ("" = the first cell). Ignored by single-cell scenarios.
	FaultCell string
	// Policy names the placement policy campus scenarios resolve through
	// NewPlacementPolicy ("" = the least-loaded default). Ignored by
	// single-cell scenarios.
	Policy string
}

// Label renders the spec as a stable one-line identifier.
func (s RunSpec) Label() string {
	label := fmt.Sprintf("%s/seed=%d/plan=%s", s.Scenario, s.Seed, s.Faults.Label())
	if s.FaultCell != "" {
		label += "@" + s.FaultCell
	}
	if s.Policy != "" {
		label += "/policy=" + s.Policy
	}
	return label
}

// Experiment is one runnable scenario instance, produced by a
// ScenarioBuilder. The Runner applies the spec's fault plan, advances the
// cell to the horizon, collects Metrics and calls Cleanup. An experiment
// holds exactly one of Cell and Campus; callers reach either through
// Bus, Engine, Cells and ApplyFaultPlan.
type Experiment struct {
	// Cell is the instrumented cell the run advances. Leave nil for
	// campus scenarios, which set Campus instead.
	Cell *Cell
	// Campus is the instrumented campus for federation scenarios; the
	// Runner drives its shared engine and observes the merged campus
	// event stream.
	Campus *Campus
	// Policy records the placement policy the builder resolved for a
	// campus scenario (display/aggregation aid; "" for single-cell
	// scenarios or the default policy).
	Policy string
	// DefaultHorizon is used when the spec leaves Horizon zero.
	DefaultHorizon time.Duration
	// Metrics extracts the per-run measurements after the horizon.
	Metrics func() map[string]float64
	// QoS, when non-nil, evaluates the component's control quality after
	// the horizon (EvaluateQoS over the deployed VC). The Runner folds
	// the report into every run's metrics as qos_coverage /
	// qos_redundancy_mean — the shared signal for OTA health-window
	// gates and evmd telemetry dashboards.
	QoS func() QoSReport
	// Cleanup releases the experiment (stop feeds, runtimes); may be nil.
	Cleanup func()
}

// check reports an experiment that is nil or does not hold exactly one
// of a cell and a campus.
func (e *Experiment) check() error {
	switch {
	case e == nil || e.Cell == nil && e.Campus == nil:
		return errors.New("built no cell or campus")
	case e.Cell != nil && e.Campus != nil:
		return errors.New("built both a cell and a campus")
	}
	return nil
}

// Bus returns the run's event stream: the campus's merged stream, or the
// cell's bus.
func (e *Experiment) Bus() *Bus {
	if e.Campus != nil {
		return e.Campus.Events()
	}
	return e.Cell.Events()
}

// Engine returns the virtual-time engine the run advances: the campus's
// shared engine, or the cell's.
func (e *Experiment) Engine() *sim.Engine {
	if e.Campus != nil {
		return e.Campus.Engine()
	}
	return e.Cell.Engine()
}

// Cells returns the campus's cells in declaration order, or the one cell.
func (e *Experiment) Cells() []*Cell {
	if e.Campus != nil {
		return e.Campus.Cells()
	}
	return []*Cell{e.Cell}
}

// ApplyFaultPlan schedules p on the run, offsets measured from now. On a
// campus it targets the named cell ("" = the first cell), as
// RunSpec.FaultCell documents; a single cell ignores the name. A plan
// with no steps is a no-op.
func (e *Experiment) ApplyFaultPlan(cell string, p FaultPlan) error {
	switch {
	case len(p.Steps) == 0:
		return nil
	case e.Campus != nil:
		return e.Campus.ApplyFaultPlan(cell, p)
	}
	return e.Cell.ApplyFaultPlan(p)
}

// ScenarioBuilder constructs a fresh Experiment for one spec. Builders
// must derive every random stream from spec.Seed so equal specs reproduce
// equal runs, and must not share mutable state between invocations — the
// Runner calls builders from several goroutines.
type ScenarioBuilder func(spec RunSpec) (*Experiment, error)

var scenarioRegistry = struct {
	sync.RWMutex
	builders map[string]ScenarioBuilder
}{builders: make(map[string]ScenarioBuilder)}

// RegisterScenario adds a named scenario to the global registry.
// Registering a duplicate name or a nil builder is an error.
func RegisterScenario(name string, build ScenarioBuilder) error {
	if name == "" || build == nil {
		return fmt.Errorf("evm: scenario needs a name and a builder")
	}
	scenarioRegistry.Lock()
	defer scenarioRegistry.Unlock()
	if _, dup := scenarioRegistry.builders[name]; dup {
		return fmt.Errorf("evm: scenario %q already registered", name)
	}
	scenarioRegistry.builders[name] = build
	return nil
}

// MustRegisterScenario is RegisterScenario that panics on error — for
// package init blocks.
func MustRegisterScenario(name string, build ScenarioBuilder) {
	if err := RegisterScenario(name, build); err != nil {
		panic(err)
	}
}

// Scenarios lists the registered scenario names, sorted.
func Scenarios() []string {
	scenarioRegistry.RLock()
	defer scenarioRegistry.RUnlock()
	out := make([]string, 0, len(scenarioRegistry.builders))
	for name := range scenarioRegistry.builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BuildScenario instantiates the spec's scenario from the registry.
func BuildScenario(spec RunSpec) (*Experiment, error) {
	scenarioRegistry.RLock()
	build := scenarioRegistry.builders[spec.Scenario]
	scenarioRegistry.RUnlock()
	if build == nil {
		return nil, fmt.Errorf("evm: unknown scenario %q (registered: %v)", spec.Scenario, Scenarios())
	}
	return build.checked(spec)
}

// checked calls the builder and rejects an experiment that does not hold
// exactly one of a cell and a campus, releasing it first. BuildScenario
// and the Runner's own Build both go through it.
func (b ScenarioBuilder) checked(spec RunSpec) (*Experiment, error) {
	exp, err := b(spec)
	if err != nil {
		return nil, err
	}
	if err := exp.check(); err != nil {
		if exp != nil && exp.Cleanup != nil {
			exp.Cleanup()
		}
		return nil, fmt.Errorf("evm: scenario %q %w", spec.Scenario, err)
	}
	return exp, nil
}
