package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"evm"
	"evm/evmd"
)

// Workload names.
const (
	cellFig6     = "cell-fig6"
	campusFaults = "campus-faults"
	daemonMix    = "daemon-mix"
)

var workloadNames = []string{cellFig6, campusFaults, daemonMix}

// workload is one generated input set: a cycle of run specs that the
// measured pass repeats until its time is up. Every spec carries an
// explicit horizon so simulated seconds are known without running.
type workload struct {
	name  string
	specs []evm.RunSpec
	// requests holds the daemon-mix submissions, one per spec; the spec
	// is what the daemon derives from the request.
	requests [][]byte
}

// cycleSimSeconds is the simulated time of one pass over the specs.
func (w *workload) cycleSimSeconds() float64 {
	var s float64
	for _, sp := range w.specs {
		s += sp.Horizon.Seconds()
	}
	return s
}

// inputsDigest hashes the generated spec list, so a result names the
// exact inputs it was measured on.
func (w *workload) inputsDigest() (string, error) {
	b, err := json.Marshal(w.specs)
	if err != nil {
		return "", fmt.Errorf("hash inputs: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// shape is what set-up reads from one built instance of a scenario.
type shape struct {
	horizon time.Duration
	cells   []string       // campus cell names; nil for single-cell scenarios
	members [][]evm.NodeID // members per cell (one entry for a single cell)
}

func readShape(scenario string, seed uint64) (shape, error) {
	exp, err := evm.BuildScenario(evm.RunSpec{Scenario: scenario, Seed: seed})
	if err != nil {
		return shape{}, fmt.Errorf("build %s: %w", scenario, err)
	}
	if exp.Cleanup != nil {
		defer exp.Cleanup()
	}
	sh := shape{horizon: exp.DefaultHorizon}
	if exp.Campus != nil {
		for _, c := range exp.Campus.Cells() {
			sh.cells = append(sh.cells, c.Name())
			sh.members = append(sh.members, c.Members())
		}
	} else {
		sh.members = [][]evm.NodeID{exp.Cell.Members()}
	}
	return sh, nil
}

// crashRecover draws one member of one cell of sh and crashes it at
// crashAt, recovering it recoverAfter later. Plans are never filtered on
// their outcome: whatever the simulated system does with them is the
// measurement.
func crashRecover(rng *rand.Rand, sh shape, crashAt, recoverAfter time.Duration) (evm.FaultPlan, string) {
	ci := rng.IntN(len(sh.members))
	members := sh.members[ci]
	node := members[rng.IntN(len(members))]
	cell := ""
	if sh.cells != nil {
		cell = sh.cells[ci]
	}
	return evm.FaultPlan{Name: "crash-recover", Steps: []evm.FaultStep{
		{At: crashAt, CrashNode: node},
		{At: crashAt + recoverAfter, RecoverNode: node},
	}}, cell
}

func millis(rng *rand.Rand, lo, span int) time.Duration {
	return time.Duration(lo+rng.IntN(span)) * time.Millisecond
}

// makeWorkload generates the workload's inputs from seed. It builds one
// instance of each scenario involved to read its horizon and members;
// this is the benchmark's set-up work along with starting evmd.
func makeWorkload(name string, seed uint64) (*workload, error) {
	rng := rand.New(rand.NewPCG(seed, 0x65766d62656e6368))
	w := &workload{name: name}
	switch name {
	case cellFig6:
		// The paper's Fig. 6: Ctrl-A computes a wrong output at 120 s and
		// the head fails the loop over to Ctrl-B.
		sh, err := readShape(evm.ScenarioGasPlant, seed)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(sh.members[0], evm.GasCtrlAID) {
			return nil, fmt.Errorf("%s has no node %v for the Fig. 6 fault", evm.ScenarioGasPlant, evm.GasCtrlAID)
		}
		for i := 0; i < 6; i++ {
			w.specs = append(w.specs, evm.RunSpec{
				Scenario: evm.ScenarioGasPlant,
				Seed:     rng.Uint64(),
				Horizon:  600 * time.Second,
				Faults:   evm.PrimaryFaultPlan(120 * time.Second),
			})
		}
	case campusFaults:
		scenarios := []string{evm.ScenarioRefineryRingSever, evm.ScenarioOTACampus}
		shapes := make([]shape, len(scenarios))
		for i, sc := range scenarios {
			sh, err := readShape(sc, seed)
			if err != nil {
				return nil, err
			}
			shapes[i] = sh
		}
		for i := 0; i < 16; i++ {
			sh := shapes[i%2]
			plan, cell := crashRecover(rng, sh, millis(rng, 8000, 8000), millis(rng, 4000, 4000))
			w.specs = append(w.specs, evm.RunSpec{
				Scenario:  scenarios[i%2],
				Seed:      rng.Uint64(),
				Horizon:   sh.horizon,
				Faults:    plan,
				FaultCell: cell,
			})
		}
	case daemonMix:
		scenarios := evm.Scenarios()
		shapes := make([]shape, len(scenarios))
		for i, sc := range scenarios {
			sh, err := readShape(sc, seed)
			if err != nil {
				return nil, err
			}
			shapes[i] = sh
		}
		// Twelve rounds over every scenario, so that a seed's draws
		// average out; each scenario carries a crash+recover plan in every
		// third round, so one run in three is faulted.
		for round := 0; round < 12; round++ {
			for si, sc := range scenarios {
				req := evmd.SubmitRequest{
					Tenant:    fmt.Sprintf("tenant-%d", si%2),
					Scenario:  sc,
					Seed:      rng.Uint64(),
					HorizonMS: 5000,
				}
				if (si+round)%3 == 0 {
					plan, cell := crashRecover(rng, shapes[si], millis(rng, 1000, 1500), millis(rng, 1000, 1000))
					req.FaultCell = cell
					req.Faults = &evmd.FaultPlanSpec{Name: plan.Name, Steps: []evmd.FaultStepSpec{
						{AtMS: plan.Steps[0].At.Milliseconds(), CrashNode: int(plan.Steps[0].CrashNode)},
						{AtMS: plan.Steps[1].At.Milliseconds(), RecoverNode: int(plan.Steps[1].RecoverNode)},
					}}
				}
				body, err := json.Marshal(req)
				if err != nil {
					return nil, fmt.Errorf("encode submission: %w", err)
				}
				w.requests = append(w.requests, body)
				w.specs = append(w.specs, req.Specs()[0])
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}
