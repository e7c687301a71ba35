package bqp

import (
	"errors"
	"math"
	"testing"

	"evm/internal/sim"
)

// twoTaskProblem: 2 tasks, 2 nodes; task 0 cheap on node 0, task 1 cheap
// on node 1, big penalty for co-location.
func twoTaskProblem() *Problem {
	return &Problem{
		Cost: [][]float64{{1, 5}, {5, 1}},
		Pair: [][]float64{{0, 100}, {100, 0}},
		Util: []float64{0.3, 0.3},
		Cap:  []float64{1, 1},
	}
}

func TestExhaustiveOptimal(t *testing.T) {
	sol, err := SolveExhaustive(twoTaskProblem())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 2 {
		t.Fatalf("cost = %f, want 2", sol.Cost)
	}
	if sol.Assign[0] != 0 || sol.Assign[1] != 1 {
		t.Fatalf("assign = %v", sol.Assign)
	}
}

func TestPairPenaltySeparates(t *testing.T) {
	// Make node 0 cheap for both tasks; the pair penalty must still force
	// them apart (primary/backup anti-affinity).
	p := &Problem{
		Cost: [][]float64{{1, 2}, {1, 2}},
		Pair: [][]float64{{0, 1000}, {1000, 0}},
		Util: []float64{0.1, 0.1},
		Cap:  []float64{1, 1},
	}
	sol, err := SolveExhaustive(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assign[0] == sol.Assign[1] {
		t.Fatalf("pair penalty ignored: %v", sol.Assign)
	}
}

func TestCapacityConstraint(t *testing.T) {
	// Two heavy tasks cannot share the single cheap node.
	p := &Problem{
		Cost: [][]float64{{0, 10}, {0, 10}},
		Util: []float64{0.6, 0.6},
		Cap:  []float64{1, 1},
	}
	sol, err := SolveExhaustive(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assign[0] == sol.Assign[1] {
		t.Fatalf("capacity violated: %v", sol.Assign)
	}
}

func TestForbiddenPlacement(t *testing.T) {
	p := &Problem{
		Cost: [][]float64{{math.Inf(1), 1}},
		Util: []float64{0.1},
		Cap:  []float64{1, 1},
	}
	sol, err := SolveExhaustive(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assign[0] != 1 {
		t.Fatal("forbidden placement chosen")
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		Cost: [][]float64{{1, 1}},
		Util: []float64{2.0}, // exceeds every capacity
		Cap:  []float64{1, 1},
	}
	if _, err := SolveExhaustive(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if _, err := SolveGreedy(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("greedy err = %v, want ErrInfeasible", err)
	}
}

func TestGreedyFeasibleButMaybeSuboptimal(t *testing.T) {
	sol, err := SolveGreedy(twoTaskProblem())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := twoTaskProblem().Evaluate(sol.Assign); !ok {
		t.Fatal("greedy produced infeasible assignment")
	}
	opt, err := SolveExhaustive(twoTaskProblem())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost < opt.Cost {
		t.Fatal("greedy beat the optimum — evaluation inconsistent")
	}
}

// randomProblem builds a feasible random instance whose task
// utilisations are spread uniformly over [0.05, 0.05+utilSpread).
func randomProblem(rng *sim.RNG, tasks, nodes int, utilSpread float64) *Problem {
	p := &Problem{
		Cost: make([][]float64, tasks),
		Pair: make([][]float64, tasks),
		Util: make([]float64, tasks),
		Cap:  make([]float64, nodes),
	}
	for t := 0; t < tasks; t++ {
		p.Cost[t] = make([]float64, nodes)
		p.Pair[t] = make([]float64, tasks)
		for n := 0; n < nodes; n++ {
			p.Cost[t][n] = rng.Float64() * 10
		}
		p.Util[t] = 0.05 + rng.Float64()*utilSpread
	}
	for t := 0; t < tasks; t++ {
		for u := t + 1; u < tasks; u++ {
			if rng.Bool(0.3) {
				v := rng.Float64() * 5
				p.Pair[t][u] = v
				p.Pair[u][t] = v
			}
		}
	}
	for n := 0; n < nodes; n++ {
		p.Cap[n] = 1
	}
	return p
}

func TestAnnealMatchesExhaustiveOnSmallInstances(t *testing.T) {
	rng := sim.NewRNG(42)
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng, 5, 3, 0.15)
		opt, err := SolveExhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		ann, err := SolveAnneal(p, rng.Fork(), 20_000)
		if err != nil {
			t.Fatal(err)
		}
		if ann.Cost > opt.Cost*1.05+1e-9 {
			t.Fatalf("trial %d: anneal %.3f vs optimal %.3f", trial, ann.Cost, opt.Cost)
		}
	}
}

func TestAnnealNeverWorseThanGreedy(t *testing.T) {
	rng := sim.NewRNG(9)
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(rng, 8, 4, 0.15)
		greedy, err := SolveGreedy(p)
		if err != nil {
			t.Fatal(err)
		}
		ann, err := SolveAnneal(p, rng.Fork(), 20_000)
		if err != nil {
			t.Fatal(err)
		}
		if ann.Cost > greedy.Cost+1e-9 {
			t.Fatalf("trial %d: anneal %.3f worse than its greedy start %.3f", trial, ann.Cost, greedy.Cost)
		}
	}
}

func TestExhaustiveRefusesHugeInstances(t *testing.T) {
	p := randomProblem(sim.NewRNG(1), 30, 8, 0.15)
	if _, err := SolveExhaustive(p); err == nil {
		t.Fatal("8^30 enumeration accepted")
	}
}

func TestValidate(t *testing.T) {
	bad := []*Problem{
		{},
		{Cost: [][]float64{{1, 2}, {1}}, Util: []float64{0.1, 0.1}, Cap: []float64{1, 1}},
		{Cost: [][]float64{{1, 2}}, Util: []float64{}, Cap: []float64{1, 1}},
		{Cost: [][]float64{{1, 2}}, Util: []float64{0.1}, Cap: []float64{1}},
		{Cost: [][]float64{{1, 2}}, Pair: [][]float64{{0, 0}}, Util: []float64{0.1}, Cap: []float64{1, 1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid problem accepted", i)
		}
	}
}

func TestEvaluateRejectsBadAssignments(t *testing.T) {
	p := twoTaskProblem()
	if _, ok := p.Evaluate([]int{0}); ok {
		t.Fatal("short assignment accepted")
	}
	if _, ok := p.Evaluate([]int{0, 5}); ok {
		t.Fatal("out-of-range node accepted")
	}
}
