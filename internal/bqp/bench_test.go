package bqp

import (
	"fmt"
	"testing"

	"evm/internal/sim"
)

// E7: runtime task-assignment quality and effort. The instances spread
// task utilisation over [0.05, 0.15).

func BenchmarkBQPAssign(b *testing.B) {
	sizes := []struct{ tasks, nodes int }{{4, 3}, {8, 4}, {16, 8}}
	for _, sz := range sizes {
		b.Run(fmt.Sprintf("t%dxn%d", sz.tasks, sz.nodes), func(b *testing.B) {
			rng := sim.NewRNG(99)
			var annealCost, greedyCost float64
			for i := 0; i < b.N; i++ {
				p := randomProblem(rng, sz.tasks, sz.nodes, 0.1)
				g, err := SolveGreedy(p)
				if err != nil {
					b.Fatal(err)
				}
				a, err := SolveAnneal(p, rng.Fork(), 20_000)
				if err != nil {
					b.Fatal(err)
				}
				annealCost += a.Cost
				greedyCost += g.Cost
			}
			if annealCost > 0 {
				b.ReportMetric(greedyCost/annealCost, "greedy-vs-anneal-cost")
			}
		})
	}
}

// BenchmarkAssignOptimalGap compares the anneal and greedy solvers with
// the exhaustive optimum on 5-task, 3-node instances.
func BenchmarkAssignOptimalGap(b *testing.B) {
	rng := sim.NewRNG(17)
	var annGap, greedyGap float64
	n := 0
	for i := 0; i < b.N; i++ {
		p := randomProblem(rng, 5, 3, 0.1)
		opt, err := SolveExhaustive(p)
		if err != nil {
			b.Fatal(err)
		}
		g, err := SolveGreedy(p)
		if err != nil {
			b.Fatal(err)
		}
		a, err := SolveAnneal(p, rng.Fork(), 20_000)
		if err != nil {
			b.Fatal(err)
		}
		if opt.Cost > 0 {
			annGap += a.Cost / opt.Cost
			greedyGap += g.Cost / opt.Cost
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(annGap/float64(n), "anneal-vs-optimal")
		b.ReportMetric(greedyGap/float64(n), "greedy-vs-optimal")
	}
}
