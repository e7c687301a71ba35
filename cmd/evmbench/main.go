// Command evmbench runs the federation, placement, line-cell, ring-sever,
// OTA-rollout and Runner-grid demos. The paper's experiments E1–E10 are
// the Benchmark functions in the evm package and internal/bqp, whose
// reported metrics are the results table; the simulator's end-to-end and
// per-layer performance is measured by perfbench. Run all demos or
// select one:
//
//	evmbench             # every demo
//	evmbench -exp sever  # only the ring-sever rebalance
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"time"

	"evm"
)

func main() {
	exp := flag.String("exp", "all", "demo to run (fed, policy, pipe, sever, ota, grid or all)")
	flag.StringVar(&eventDir, "events", "", "directory for per-run event CSVs from the grid sweep (empty = off)")
	flag.Parse()
	experiments := map[string]func() error{
		"fed": fedCampus, "policy": policyCompare, "pipe": pipeLine,
		"sever": severDemo, "ota": otaRollouts, "grid": gridSweep,
	}
	order := []string{"fed", "policy", "pipe", "sever", "ota", "grid"}
	if *exp != "all" {
		fn, ok := experiments[*exp]
		if !ok {
			log.Fatalf("unknown experiment %q", *exp)
		}
		if err := fn(); err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, name := range order {
		if err := experiments[name](); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}
}

// eventDir is the -events flag: per-run event CSV capture for the grid.
var eventDir string

// fedCampus demonstrates the federation subsystem: the two-cell
// campus-failover scenario (one cell dies wholesale, its loop resumes
// across the backbone) plus a seeded refinery sweep under a whole-cell
// kill plan on the parallel Runner.
func fedCampus() error {
	fmt.Println("=== FED: campus federation: whole-cell outage -> backbone escalation ===")
	exp, err := evm.BuildScenario(evm.RunSpec{Scenario: evm.ScenarioCampusFailover, Seed: 1})
	if err != nil {
		return err
	}
	defer exp.Cleanup()
	var overloadAt, migratedAt time.Duration
	var mig evm.InterCellMigrationEvent
	resumed := 0
	exp.Campus.Events().Subscribe(func(ev evm.Event) {
		switch e := ev.(type) {
		case evm.CellOverloadEvent:
			if overloadAt == 0 {
				overloadAt = e.At
			}
		case evm.InterCellMigrationEvent:
			if migratedAt == 0 {
				migratedAt, mig = e.At, e
			}
		case evm.CellEvent:
			if act, ok := e.Inner.(evm.ActuationEvent); ok && act.Task == "w-loop" && e.Cell == "east" {
				resumed++
			}
		}
	})
	exp.Campus.Run(30 * time.Second)
	if migratedAt == 0 {
		return fmt.Errorf("fed: whole-cell outage produced no inter-cell migration")
	}
	fmt.Printf("  cell west killed              10s\n")
	fmt.Printf("  overload detected         %8v\n", overloadAt)
	fmt.Printf("  task resumed in peer      %8v   (%s: %s/%d -> %s/%d)\n",
		migratedAt, mig.Task, mig.FromCell, mig.From, mig.ToCell, mig.To)
	fmt.Printf("  actuations after failover %8d   (from cell east)\n", resumed)
	bb := exp.Campus.Backbone().Stats()
	fmt.Printf("  backbone sent/delivered   %5d/%d\n", bb.Sent, bb.Delivered)

	// Refinery sweep: 4 cells x 16 nodes, kill unit-a at 10s, 4 seeds.
	kill := evm.KillNodesPlan("kill-unit-a", 10*time.Second, evm.RefineryMembers()...)
	specs := make([]evm.RunSpec, 0, 4)
	for seed := uint64(1); seed <= 4; seed++ {
		specs = append(specs, evm.RunSpec{
			Scenario: evm.ScenarioRefinery, Seed: seed, Horizon: 25 * time.Second,
			Faults: kill, FaultCell: "unit-a",
		})
	}
	start := time.Now() //evm:allow-wallclock host benchmark stopwatch around whole runs; never read inside the simulation
	results := (&evm.Runner{}).Run(specs)
	elapsed := time.Since(start) //evm:allow-wallclock host benchmark stopwatch
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Spec.Label(), r.Err)
		}
	}
	agg := evm.Aggregate(results)[evm.ScenarioRefinery]
	fmt.Printf("  refinery sweep: %d runs (4 cells x 16 nodes) in %v wall\n",
		len(results), elapsed.Round(time.Millisecond))
	fmt.Printf("    intercell migrations  %s\n", agg[evm.MetricInterCellMigrations])
	fmt.Printf("    tasks alive at end    %s\n", agg["tasks_alive"])
	fmt.Printf("    backbone delivered    %s\n", agg[evm.MetricBackboneDelivered])
	return nil
}

// policyCompare sweeps the three placement policies over identical
// seeds on the refinery-ring scenario: an explicit ring backbone whose
// far side is lossy, with a whole-cell outage window on unit-a
// (killed at 10s, recovered at 22s) and homeward rebalancing. The
// routing-aware campus-BQP policy keeps every escalation on clean
// one-hop links, so the outage resolves in one coordinator tick; the
// topology-blind least-loaded policy ships a task into the lossy
// two-hop path and pays extra overload ticks (and backbone drops) for
// it.
func policyCompare() error {
	fmt.Println("=== POLICY: placement policies on a lossy ring backbone (refinery, outage 10s-22s) ===")
	plan := evm.RefineryOutagePlan(10*time.Second, 22*time.Second)
	seeds := []uint64{1, 2, 3, 4}
	fmt.Println("  policy         overloads  migrations  rebalances  bb-drops  foreign-end  home-end")
	type row struct {
		policy    string
		overloads float64
	}
	var rows []row
	for _, pol := range []string{evm.PolicyLeastLoaded, evm.PolicyCampusBQP, evm.PolicyAffinity} {
		specs := make([]evm.RunSpec, 0, len(seeds))
		for _, seed := range seeds {
			specs = append(specs, evm.RunSpec{
				Scenario: evm.ScenarioRefineryRing, Seed: seed, Horizon: 35 * time.Second,
				Faults: plan, FaultCell: "unit-a", Policy: pol,
			})
		}
		results := (&evm.Runner{}).Run(specs)
		for _, r := range results {
			if r.Err != nil {
				return fmt.Errorf("%s: %w", r.Spec.Label(), r.Err)
			}
			if r.Policy != pol {
				return fmt.Errorf("%s: builder resolved policy %q, want %q", r.Spec.Label(), r.Policy, pol)
			}
		}
		agg := evm.Aggregate(results)[evm.ScenarioRefineryRing]
		fmt.Printf("  %-13s  %9.2f  %10.2f  %10.2f  %8.2f  %11.2f  %8.2f\n",
			results[0].Policy,
			agg[evm.MetricCellOverloads].Mean,
			agg[evm.MetricInterCellMigrations].Mean,
			agg[evm.MetricRebalances].Mean,
			agg[evm.MetricBackboneDropped].Mean,
			agg["tasks_foreign"].Mean,
			agg["tasks_home"].Mean)
		rows = append(rows, row{policy: pol, overloads: agg[evm.MetricCellOverloads].Mean})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].overloads < rows[j].overloads })
	fmt.Printf("  fewest overload ticks: %s (same seeds, same faults — only the policy differs)\n",
		rows[0].policy)
	return nil
}

// pipeLine demonstrates the multi-hop line cell: sensor snapshots relay
// down the line, actuations relay back, and a far-end primary crash
// fails over across the line without losing the actuation path.
func pipeLine() error {
	fmt.Println("=== PIPE: multi-hop pipeline line cell (BuildLineSchedule + static line routes) ===")
	exp, err := evm.BuildScenario(evm.RunSpec{Scenario: evm.ScenarioPipeline, Seed: 1})
	if err != nil {
		return err
	}
	defer exp.Cleanup()
	log := exp.Cell.Events().Log()
	exp.Cell.Run(10 * time.Second)
	isAct := func(ev evm.Event) bool { _, ok := ev.(evm.ActuationEvent); return ok }
	pre := log.Count(isAct)
	if err := exp.Cell.ApplyFaultPlan(evm.PipelinePrimaryCrashPlan(0)); err != nil {
		return err
	}
	exp.Cell.Run(20 * time.Second)
	post := log.Count(isAct) - pre
	m := exp.Metrics()
	fmt.Printf("  actuations at gateway   %4d before crash, %d after (relayed hop by hop)\n", pre, post)
	fmt.Printf("  fail-over across line   primary %d -> active %v\n", evm.PipePrimary, m["active_controller"])
	fmt.Printf("  fragments relayed       %6.0f\n", m["relayed_frags"])
	fmt.Printf("  mean line duty cycle    %6.3f (mesh equivalent: %.3f)\n",
		m["line_duty"], float64(1+3+3*4)/50.0) // sync + 3 own + 12 listen slots
	return nil
}

// severDemo runs the link-dynamics acceptance scenario: the refinery
// ring loses unit-a at 10s and its d-a link at 12s; the recovered
// unit-a takes its loops back through the prepare/commit handshake, with
// unit-d's traffic forced the long way round. The invariant harness
// replays the stream and must find nothing.
func severDemo() error {
	fmt.Println("=== SEVER: ring sever + prepare/commit rebalance (outage 10s-22s, d-a link down 12s-30s) ===")
	exp, err := evm.BuildScenario(evm.RunSpec{Scenario: evm.ScenarioRefineryRingSever, Seed: 1})
	if err != nil {
		return err
	}
	defer exp.Cleanup()
	log2 := exp.Campus.Events().Log()
	exp.Campus.Run(40 * time.Second)
	rebalances, longWay := 0, 0
	var firstLong []string
	for _, ev := range log2.Events() {
		switch e := ev.(type) {
		case evm.InterCellMigrationEvent:
			if e.Rebalance {
				rebalances++
			}
		case evm.BackboneRouteEvent:
			if len(e.Path) == 4 {
				longWay++
				if firstLong == nil {
					firstLong = e.Path
				}
			}
		}
	}
	violations := evm.CheckEvents(log2.Events(), evm.DefaultInvariants()...)
	bb := exp.Campus.Backbone().Stats()
	fmt.Printf("  rebalanced home            %5d loops (prepare/commit handshake)\n", rebalances)
	fmt.Printf("  long-way transfers         %5d (e.g. %v)\n", longWay, firstLong)
	fmt.Printf("  backbone sent/delivered    %5d/%d (dropped %d)\n", bb.Sent, bb.Delivered, bb.Dropped)
	fmt.Printf("  invariant violations       %5d (single-master, demoted-silence, route-monotonicity)\n",
		len(violations))
	for _, v := range violations {
		fmt.Printf("    %s\n", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("sever: %d invariant violations", len(violations))
	}
	return nil
}

// otaRollouts compares the three rollout strategies on identical seeds:
// the ota-campus federation upgrades every loop from capsule v1 to v2
// over the lossy ring backbone, and the staging strategy decides how the
// campus trades upgrade latency against blast radius. A second pass
// seeds a bad capsule (attests cleanly, never actuates) and shows the
// health window tripping an automatic rollback.
func otaRollouts() error {
	fmt.Println("=== OTA: staged capsule rollouts: strategy comparison + bad-capsule rollback ===")
	fmt.Println("  strategy      stages  deliveries  completed-at  bb sent/delivered  rollbacks")
	for _, strategy := range []string{evm.RolloutCanaryCell, evm.RolloutCellByCell, evm.RolloutAllAtOnce} {
		campus, err := evm.NewOTACampus(1)
		if err != nil {
			return err
		}
		log := campus.Events().Log()
		var rollout *evm.Rollout
		campus.Engine().After(evm.OTARolloutAt, func() {
			rollout, err = campus.StartRollout(evm.OTACampusRolloutSpec(strategy))
		})
		campus.Run(30 * time.Second)
		if err != nil {
			campus.Stop()
			return err
		}
		deliveries, rollbacks := 0, 0
		var completedAt time.Duration
		for _, ev := range log.Events() {
			switch e := ev.(type) {
			case evm.CapsuleDeliveryEvent:
				deliveries++
			case evm.RollbackEvent:
				rollbacks++
			case evm.RolloutEvent:
				if e.Phase == evm.RolloutPhaseComplete {
					completedAt = e.At
				}
			}
		}
		bb := campus.Backbone().Stats()
		fmt.Printf("  %-12s  %6d  %10d  %12v  %9d/%d  %9d\n",
			strategy, len(rollout.Stages()), deliveries, completedAt,
			bb.Sent, bb.Delivered, rollbacks)
		if rollout.State() != evm.RolloutComplete {
			campus.Stop()
			return fmt.Errorf("ota: %s rollout ended %s (%s)", strategy, rollout.State(), rollout.Reason())
		}
		campus.Stop()
	}

	campus, err := evm.NewOTACampus(1)
	if err != nil {
		return err
	}
	defer campus.Stop()
	log := campus.Events().Log()
	campus.Run(5 * time.Second)
	bad, err := evm.OTABadCapsule("a-press-0", 3)
	if err != nil {
		return err
	}
	if err := campus.Capsules().Register(bad); err != nil {
		return err
	}
	rollout, err := campus.StartRollout(evm.RolloutSpec{
		Tasks:          []string{"a-press-0"},
		Version:        3,
		Strategy:       evm.RolloutAllAtOnce,
		HealthWindow:   1500 * time.Millisecond,
		ActuationBound: time.Second,
	})
	if err != nil {
		return err
	}
	campus.Run(10 * time.Second)
	for _, ev := range log.Events() {
		if rb, ok := ev.(evm.RollbackEvent); ok {
			fmt.Printf("  bad capsule:  v%d rolled back to v%d at %v (%s, cells %v)\n",
				rb.FromVersion, rb.ToVersion, rb.At, rb.Reason, rb.Cells)
		}
	}
	if rollout.State() != evm.RolloutRolledBack {
		return fmt.Errorf("ota: bad capsule ended %s, want rolled-back", rollout.State())
	}
	return nil
}

// gridSweep exercises the scenario registry and the parallel Runner: a
// scenario x seed x fault-plan grid fans out across worker goroutines and
// the per-run metrics are aggregated per scenario (the ROADMAP's
// "hundreds of seeded runs" workflow).
func gridSweep() error {
	// One worker per core, but always enough to demonstrate the sharding
	// even on single-core hosts.
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	fmt.Printf("=== GRID: registry sweep on the parallel Runner (%d workers) ===\n", workers)
	crash := evm.FaultPlan{
		Name:  "crash-2",
		Steps: []evm.FaultStep{{At: 10 * time.Second, CrashNode: 2}},
	}
	scenarios := []string{
		evm.ScenarioGasPlant, evm.ScenarioEightController, evm.ScenarioCapacity,
		evm.ScenarioCampusFailover, evm.ScenarioRefinery, evm.ScenarioRefineryRing,
		evm.ScenarioRefineryRingSever, evm.ScenarioPipeline, evm.ScenarioRandomField,
		evm.ScenarioOTACampus, evm.ScenarioModeChangeLine,
	}
	specs := evm.SpecGrid(scenarios,
		[]uint64{1, 2, 3, 4},
		[]evm.FaultPlan{{}, crash},
		60*time.Second)
	if eventDir != "" {
		if err := os.MkdirAll(eventDir, 0o755); err != nil {
			return err
		}
		fmt.Printf("  per-run event CSVs -> %s\n", eventDir)
	}
	start := time.Now() //evm:allow-wallclock host benchmark stopwatch around whole runs; never read inside the simulation
	results := (&evm.Runner{Workers: workers, EventDir: eventDir}).Run(specs)
	elapsed := time.Since(start) //evm:allow-wallclock host benchmark stopwatch
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Printf("  FAILED %s: %v\n", r.Spec.Label(), r.Err)
		}
	}
	fmt.Printf("  %d runs (%d scenarios x 4 seeds x 2 plans) in %v wall, %d failed\n",
		len(specs), len(scenarios), elapsed.Round(time.Millisecond), failed)
	agg := evm.Aggregate(results)
	for _, sc := range scenarios {
		sum, ok := agg[sc]
		if !ok {
			continue
		}
		fmt.Printf("  %-18s", sc)
		keys := []string{evm.MetricFailovers, evm.MetricActuations, "coverage", "lts_level_pct", "members",
			evm.MetricInterCellMigrations, "tasks_alive"}
		shown := 0
		for _, k := range keys {
			if m, has := sum[k]; has {
				fmt.Printf("  %s mean=%.2f", k, m.Mean)
				shown++
			}
		}
		if shown == 0 {
			names := make([]string, 0, len(sum))
			for k := range sum {
				names = append(names, k)
			}
			sort.Strings(names)
			fmt.Printf("  metrics: %v", names)
		}
		fmt.Println()
	}
	return nil
}
