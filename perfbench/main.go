// Command perfbench is the repository's benchmark: host cost per simulated
// second of the EVM simulator, and evmd's throughput and latency, on three
// workloads (cell-fig6, campus-faults, daemon-mix; see BENCHMARK.json). It
// drives the evm module only through public entry points (Runner.RunOne
// with its Build, Instrument and Checkers hooks, the layers' Stats()
// accessors, and evmd's HTTP handler on loopback).
//
//	bash perfbench/run.sh --workload cell-fig6 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints every end-to-end metric of BENCHMARK.json; with
// --trace 1 it measures the same untraced pass and then traced passes that
// attribute host CPU and allocations to layers, count each layer's work
// and time the tracing itself. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. "failed" counts
// operation failures (a run error, a refused or failed evmd run, a cut
// stream); runs whose events breach DefaultInvariants are counted apart as
// violating, since the simulated system, not the operation, failed there.
//
// Every input derives from --seed: the printed inputs digest names them,
// and re-running a claim with a seed that was not used while writing it
// (a held-out seed) checks that it does not depend on one input set.
//
// Outputs are checked, not only timed: each run's simulated outputs are
// folded into a digest, repetitions of a spec must agree, traced passes
// must reproduce the untraced digests, evmd's streams must match the
// serial reference, and the layer counters must be consistent. The
// per-workload sim_digest must not change under a change that only claims
// speed. A failed check prints CHECK FAILED lines, reports correct=false
// and exits with status 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"evm"
)

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 9

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 10, "host seconds each measured pass runs for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced passes")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	rep, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

// report is one invocation's result.
type report struct {
	header    []string
	notes     []string
	problems  []string
	withheld  []string // declared metrics left out because their data is incomplete
	attempted int
	failed    int
	names     []string // metric names in print order
	values    map[string]float64
	units     map[string]string
}

func (r *report) set(name string, v float64) {
	if _, dup := r.values[name]; !dup {
		r.names = append(r.names, name)
	}
	r.values[name] = v
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) print(f *os.File) error {
	for _, l := range r.header {
		fmt.Fprintln(f, l)
	}
	for _, n := range r.names {
		fmt.Fprintf(f, "%-32s %14.6g %s\n", n, r.values[n], r.units[n])
	}
	for _, l := range r.notes {
		fmt.Fprintln(f, l)
	}
	for _, p := range r.problems {
		fmt.Fprintln(f, "CHECK FAILED:", p)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, make(map[string]metric, len(r.names))}
	for _, n := range r.names {
		out.Metrics[n] = metric{r.values[n], r.units[n]}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(f, string(b))
	return err
}

// declaredUnits reads the metric list of BENCHMARK.json for one mode.
func declaredUnits(traced bool) (map[string]string, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("read metric declarations: %w", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	list := decl.EndToEnd
	if traced {
		list = decl.PerLayer
	}
	units := make(map[string]string, len(list))
	for _, m := range list {
		units[m.Name] = m.Unit
	}
	return units, nil
}

func run(name string, seed uint64, seconds float64, traced bool) (*report, error) {
	units, err := declaredUnits(traced)
	if err != nil {
		return nil, err
	}
	if err := checkLayerMap("."); err != nil {
		return nil, err
	}
	rep := &report{values: make(map[string]float64)}

	// Set-up: generate the inputs (building one instance of each scenario
	// to read its members) and, for daemon-mix, start evmd and its
	// listener. It runs setupReps times; the last instance is used.
	var (
		wl     *workload
		d      *daemon
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
			d = nil
		}
		start := time.Now()
		if wl, err = makeWorkload(name, seed); err != nil {
			return nil, err
		}
		if name == daemonMix {
			if d, err = startDaemon(); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if d != nil {
		defer d.stop()
	}
	inputs, err := wl.inputsDigest()
	if err != nil {
		return nil, err
	}
	rep.header = append(rep.header,
		fmt.Sprintf("perfbench workload=%s seed=%d seconds=%g trace=%v", name, seed, seconds, traced),
		fmt.Sprintf("inputs: %d run specs per cycle, sha256=%s", len(wl.specs), inputs))
	for _, sp := range wl.specs {
		fmt.Fprintf(os.Stderr, "input %s horizon=%v steps=%s\n", sp.Label(), sp.Horizon, describeSteps(sp.Faults))
	}

	// The measured, untraced pass, started on a freshly collected heap.
	runtime.GC()
	h := newHarness(false)
	var (
		win    *window
		druns  []daemonRun
		cycle  []*runOutput // one output per spec: what every later pass must reproduce
		expect []*runOutput // daemon-mix: the record each daemon run must digest to
	)
	if d != nil {
		if win, druns, err = daemonWindow(d, wl, seconds); err != nil {
			return nil, err
		}
		if cycle, expect, err = daemonReference(wl); err != nil {
			return nil, err
		}
	} else {
		win = serialWindow(h, wl, seconds)
		cycle = win.outs[:len(wl.specs)]
	}
	peakRSS := peakRSSMB()
	L := len(wl.specs)
	checkWindow := func(pass string, outs []*runOutput) {
		for i, o := range outs {
			if expect != nil {
				if o.err == "" && o.digest() != expect[i%L].digest() {
					rep.problem("%s: evmd run %d (%s) differs from the serial reference", pass, i, wl.specs[i%L].Label())
				}
			} else if o.digest() != cycle[i%L].digest() {
				rep.problem("%s: run %d (%s) disagrees with the first run of that spec", pass, i, wl.specs[i%L].Label())
			}
		}
	}
	checkWindow("untraced pass", win.outs)

	simDigest := sha256.New()
	for _, o := range win.outs[:L] {
		fmt.Fprintln(simDigest, o.digest())
	}
	rep.header = append(rep.header, "sim_digest: "+hex.EncodeToString(simDigest.Sum(nil)))

	violating := 0
	for i, o := range win.outs {
		rep.attempted++
		switch {
		case o.err != "":
			rep.failed++
		case cycle[i%L].violations > 0:
			violating++
		}
	}
	// Medians filter the interference of other tenants on a shared host
	// out of single runs. Serial workloads repeat each spec several times:
	// a cycle's time is the sum of the specs' median host times, and the
	// latency percentiles are taken over those medians. evmd runs overlap,
	// so there a cycle's time is the median cycle's, and the latency
	// percentiles are over every run.
	cycleSim := wl.cycleSimSeconds()
	cycles := float64(len(win.outs) / L)
	var cycleWall float64
	var lat []float64
	if d != nil {
		cycleWall = median(win.cycleWalls)
		for _, o := range win.outs {
			lat = append(lat, float64(o.wallNS)/1e6)
		}
	} else {
		for j := range wl.specs {
			var walls []float64
			for i := j; i < len(win.outs); i += L {
				walls = append(walls, float64(win.outs[i].wallNS)/1e6)
			}
			m := median(walls)
			lat = append(lat, m)
			cycleWall += m / 1e3
		}
	}
	cycleViolating := 0
	var sum counters
	for _, o := range cycle {
		if o.violations > 0 {
			cycleViolating++
		}
		if o.counters != nil {
			for _, bad := range o.counters.check() {
				rep.problem("%s", bad)
			}
			sum.add(*o.counters)
		}
	}
	latencyBasis := fmt.Sprintf("%d runs", len(lat))
	if d == nil {
		latencyBasis = fmt.Sprintf("%d per-spec medians of %d runs", len(lat), len(win.outs))
	}
	rep.header = append(rep.header,
		fmt.Sprintf("runs: attempted=%d failed=%d (error, refusal or cut stream) violating=%d (DefaultInvariants breach) fail_ratio=%.4f",
			rep.attempted, rep.failed, violating, float64(rep.failed+violating)/float64(rep.attempted)),
		"latency percentiles over "+latencyBasis)

	if !traced {
		rep.set("setup_s", median(setups))
		rep.set("sim_speed", cycleSim/cycleWall)
		rep.set("runs_per_s", float64(L)/cycleWall)
		rep.set("run_latency_p50_ms", percentile(lat, 50))
		rep.set("run_latency_p99_ms", percentile(lat, 99))
		rep.set("alloc_mb_per_sim_s", float64(win.allocBytes)/1e6/(cycles*cycleSim))
		rep.set("peak_rss_mb", peakRSS)
		return rep, rep.finish(units)
	}

	// Traced pass 1: the measured pass again, for half as long, under the
	// CPU profiler and between two allocation-profile snapshots.
	lp, err := profiled(func() error {
		if d != nil {
			pw, _, err := daemonWindow(d, wl, seconds/2)
			if err != nil {
				return err
			}
			checkWindow("profiled pass", pw.outs)
			return nil
		}
		checkWindow("profiled pass", serialWindow(h, wl, seconds/2).outs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu, alloc := shares(lp.cpu), shares(lp.alloc)
	var cpuSum, allocSum float64
	for _, l := range reportLayers {
		rep.set(l+".cpu_pct", cpu[l])
		rep.set(l+".alloc_pct", alloc[l])
		cpuSum += cpu[l]
		allocSum += alloc[l]
	}
	if cpu[toolsLayer] > 0 || alloc[toolsLayer] > 0 {
		rep.problem("profile samples charged to packages outside the layer map (cpu %.2f%%, alloc %.2f%%)", cpu[toolsLayer], alloc[toolsLayer])
	}
	rep.set("profile.samples", float64(lp.samples))

	// Traced pass 2: one cycle with engine dispatch spans on and the span
	// cap lifted, and with the invariant checkers timed. Tracing must not
	// change what the simulation computes.
	th := newHarness(true)
	var spanWall, dispatched, dropped float64
	for j, spec := range wl.specs {
		o := th.run(spec)
		if o.digest() != cycle[j].digest() {
			rep.problem("traced pass: %s digest differs from the untraced pass", spec.Label())
		}
		dispatched += float64(o.dispatches)
		dropped += float64(o.dropped)
		spanWall += float64(o.wallNS)
	}
	rep.set("span.dropped", dropped)
	if dropped == 0 {
		rep.set("sim.events_per_sim_s", dispatched/cycleSim)
		rep.set("sim.ns_per_event", cycleWall*1e9/dispatched)
	} else {
		rep.withheld = append(rep.withheld, "sim.events_per_sim_s", "sim.ns_per_event")
		rep.notes = append(rep.notes, fmt.Sprintf("sim.events_per_sim_s, sim.ns_per_event: invalid, %v spans dropped", dropped))
	}
	// The untraced cost of the same cycle: serial workloads measured it in
	// the window; evmd's runs overlap, so there it is the serial reference.
	untracedCycle := cycleWall * 1e9
	if d != nil {
		untracedCycle = 0
		for _, o := range cycle {
			untracedCycle += float64(o.wallNS)
		}
	}
	rep.set("trace.overhead_pct", 100*(spanWall/untracedCycle-1))

	perSim := func(n int) float64 { return float64(n) / cycleSim }
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep.set("radio.tx", perSim(sum.RadioTx))
	rep.set("radio.delivered", perSim(sum.RadioDelivered))
	rep.set("radio.drop_loss", perSim(sum.RadioDropLoss))
	rep.set("radio.drop_collision", perSim(sum.RadioDropCollision))
	rep.set("radio.drop_norx", perSim(sum.RadioDropNoRX))
	rep.set("radio.drop_range", perSim(sum.RadioDropRange))
	rep.set("radio.delivered_per_tx", ratio(sum.RadioDelivered, sum.RadioTx))
	rep.set("rtlink.msgs_sent", perSim(sum.RtlinkMsgsSent))
	rep.set("rtlink.msgs_delivered", perSim(sum.RtlinkMsgsDelivered))
	rep.set("rtlink.frags_sent", perSim(sum.RtlinkFragsSent))
	rep.set("rtlink.frags_relayed", perSim(sum.RtlinkFragsRelayed))
	rep.set("rtlink.queue_drops", perSim(sum.RtlinkQueueDrops))
	rep.set("rtlink.reserve_deferrals", perSim(sum.RtlinkReserveDeferrals))
	rep.set("rtlink.msg_delivery_ratio", ratio(sum.RtlinkMsgsDelivered, sum.RtlinkMsgsSent))
	rep.set("core.cycles", perSim(sum.CoreCycles))
	rep.set("core.health_sent", perSim(sum.CoreHealthSent))
	rep.set("core.actuations_sent", perSim(sum.CoreActuationsSent))
	rep.set("core.failovers", perSim(sum.CoreFailovers))
	rep.set("core.role_changes_sent", perSim(sum.CoreRoleChangesSent))
	rep.set("core.stale_inputs", perSim(sum.CoreStaleInputs))
	var gwOK, gwDenied, migrations, aborts, capsules, rollbacks float64
	for j, o := range cycle {
		if wl.specs[j].Scenario == evm.ScenarioGasPlant {
			gwOK += o.metrics["actuations_ok"]
			gwDenied += o.metrics["actuations_denied"]
		}
		migrations += o.metrics[evm.MetricInterCellMigrations]
		aborts += o.metrics[evm.MetricRebalanceAborts]
		capsules += o.metrics[evm.MetricCapsuleFrames]
		rollbacks += o.metrics[evm.MetricRollbacks]
	}
	rep.set("gateway.sensor_broadcasts", perSim(sum.GatewaySensorBroadcasts))
	rep.set("gateway.actuations_ok", gwOK/cycleSim)
	rep.set("gateway.actuations_denied", gwDenied/cycleSim)
	rep.set("backbone.sent", perSim(sum.BackboneSent))
	rep.set("backbone.delivered", perSim(sum.BackboneDelivered))
	rep.set("backbone.dropped", perSim(sum.BackboneDropped))
	rep.set("backbone.forwarded", perSim(sum.BackboneForwarded))
	rep.set("federation.intercell_migrations", migrations/cycleSim)
	rep.set("federation.rebalance_aborts", aborts/cycleSim)
	rep.set("ota.capsule_frames", capsules/cycleSim)
	rep.set("ota.rollbacks", rollbacks/cycleSim)
	rep.set("invariants.events_observed", float64(th.checkerEvs)/cycleSim)
	rep.set("invariants.ns_per_event", ratio(int(th.checkerNS), int(th.checkerEvs)))
	rep.set("invariants.violating_run_ratio", float64(cycleViolating)/float64(L))

	var builds, runs []float64
	timed := win.outs
	if d != nil {
		timed = cycle
	}
	for _, o := range timed {
		builds = append(builds, float64(o.buildNS)/1e6)
		runs = append(runs, float64(o.runNS)/1e6)
	}
	rep.set("runner.build_ms_p50", median(builds))
	rep.set("runner.run_ms_p50", median(runs))

	var submit, wait, exec, lag []float64
	var events float64
	for _, r := range druns {
		submit = append(submit, float64(r.submitNS)/1e6)
		wait = append(wait, r.queueWaitMS)
		exec = append(exec, r.execMS)
		lag = append(lag, r.lagMS)
		events += float64(r.events)
	}
	rep.set("evmd.submit_ms_p50", percentile(submit, 50))
	rep.set("evmd.submit_ms_p99", percentile(submit, 99))
	rep.set("evmd.queue_wait_ms_p50", percentile(wait, 50))
	rep.set("evmd.queue_wait_ms_p99", percentile(wait, 99))
	rep.set("evmd.exec_ms_p50", percentile(exec, 50))
	rep.set("evmd.exec_ms_p99", percentile(exec, 99))
	rep.set("evmd.stream_lag_ms_p50", percentile(lag, 50))
	if len(druns) > 0 {
		events /= float64(len(druns))
	}
	rep.set("evmd.events_per_run", events)
	peakQueue := 0
	if d != nil {
		peakQueue = d.srv.Stats().PeakQueueDepth
	}
	rep.set("evmd.peak_queue_depth", float64(peakQueue))

	rep.notes = append(rep.notes, layerMoves...)
	rep.notes = append(rep.notes, fmt.Sprintf("layer shares sum: cpu %.2f%% alloc %.2f%%", cpuSum, allocSum))
	return rep, rep.finish(units)
}

// layerMoves records which end-to-end metric each group of per-layer
// metrics should move, and on which workload.
var layerMoves = []string{
	"moves: <layer>.cpu_pct, <layer>.alloc_pct -> sim_speed, alloc_mb_per_sim_s on cell-fig6 and campus-faults; runs_per_s on daemon-mix",
	"moves: sim.* -> sim_speed on every workload",
	"moves: radio.* -> sim_speed, most on campus-faults (16-node cells)",
	"moves: rtlink.* -> sim_speed on cell-fig6 and campus-faults",
	"moves: core.* -> sim_speed and alloc_mb_per_sim_s on every workload",
	"moves: gateway.* -> sim_speed on cell-fig6 only",
	"moves: backbone.*, federation.*, ota.* -> sim_speed on campus-faults only",
	"moves: invariants.* -> sim_speed on campus-faults",
	"moves: runner.* -> runs_per_s and run_latency_p50_ms on daemon-mix, and setup_s",
	"moves: evmd.* -> run_latency_p99_ms and runs_per_s on daemon-mix only",
}

// finish checks the metric set against BENCHMARK.json and attaches units.
func (r *report) finish(units map[string]string) error {
	r.units = make(map[string]string, len(r.names))
	var errs []error
	for _, n := range r.names {
		u, ok := units[n]
		if !ok {
			errs = append(errs, fmt.Errorf("metric %s is not declared in BENCHMARK.json", n))
		}
		r.units[n] = u
	}
	for n := range units {
		if _, ok := r.values[n]; !ok && !slices.Contains(r.withheld, n) {
			errs = append(errs, fmt.Errorf("declared metric %s was not measured", n))
		}
	}
	return errors.Join(errs...)
}

func describeSteps(p evm.FaultPlan) string {
	var parts []string
	for _, st := range p.Steps {
		switch {
		case st.CrashNode != 0:
			parts = append(parts, fmt.Sprintf("crash %v@%v", st.CrashNode, st.At))
		case st.RecoverNode != 0:
			parts = append(parts, fmt.Sprintf("recover %v@%v", st.RecoverNode, st.At))
		case st.ComputeFault != nil:
			parts = append(parts, fmt.Sprintf("compute %v/%s=%g@%v", st.ComputeFault.Node, st.ComputeFault.Task, st.ComputeFault.Output, st.At))
		}
	}
	return strings.Join(parts, ",")
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
