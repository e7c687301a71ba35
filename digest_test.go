package evm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// updateDigests regenerates testdata/digests.json. A regeneration is a
// behaviour change and must be explained in CHANGES.md.
var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.json from the current code")

const digestFile = "testdata/digests.json"

// digestHorizon keeps the lock cheap: long enough for a crash, a
// failover, a recovery and a few seconds of steady state afterwards.
const digestHorizon = 20 * time.Second

// digestPlans are the three fault regimes every scenario is pinned under.
func digestPlans() []FaultPlan {
	return []FaultPlan{
		{},
		{Name: "crash-2", Steps: []FaultStep{{At: 5 * time.Second, CrashNode: 2}}},
		{Name: "crash-recover-2", Steps: []FaultStep{
			{At: 5 * time.Second, CrashNode: 2},
			{At: 12 * time.Second, RecoverNode: 2},
		}},
	}
}

// runDigests is the behaviour fingerprint of one run: the sha256 of its
// event-log CSV, of its Chrome-trace JSON and of its sorted metrics.
type runDigests struct {
	Events  string `json:"events_csv"`
	Trace   string `json:"trace_json"`
	Metrics string `json:"metrics"`
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// metricsText renders a metric map one "key=value" line per metric, in
// key order, with the shortest exact float formatting.
func metricsText(m map[string]float64, err error) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, strconv.FormatFloat(m[k], 'g', -1, 64))
	}
	if err != nil {
		fmt.Fprintf(&b, "err=%v\n", err)
	}
	return []byte(b.String())
}

// computeDigests runs every registered scenario x 2 seeds x the three
// fault plans with tracing and event capture on, and fingerprints each.
func computeDigests(t *testing.T) map[string]runDigests {
	t.Helper()
	dir := t.TempDir()
	specs := SpecGrid(Scenarios(), []uint64{1, 2}, digestPlans(), digestHorizon)
	r := &Runner{Workers: 2, EventDir: dir, Trace: true}
	out := make(map[string]runDigests, len(specs))
	for _, res := range r.Run(specs) {
		label := res.Spec.Label()
		csv, err := os.ReadFile(filepath.Join(dir, sanitizeLabel(label)+".csv"))
		if err != nil && res.Err == nil {
			t.Fatalf("%s: %v", label, err)
		}
		out[label] = runDigests{
			Events:  sha(csv),
			Trace:   sha(res.TraceJSON),
			Metrics: sha(metricsText(res.Metrics, res.Err)),
		}
	}
	return out
}

// TestBehaviourDigests is the behaviour lock: the event stream, the trace
// export and the metrics of every registered scenario must match the
// committed digests bit for bit. Performance work on the simulation path
// must leave them untouched; a deliberate behaviour change regenerates
// them with `go test -run TestBehaviourDigests -update .`.
func TestBehaviourDigests(t *testing.T) {
	got := computeDigests(t)
	if *updateDigests {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), digestFile)
		return
	}
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]runDigests
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, label := range sortedLabels(got) {
		w, ok := want[label]
		if !ok {
			t.Errorf("%s: no committed digest (regenerate with -update)", label)
			continue
		}
		g := got[label]
		if g.Events != w.Events {
			t.Errorf("%s: event-log CSV drifted", label)
		}
		if g.Trace != w.Trace {
			t.Errorf("%s: trace JSON drifted", label)
		}
		if g.Metrics != w.Metrics {
			t.Errorf("%s: metrics drifted", label)
		}
	}
	for _, label := range sortedLabels(want) {
		if _, ok := got[label]; !ok {
			t.Errorf("%s: committed digest has no run (scenario gone?)", label)
		}
	}
}

func sortedLabels(m map[string]runDigests) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
