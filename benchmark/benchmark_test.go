package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nodb/internal/testutil"
)

const specPath = "../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func smokeConfig(t *testing.T, workload string, trace bool) *runConfig {
	t.Helper()
	return &runConfig{
		workload: workload, seed: 7, seconds: 0.15, trace: trace,
		scale: scales["smoke"], workdir: t.TempDir(),
	}
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the program in step: the
// same workloads, the same end-to-end and per-layer metrics with the same
// units, and the limits the benchmark contract sets.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", spec.RunSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	// The numbers a why states are the program's: the frozen open-loop rate,
	// the request mix, how often restart_warm takes its write side.
	stated := map[string][]string{
		"served_mix": {
			fmt.Sprintf("%d connections", servedConnections),
			fmt.Sprintf("fixed at %d req/s", servedRate),
			fmt.Sprintf("%d%% point/range SELECT", 100-servedAggPct-servedInsertPct),
			fmt.Sprintf("%d%% GROUP BY", servedAggPct),
			fmt.Sprintf("%d%% INSERT", servedInsertPct),
		},
		"restart_warm":      {fmt.Sprintf("every %dth op", restartWriteEvery)},
		"adaptive_sequence": {fmt.Sprintf("%d-query", 3*adaptiveEpochQueries), fmt.Sprintf("%d%%", 100/adaptiveBudgetShare)},
	}
	for _, w := range spec.Workloads {
		for _, s := range stated[w.Name] {
			if !strings.Contains(w.Why, s) {
				t.Errorf("workload %s: why %q does not state %q, which is what the program does", w.Name, w.Why, s)
			}
		}
	}

	seen := map[string]bool{}
	check := func(m specMetric) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %s is declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	want := endToEnd([]float64{1}, &opStats{wall: 1}, endState{}, nil)
	if len(spec.EndToEnd) != len(want) {
		t.Errorf("end_to_end has %d metrics, the program reports %d", len(spec.EndToEnd), len(want))
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m)
		if got, ok := want[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end_to_end %s (%s): the program reports %+v", m.Name, m.Unit, got)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end must include setup_s (s, lower)")
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Errorf("per_layer has %d metrics, the program reports %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		check(m)
		if i < len(perLayerMetrics) && (perLayerMetrics[i].name != m.Name || perLayerMetrics[i].unit != m.Unit) {
			t.Errorf("per_layer[%d] = %s (%s), the program has %s (%s)",
				i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks that results are correct, that exactly the metrics BENCHMARK.json
// names come out, finite and with their units, and the property the
// workloads were chosen for: the cold workload parses tuples, the warm and
// restart workloads parse none.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			label := name + "/end_to_end"
			declared := spec.EndToEnd
			if trace {
				label, declared = name+"/per_layer", spec.PerLayer
			}
			t.Run(label, func(t *testing.T) {
				defer testutil.CheckLeaks(t)()
				var report bytes.Buffer
				res, err := runOne(&report, smokeConfig(t, name, trace))
				if err != nil {
					t.Fatalf("%v\n%s", err, report.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, report.String())
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s is not reported", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s is not finite", m.Name)
					case !trace && got.Value <= 0:
						t.Errorf("%s = %v; end-to-end metrics are never 0", m.Name, got.Value)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Error(err)
				}
				if !trace {
					return
				}
				parsed := res.Metrics["core.tuples_parsed"].Value
				switch name {
				case "cold_first_query":
					if parsed <= 0 {
						t.Errorf("cold_first_query parsed %v tuples, want > 0", parsed)
					}
				case "warm_analytics", "restart_warm":
					if parsed != 0 {
						t.Errorf("%s parsed %v tuples, want 0", name, parsed)
					}
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestDigestIsOrderInsensitiveAndTolerant(t *testing.T) {
	row := func(d *digest, i int64, f float64) {
		var r rowHasher
		r.int(i)
		r.float(f)
		r.text("x")
		d.finish(&r)
	}
	var a, b, c digest
	row(&a, 1, 0.1)
	row(&a, 2, 0.2)
	row(&b, 2, 0.2*(1+1e-15)) // reordered summation noise
	row(&b, 1, 0.1)
	row(&c, 1, 0.1)
	row(&c, 3, 0.2)
	if !a.matches(b) {
		t.Error("digest must ignore row order and last-bit float noise")
	}
	if a.matches(c) {
		t.Error("digest must notice a changed cell")
	}
}

// TestCompareVerdicts exercises the three verdicts of -compare, and that a
// failed operation regresses a comparison whatever the metrics say.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	failed := 0 // failed operations of the first run of the next set written
	write := func(name string, values ...float64) string {
		set := runSet{}
		for i, v := range values {
			set.Runs = append(set.Runs, runRecord{Workload: "warm_analytics", Seed: int64(i), Result: &result{
				Correct: failed == 0, Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"op_ms_p50": {v, "ms"}, "ops_per_s": {1000 / v, "1/s"}},
			}})
			failed = 0
		}
		raw, err := json.Marshal(&set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 101, 99, 100, 102)
	same := write("b.json", 101, 100, 100, 99, 101)
	slow := write("c.json", 130, 131, 129, 130, 132)
	noisy := write("d.json", 60, 100, 140, 80, 120)
	failed = 1
	wrong := write("e.json", 101, 100, 100, 99, 101)

	var out bytes.Buffer
	if err := compareFiles(&out, specPath, base, same); err != nil {
		t.Errorf("equal runs: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, specPath, base, slow); err == nil || !strings.Contains(out.String(), "regressed") {
		t.Errorf("30%% slower must be reported as regressed, got err=%v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, specPath, base, wrong); err == nil || !strings.Contains(out.String(), "regressed") {
		t.Errorf("one failed operation must be reported as regressed, got err=%v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, specPath, wrong, same); err != nil {
		t.Errorf("fewer failures than the parent: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, specPath, noisy, slow); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must be unresolved, got err=%v\n%s", err, out.String())
	}
}
