package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json: the names, units, directions and regression
// bounds every comparison is judged by.
type benchSpec struct {
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runRecord is one run kept by -repeat.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

// runSet is the file -repeat writes and -compare reads.
type runSet struct {
	Go         string      `json:"go"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Scale      string      `json:"scale"`
	Seconds    float64     `json:"seconds"`
	Runs       []runRecord `json:"runs"`
}

// runChild runs one workload in a child process (this same binary) and
// returns its result object and everything it printed.
func runChild(cfg runConfig) (*result, string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self,
		"--workload", cfg.workload,
		"--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--trace", trace,
		"--scale", cfg.scale.name,
		"--workdir", cfg.workdir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil { // Run waits for the child to exit
		return nil, out.String(), err
	}
	text := out.String()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, text, fmt.Errorf("child printed no result line: %w", err)
	}
	return &res, text, nil
}

// repeatRuns runs every named workload n times, seeds seed..seed+n-1, each
// run in its own process, interleaving workloads so slow drift of the
// machine spreads over all of them. It prints per-workload medians and
// spreads and, when out is set, writes the runs for -compare. A run with a
// failed operation is kept in the output and makes repeatRuns fail.
func repeatRuns(w io.Writer, base runConfig, names []string, n int, out string) error {
	set := runSet{
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: pinProcs(),
		Scale: base.scale.name, Seconds: base.seconds,
	}
	for i := 0; i < n; i++ {
		for _, name := range names {
			cfg := base
			cfg.workload = name
			cfg.seed = base.seed + int64(i)
			res, text, err := runChild(cfg)
			if err != nil {
				io.WriteString(w, text)
				return fmt.Errorf("%s seed %d: %w", name, cfg.seed, err)
			}
			fmt.Fprintf(w, "run %d/%d %s seed=%d correct=%v attempted=%d failed=%d\n",
				i+1, n, name, cfg.seed, res.Correct, res.Attempted, res.Failed)
			set.Runs = append(set.Runs, runRecord{Workload: name, Seed: cfg.seed, Trace: cfg.trace, Result: res})
		}
	}
	summarize(w, &set)
	if out != "" {
		raw, err := json.MarshalIndent(&set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			return err
		}
	}
	for _, wl := range names {
		if f := set.failures()[wl]; f.failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", wl, f.failed, f.attempted)
		}
	}
	return nil
}

// failureCount sums the attempted and failed operations of one workload
// over a run set.
type failureCount struct{ attempted, failed int }

func (f failureCount) ratio() float64 { return ratio(float64(f.failed), float64(f.attempted)) }

// failures groups a run set's operation counts by workload. A run that
// calls itself incorrect counts at least one failure.
func (s *runSet) failures() map[string]failureCount {
	out := map[string]failureCount{}
	for _, r := range s.Runs {
		if r.Result == nil {
			continue
		}
		f := out[r.Workload]
		f.attempted += r.Result.Attempted
		f.failed += r.Result.Failed
		if !r.Result.Correct && r.Result.Failed == 0 {
			f.failed++
		}
		out[r.Workload] = f
	}
	return out
}

// samples groups a run set's metric values by workload and metric name.
func (s *runSet) samples() (map[string]map[string][]float64, map[string]string) {
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range s.Runs {
		if r.Result == nil {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	return vals, units
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// spreadOf is the interquartile range as a share of the median — the
// steadiness measure the benchmark's acceptance rule uses.
func spreadOf(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

func summarize(w io.Writer, s *runSet) {
	vals, units := s.samples()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn\tq1\tmedian\tq3\tspread")
	fails := s.failures()
	for _, wl := range sortedKeys(vals) {
		fmt.Fprintf(tw, "%s\tfail_ratio\tratio\t%d\t-\t%.5g\t-\t-\n", wl, fails[wl].attempted, fails[wl].ratio())
		for _, name := range sortedKeys(vals[wl]) {
			xs := vals[wl][name]
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.5g\t%.5g\t%.5g\t%.1f%%\n",
				wl, name, units[name], len(xs), q1, q2, q3, 100*spreadOf(xs))
		}
	}
	tw.Flush()
}

// compareFiles judges run set b (the change) against run set a (the
// parent), one row per workload x metric, by the rules of the
// choosing-metrics guide: a metric whose own run-to-run spread exceeds its
// bound is "unresolved", never "unchanged"; otherwise it is "regressed"
// when b's median is worse than a's by more than the bound, else "ok".
// Per-layer metrics carry no bound and are listed with their change only.
// Failed operations are judged first, with an absolute bound of zero: each
// workload gets a fail_ratio row (failed / attempted over all its runs),
// "regressed" when b's is higher than a's at all.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	var a, b runSet
	for path, dst := range map[string]*runSet{pathA: &a, pathB: &b} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, dst); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	rules := map[string]specMetric{}
	for _, m := range spec.EndToEnd {
		rules[m.Name] = m
	}
	for _, m := range spec.PerLayer {
		rules[m.Name] = m
	}
	va, units := a.samples()
	vb, _ := b.samples()
	regressed := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn_a\tmedian_a\tiqr_a\tn_b\tmedian_b\tiqr_b\tchange\tbound\tverdict")
	fa, fb := a.failures(), b.failures()
	for _, wl := range sortedKeys(va) {
		if _, ok := fb[wl]; ok {
			verdict := "ok"
			if fb[wl].ratio() > fa[wl].ratio() {
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(tw, "%s\tfail_ratio\tratio\t%d\t%.5g\t-\t%d\t%.5g\t-\t%+d failed\t+0 abs\t%s\n",
				wl, fa[wl].attempted, fa[wl].ratio(), fb[wl].attempted, fb[wl].ratio(),
				fb[wl].failed-fa[wl].failed, verdict)
		}
		for _, name := range sortedKeys(va[wl]) {
			xa, xb := va[wl][name], vb[wl][name]
			if len(xb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			rule := rules[name]
			// worse > 0 means b is worse than a, as a share of a's median.
			worse := ratio(b2-a2, math.Abs(a2))
			if rule.Better == "higher" {
				worse = -worse
			}
			verdict, bound := "-", "-"
			if rule.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*rule.Bound)
				switch {
				case spreadOf(xa) > rule.Bound || spreadOf(xb) > rule.Bound:
					verdict = "unresolved"
				case worse > rule.Bound:
					verdict = "regressed"
					regressed++
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.5g\t%.3g\t%d\t%.5g\t%.3g\t%+.1f%%\t%s\t%s\n",
				wl, name, units[name], len(xa), a2, a3-a1, len(xb), b2, b3-b1,
				100*ratio(b2-a2, math.Abs(a2)), bound, verdict)
		}
	}
	tw.Flush()
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
