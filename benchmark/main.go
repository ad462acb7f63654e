// Command benchmark is the repository's single benchmark: five NoDB
// workloads, end-to-end metrics with regression bounds, and per-layer
// metrics from a traced run. BENCHMARK.json at the repository root names
// every workload and metric this program prints; README.md in this
// directory explains them.
//
//	bash benchmark/run.sh --workload cold_first_query --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload all --repeat 5 --out runs.json
//	bash benchmark/run.sh --compare before.json after.json
//
// The last line of standard output of a single run is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workloadNames lists the workloads in report order. Names are final:
// later performance claims cite them.
var workloadNames = []string{
	"cold_first_query", "adaptive_sequence", "warm_analytics", "served_mix", "restart_warm",
}

func newWorkload(cfg *runConfig) (runner, error) {
	switch cfg.workload {
	case "cold_first_query":
		return newColdWorkload(cfg), nil
	case "adaptive_sequence":
		return newAdaptiveWorkload(cfg), nil
	case "warm_analytics":
		return newWarmWorkload(cfg), nil
	case "served_mix":
		return newServedWorkload(cfg), nil
	case "restart_warm":
		return newRestartWorkload(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	workdir  string
	repeat   int
	out      string
	compare  bool
	spec     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generator, filter bound and request parameter")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured window per run, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.scale, "scale", "full", "input sizes: full or smoke")
	flag.StringVar(&o.workdir, "workdir", ".bench_work", "directory for generated inputs (removed after the run)")
	flag.IntVar(&o.repeat, "repeat", 0, "run each selected workload N times with seeds seed..seed+N-1")
	flag.StringVar(&o.out, "out", "", "with -repeat: file the runs are written to, for -compare")
	flag.BoolVar(&o.compare, "compare", false, "compare two -repeat outputs: -compare a.json b.json")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition (bounds for -compare)")
	flag.Parse()

	if err := run(&o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o *options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare wants two files: -compare a.json b.json")
		}
		return compareFiles(os.Stdout, o.spec, args[0], args[1])
	}
	sc, ok := scales[o.scale]
	if !ok {
		return fmt.Errorf("unknown scale %q (want full or smoke)", o.scale)
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	base := runConfig{seed: o.seed, seconds: o.seconds, trace: o.trace != 0, scale: sc, workdir: o.workdir}
	if o.repeat > 0 {
		return repeatRuns(os.Stdout, base, names, o.repeat, o.out)
	}
	if len(names) > 1 {
		// Each workload gets its own process, so one workload's heap never
		// shows in the next one's memory numbers.
		for _, name := range names {
			cfg := base
			cfg.workload = name
			res, text, err := runChild(cfg)
			os.Stdout.WriteString(text)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: incorrect results", name)
			}
		}
		return nil
	}
	base.workload = o.workload
	res, err := runOne(os.Stdout, &base)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// header records what the numbers were measured on.
func header(w io.Writer, cfg *runConfig, procs int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				commit = s.Value[:12]
			}
		}
	}
	fmt.Fprintf(w, "# nodb benchmark: workload=%s seed=%d scale=%s seconds=%g trace=%v\n",
		cfg.workload, cfg.seed, cfg.scale.name, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# commit=%s %s nproc=%d GOMAXPROCS=%d\n", commit, runtime.Version(), runtime.NumCPU(), procs)
}

// runOne executes one workload once in this process and returns the result
// object. The human-readable report goes to w.
func runOne(w io.Writer, cfg *runConfig) (*result, error) {
	procs := pinProcs()
	header(w, cfg, procs)
	wl, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	dir, err := runDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up, several times over: generate the inputs and bring the engine
	// to the workload's start state. Every run generates — there is no
	// cross-run dataset cache — so setup_s means the same thing every time.
	var setup []float64
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			if err := wl.release(); err != nil {
				return nil, fmt.Errorf("release: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := wl.prepare(dir); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	if err := wl.expect(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	window := time.Duration(cfg.seconds * float64(time.Second))
	var ref *opStats // untraced reference window of a traced run
	var tr *tracer
	if cfg.trace {
		ref = &opStats{}
		if err := wl.measure(window/2, nil, ref); err != nil {
			return nil, fmt.Errorf("measure (untraced reference): %w", err)
		}
		window -= window / 2
		tr = newTracer()
	}
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := &opStats{}
	rss := startRSSSampler()
	if err := wl.measure(window, tr, st); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	rssSamples := rss.finish()
	runtime.ReadMemStats(&after)
	hwm := peakRSSMB()
	end, err := wl.finish(st)
	if err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	if end.extra == nil {
		end.extra = map[string]float64{}
	}
	end.extra["go.rss_hwm_mb"] = hwm
	if err := wl.release(); err != nil {
		return nil, fmt.Errorf("release: %w", err)
	}
	if st.attempted == 0 {
		return nil, errors.New("no operation completed in the measured window")
	}

	res := &result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed}
	fmt.Fprintf(w, "# %d operations in %.2fs, %d failed (%d latency samples)\n",
		st.ops, st.wall.Seconds(), st.failed, len(st.lat))
	for _, n := range st.notes {
		fmt.Fprintf(w, "# failure: %s\n", n)
	}
	for _, n := range st.info {
		fmt.Fprintf(w, "# %s\n", n)
	}
	if cfg.trace {
		res.Metrics, err = perLayer(cfg, dir, st, ref, tr, end, &before, &after)
		if err != nil {
			return nil, err
		}
		tracePath := filepath.Join(cfg.workdir, "trace-"+cfg.workload+".json")
		if err := tr.write(tracePath); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "# %d spans written to %s\n", len(tr.spans), tracePath)
	} else {
		res.Metrics = endToEnd(setup, st, end, rssSamples)
	}
	printMetrics(w, res.Metrics)
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return res, nil
}

// endToEnd computes the metrics a user of the system would see. Every
// workload reports all of them.
func endToEnd(setup []float64, st *opStats, end endState, rssMB []float64) map[string]metric {
	return map[string]metric{
		"setup_s":                {median(setup), "s"},
		"op_ms_p50":              {sliced(st.lat, st.chunk, 0.50), "ms"},
		"op_ms_p90":              {sliced(st.lat, st.chunk, 0.90), "ms"},
		"ops_per_s":              {float64(st.ops) / st.wall.Seconds(), "1/s"},
		"first_row_ms_p50":       {sliced(st.first, st.chunk, 0.50), "ms"},
		"write_ms_p50":           {sliced(st.write, 0, 0.50), "ms"},
		"rss_mb_p99":             {quantile(rssMB, 0.99), "MB"},
		"aux_bytes_per_raw_byte": {ratio(float64(end.auxBytes), float64(end.rawBytes)), "ratio"},
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
