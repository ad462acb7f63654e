// Command nodbbench regenerates the figures of the NoDB paper's evaluation
// section (§5, Figs 3-13) and prints their series as text tables. The
// figures reproduce the paper's shapes; speed claims about this engine
// come from the repo benchmark (benchmark/run.sh).
//
// Usage:
//
//	nodbbench -fig all                 # every figure at the default scale
//	nodbbench -fig fig5,fig10          # a subset
//	nodbbench -fig fig7 -scale small   # laptop-scale quick run
//	nodbbench -workdir /data/nodb      # keep datasets between runs
//
// Datasets are generated (deterministically) under the work directory on
// first use and reused afterwards.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nodb/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "comma-separated figure ids (fig3..fig13, fig8a, fig8b) or 'all'")
	scale := flag.String("scale", "default", "experiment scale: small or default")
	workDir := flag.String("workdir", "", "dataset/work directory (default: a temp dir, removed on exit)")
	flag.Parse()

	dir := *workDir
	cleanup := func() {}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "nodbbench")
		if err != nil {
			fatal(err)
		}
		dir = tmp
		cleanup = func() { os.RemoveAll(tmp) }
	}
	defer cleanup()

	var cfg bench.Config
	switch *scale {
	case "small":
		cfg = bench.Small(dir)
	case "default":
		cfg = bench.Default(dir)
	default:
		fatal(fmt.Errorf("unknown scale %q (want small or default)", *scale))
	}

	var ids []string
	if *fig == "all" {
		ids = bench.FigureIDs()
	} else {
		ids = strings.Split(*fig, ",")
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		rep, err := bench.Run(id, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		rep.Print(os.Stdout)
		fmt.Printf("[%s regenerated in %.1fs]\n\n", id, time.Since(start).Seconds())
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nodbbench: %v\n", err)
	os.Exit(1)
}
