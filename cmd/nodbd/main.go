// Command nodbd serves SQL over raw data files through an HTTP/JSON API:
// the in-situ engine behind a network endpoint, with admission control,
// per-query deadlines and budgets, sessions, and live observability.
//
// Usage:
//
//	nodbd -schema schema.nodb [-listen :8080] [-mode pm+cache] ...
//
// Endpoints (see internal/server):
//
//	POST /query      streaming NDJSON query API
//	POST /session    prepared-statement reuse islands
//	POST /checkpoint force a sidecar flush (requires -sidecar)
//	GET  /tables /schema /stats /healthz
//	GET  /metrics    Prometheus text exposition
//	GET  /debug/vars expvar (stdlib)
//	GET  /debug/queries running queries (live phase) + recent profiles
//
// Per-query observability: /query?profile=1 appends the execution profile
// as a final NDJSON line, and -slow-query logs the full profile of
// outliers.
//
// SIGTERM or SIGINT starts a graceful drain: new queries get 503, running
// queries finish (bounded by -drain-timeout), then the listener closes.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"nodb"
	"nodb/internal/metrics"
	"nodb/internal/server"
)

func main() {
	schemaPath := flag.String("schema", "", "schema declaration file (required)")
	listen := flag.String("listen", ":8080", "address to serve HTTP on")
	modeName := flag.String("mode", "pm+cache", "engine mode: pm+cache, pm, cache, external-files")
	noStats := flag.Bool("no-stats", false, "disable on-the-fly statistics")
	pmBudget := flag.Int64("pm-budget", 0, "positional map budget in bytes (0 = unlimited)")
	cacheBudget := flag.Int64("cache-budget", 0, "binary cache budget in bytes (0 = unlimited)")
	parallel := flag.Int("parallel", 0, "worker goroutines for cold scans (0 = GOMAXPROCS)")
	maxConcurrent := flag.Int("max-concurrent", 8, "queries executing at once")
	maxQueue := flag.Int("max-queue", 32, "queries allowed to wait for a slot (excess gets 429)")
	queueTimeout := flag.Duration("queue-timeout", 2*time.Second, "max wait for a slot before 503")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "default per-query deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "ceiling on client-requested deadlines")
	maxRows := flag.Int64("max-rows", 0, "default per-query row budget (0 = unlimited)")
	maxBytes := flag.Int64("max-bytes", 0, "per-query response byte budget (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	slowQuery := flag.Duration("slow-query", 0, "log the full execution profile of queries slower than this (0 = off)")
	profileRing := flag.Int("profile-ring", 64, "completed query profiles kept for /debug/queries")
	sidecar := flag.Bool("sidecar", false, "persist adaptive state to crash-safe sidecar files (warm restarts)")
	sidecarDir := flag.String("sidecar-dir", "", "directory for sidecar files (default: next to each raw file)")
	sidecarMax := flag.Int64("sidecar-max-bytes", 0, "per-table sidecar size budget in bytes (0 = unlimited)")
	flag.Parse()

	if *schemaPath == "" {
		fmt.Fprintln(os.Stderr, "nodbd: -schema is required")
		flag.Usage()
		os.Exit(2)
	}
	mode, err := nodb.ParseMode(*modeName)
	if err != nil {
		log.Fatalf("nodbd: %v", err)
	}

	cat := nodb.NewCatalog()
	if err := cat.LoadSchemaFile(*schemaPath, filepath.Dir(*schemaPath)); err != nil {
		log.Fatalf("nodbd: %v", err)
	}
	db, err := nodb.Open(cat, nodb.Options{
		Mode:                mode,
		DisableStatistics:   *noStats,
		PositionalMapBudget: *pmBudget,
		CacheBudget:         *cacheBudget,
		Parallelism:         *parallel,
		Sidecar: nodb.SidecarOptions{
			Enable:   *sidecar,
			Dir:      *sidecarDir,
			MaxBytes: *sidecarMax,
		},
	})
	if err != nil {
		log.Fatalf("nodbd: %v", err)
	}
	defer db.Close()

	reg := metrics.NewRegistry()
	srv, err := server.New(server.Config{
		DB:               db,
		MaxConcurrent:    *maxConcurrent,
		MaxQueue:         *maxQueue,
		QueueTimeout:     *queueTimeout,
		DefaultTimeout:   *queryTimeout,
		MaxTimeout:       *maxTimeout,
		DefaultMaxRows:   *maxRows,
		MaxResponseBytes: *maxBytes,
		SlowQuery:        *slowQuery,
		ProfileRing:      *profileRing,
		Registry:         reg,
	})
	if err != nil {
		log.Fatalf("nodbd: %v", err)
	}
	defer srv.Close()
	reg.PublishExpvar("nodb")

	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.Handle("/debug/vars", expvar.Handler())
	httpSrv := &http.Server{Addr: *listen, Handler: mux}

	errc := make(chan error, 1)
	go func() {
		log.Printf("nodbd: serving %d table(s) from %s on %s", len(db.Tables()), *schemaPath, *listen)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errc:
		log.Fatalf("nodbd: %v", err)
	case sig := <-sigc:
		log.Printf("nodbd: %v received, draining (timeout %s)", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("nodbd: drain incomplete: %v", err)
	} else {
		log.Printf("nodbd: drained clean")
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("nodbd: shutdown: %v", err)
	}
}
