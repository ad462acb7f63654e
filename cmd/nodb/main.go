// Command nodb is an interactive SQL shell over raw data files: point it
// at a schema declaration and start querying, with no load step.
//
// Usage:
//
//	nodb -schema schema.nodb [-mode pm+cache|pm|cache|external-files] [-q "SELECT ..."]
//
// The schema file declares tables over raw files in any registered format
// — CSV (default), FITS binary tables and JSON-Lines ship built in. The
// format comes from an explicit "format" clause or the file extension:
//
//	table lineitem from lineitem.tbl delim pipe format csv
//	  l_orderkey int
//	  l_quantity float
//	end
//	table events from events.jsonl format jsonl
//	  user text
//	  ms int
//	end
//
// Inside the shell, end statements with Enter. Results stream: rows print
// as the engine produces them, so a huge result starts appearing
// immediately, and Ctrl-C cancels the running statement (not the shell).
// Meta commands:
//
//	\metrics TABLE   adaptive-structure state (positional map, cache)
//	\formats         registered raw formats
//	\q               quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"nodb"
)

func main() {
	schemaPath := flag.String("schema", "", "schema declaration file (required)")
	modeName := flag.String("mode", "pm+cache", "engine mode: pm+cache, pm, cache, external-files")
	query := flag.String("q", "", "run one query and exit")
	noStats := flag.Bool("no-stats", false, "disable on-the-fly statistics")
	pmBudget := flag.Int64("pm-budget", 0, "positional map budget in bytes (0 = unlimited)")
	cacheBudget := flag.Int64("cache-budget", 0, "binary cache budget in bytes (0 = unlimited)")
	parallel := flag.Int("parallel", 0, "worker goroutines for cold CSV scans (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	if *schemaPath == "" {
		fmt.Fprintln(os.Stderr, "nodb: -schema is required")
		flag.Usage()
		os.Exit(2)
	}
	mode, err := nodb.ParseMode(*modeName)
	if err != nil {
		fatal(err)
	}

	cat := nodb.NewCatalog()
	if err := cat.LoadSchemaFile(*schemaPath, filepath.Dir(*schemaPath)); err != nil {
		fatal(err)
	}
	db, err := nodb.Open(cat, nodb.Options{
		Mode:                mode,
		DisableStatistics:   *noStats,
		PositionalMapBudget: *pmBudget,
		CacheBudget:         *cacheBudget,
		Parallelism:         *parallel,
	})
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	if *query != "" {
		if err := runStatement(db, *query); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Println("nodb shell — in-situ SQL over raw files (\\q quits, \\metrics TABLE inspects)")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("nodb> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\q` || line == "exit" || line == "quit":
			return
		case strings.HasPrefix(line, `\metrics`):
			table := strings.TrimSpace(strings.TrimPrefix(line, `\metrics`))
			if table == "" {
				fmt.Println("usage: \\metrics TABLE")
				continue
			}
			printMetrics(db.Metrics(table))
		case line == `\formats`:
			fmt.Println(strings.Join(nodb.Formats(), ", "))
		default:
			if err := runStatement(db, line); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
		}
	}
}

// runStatement executes one statement through the streaming cursor API:
// rows print incrementally as the engine produces them (a huge result
// never materializes in memory), and Ctrl-C cancels the statement via its
// context.
func runStatement(db *nodb.DB, sql string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	stmt, err := db.PrepareContext(ctx, sql)
	if err != nil {
		return err
	}
	if !stmt.Select() {
		n, err := stmt.ExecContext(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("INSERT %d (%.3f ms)\n", n, float64(time.Since(start).Microseconds())/1000)
		return nil
	}

	rows, err := stmt.QueryContext(ctx)
	if err != nil {
		return err
	}
	defer rows.Close()

	cols := rows.Columns()
	widths := make([]int, len(cols))
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.Name
		widths[i] = len(c.Name)
		if widths[i] < 8 {
			widths[i] = 8
		}
	}
	printRow := func(cells []string) {
		for i, s := range cells {
			if i > 0 {
				fmt.Print(" | ")
			}
			fmt.Printf("%-*s", widths[i], s)
		}
		fmt.Println()
	}
	printRow(header)
	seps := make([]string, len(header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	printRow(seps)

	n := 0
	cells := make([]string, len(cols))
	for rows.Next() {
		for ci, v := range rows.Values() {
			if v.Null() {
				cells[ci] = "NULL"
			} else {
				cells[ci] = v.Format()
			}
		}
		printRow(cells)
		n++
	}
	if err := rows.Err(); err != nil {
		if ctx.Err() != nil {
			fmt.Printf("(cancelled after %d rows, %.3f ms)\n", n, float64(time.Since(start).Microseconds())/1000)
			return nil
		}
		return err
	}
	fmt.Printf("(%d rows, %.3f ms)\n", n, float64(time.Since(start).Microseconds())/1000)
	return nil
}

func printMetrics(m nodb.Metrics) {
	fmt.Printf("rows known:          %d\n", m.Rows)
	fmt.Printf("positional map:      %d pointers, %d bytes, %d evictions\n", m.PMPointers, m.PMBytes, m.PMEvictions)
	fmt.Printf("binary cache:        %d bytes (usage %.1f%%), %d hits, %d misses\n", m.CacheBytes, m.CacheUsage*100, m.CacheHits, m.CacheMisses)
	fmt.Printf("statistics columns:  %d\n", m.StatsColumns)
	fmt.Printf("tuples parsed:       %d (fields %d; via map %d, via scan %d; short rows %d)\n",
		m.TuplesParsed, m.FieldsParsed, m.FieldsFromMap, m.FieldsFromScan, m.ShortRows)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, errorLine(err))
	os.Exit(1)
}

// errorLine renders err for stderr with the program prefix exactly once:
// errors from the nodb API carry it already.
func errorLine(err error) string {
	if msg := err.Error(); strings.HasPrefix(msg, "nodb: ") {
		return msg
	}
	return "nodb: " + err.Error()
}
