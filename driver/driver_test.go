package nodbdriver

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nodb"
	"nodb/internal/tpch"
)

// fixtureDSN writes a small CSV table plus schema file and returns the
// DSN.
func fixtureDSN(t testing.TB, rows int) string {
	t.Helper()
	dir := t.TempDir()
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		amt := ""
		if i%7 != 0 {
			amt = fmt.Sprintf("%d.25", i)
		}
		fmt.Fprintf(&sb, "%d,city%d,%s,%s\n", i, i%5, amt,
			time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, i%365).Format("2006-01-02"))
	}
	if err := os.WriteFile(filepath.Join(dir, "sales.csv"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	schemaPath := filepath.Join(dir, "schema.nodb")
	schemaText := `table sales from sales.csv
  id int
  city text
  amount float
  sold date
end
`
	if err := os.WriteFile(schemaPath, []byte(schemaText), 0o644); err != nil {
		t.Fatal(err)
	}
	return "schema=" + schemaPath
}

func openDB(t testing.TB, dsn string) *sql.DB {
	t.Helper()
	db, err := sql.Open("nodb", dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestDriverBasicTypes(t *testing.T) {
	db := openDB(t, fixtureDSN(t, 100))
	rows, err := db.Query("SELECT id, city, amount, sold FROM sales WHERE id = 8")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no row: %v", rows.Err())
	}
	var (
		id     int64
		city   string
		amount float64
		day    time.Time
	)
	if err := rows.Scan(&id, &city, &amount, &day); err != nil {
		t.Fatal(err)
	}
	if id != 8 || city != "city3" || amount != 8.25 {
		t.Errorf("row = %d %q %v", id, city, amount)
	}
	if want := time.Date(2020, 1, 9, 0, 0, 0, 0, time.UTC); !day.Equal(want) {
		t.Errorf("day = %v, want %v", day, want)
	}
	cols, err := rows.ColumnTypes()
	if err != nil {
		t.Fatal(err)
	}
	if cols[0].DatabaseTypeName() != "INT" || cols[3].DatabaseTypeName() != "DATE" {
		t.Errorf("type names = %v %v", cols[0].DatabaseTypeName(), cols[3].DatabaseTypeName())
	}
	if cols[3].ScanType() != reflect.TypeOf(time.Time{}) {
		t.Errorf("scan type = %v", cols[3].ScanType())
	}
}

func TestDriverNullHandling(t *testing.T) {
	db := openDB(t, fixtureDSN(t, 30))
	var amt sql.NullFloat64
	// id 7 has an empty amount field -> NULL.
	if err := db.QueryRow("SELECT amount FROM sales WHERE id = 7").Scan(&amt); err != nil {
		t.Fatal(err)
	}
	if amt.Valid {
		t.Errorf("amount = %v, want NULL", amt)
	}
}

func TestDriverPreparedStatement(t *testing.T) {
	db := openDB(t, fixtureDSN(t, 200))
	stmt, err := db.Prepare("SELECT count(*) FROM sales WHERE city = ? AND id < ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for _, tc := range []struct {
		city string
		max  int64
	}{{"city0", 200}, {"city1", 50}, {"city4", 10}} {
		var got, want int64
		if err := stmt.QueryRow(tc.city, tc.max).Scan(&got); err != nil {
			t.Fatal(err)
		}
		lit := fmt.Sprintf("SELECT count(*) FROM sales WHERE city = '%s' AND id < %d", tc.city, tc.max)
		if err := db.QueryRow(lit).Scan(&want); err != nil {
			t.Fatal(err)
		}
		if got != want || want == 0 {
			t.Errorf("%v: got %d, want %d (nonzero)", tc, got, want)
		}
	}
	// Wrong arity is rejected by database/sql via NumInput.
	if _, err := stmt.Query("city0"); err == nil {
		t.Error("expected arity error")
	}
}

func TestDriverNamedArgs(t *testing.T) {
	db := openDB(t, fixtureDSN(t, 120))
	var got, want int64
	err := db.QueryRow(
		"SELECT count(*) FROM sales WHERE city = :c AND id BETWEEN :lo AND :hi",
		sql.Named("c", "city2"), sql.Named("lo", 10), sql.Named("hi", 90),
	).Scan(&got)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.QueryRow("SELECT count(*) FROM sales WHERE city = 'city2' AND id BETWEEN 10 AND 90").Scan(&want); err != nil {
		t.Fatal(err)
	}
	if got != want || want == 0 {
		t.Errorf("got %d, want %d (nonzero)", got, want)
	}
}

func TestDriverInsertExec(t *testing.T) {
	db := openDB(t, fixtureDSN(t, 10))
	res, err := db.Exec("INSERT INTO sales VALUES (?, ?, ?, ?)",
		1000, "cityX", 12.5, time.Date(2021, 3, 4, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	n, err := res.RowsAffected()
	if err != nil || n != 1 {
		t.Fatalf("RowsAffected = %d, %v", n, err)
	}
	var city string
	var day time.Time
	if err := db.QueryRow("SELECT city, sold FROM sales WHERE id = 1000").Scan(&city, &day); err != nil {
		t.Fatal(err)
	}
	if city != "cityX" || !day.Equal(time.Date(2021, 3, 4, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("inserted row reads back as %q %v", city, day)
	}
}

// TestDriverConcurrentPool floods one sql.DB (its own connection pool)
// with concurrent queries against a cold table and checks every result
// against a sequential reference; the engine must also have parsed the
// file exactly once (single-flight), which shows through as byte-identical
// results with no errors under -race.
func TestDriverConcurrentPool(t *testing.T) {
	dsn := fixtureDSN(t, 1000)
	ref := openDB(t, dsn)
	type refRow struct {
		city  string
		total float64
		n     int64
	}
	readAll := func(db *sql.DB, ctx context.Context) ([]refRow, error) {
		rows, err := db.QueryContext(ctx,
			"SELECT city, sum(amount), count(*) FROM sales GROUP BY city ORDER BY city")
		if err != nil {
			return nil, err
		}
		defer rows.Close()
		var out []refRow
		for rows.Next() {
			var r refRow
			if err := rows.Scan(&r.city, &r.total, &r.n); err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, rows.Err()
	}
	want, err := readAll(ref, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 5 {
		t.Fatalf("reference rows = %d", len(want))
	}

	// Open the storm target through sql.OpenDB with our own connector, so
	// the test can reach the shared engine's metrics afterwards.
	connector, err := (&Driver{}).OpenConnector(dsn)
	if err != nil {
		t.Fatal(err)
	}
	db := sql.OpenDB(connector) // fresh engine: cold table
	t.Cleanup(func() { db.Close() })
	const sessions = 12
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := readAll(db, context.Background())
			if err != nil {
				errCh <- err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errCh <- fmt.Errorf("concurrent result differs: %v != %v", got, want)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Single-flight: the 12 sessions must have triggered exactly one cold
	// parse of the 1000-row file; everyone else served from the cache.
	m := connector.(*Connector).db.Metrics("sales")
	if m.TuplesParsed != 1000 {
		t.Errorf("TuplesParsed = %d, want 1000 (single-flight cold scan)", m.TuplesParsed)
	}
}

func TestDriverContextCancellation(t *testing.T) {
	db := openDB(t, fixtureDSN(t, 20000))
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx, "SELECT id FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("rows.Err() = %v, want context.Canceled", err)
	}
	// The pool must stay usable.
	var n int64
	if err := db.QueryRow("SELECT count(*) FROM sales").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 20000 {
		t.Errorf("count = %d", n)
	}
}

func TestDriverDSNErrors(t *testing.T) {
	for _, dsn := range []string{
		"",                      // missing schema
		"mode=warp schema=x",    // bad mode
		"schema=x parallelism=", // bad number
		"bogus",                 // not key=value
	} {
		if _, err := (&Driver{}).OpenConnector(dsn); err == nil {
			t.Errorf("DSN %q: expected error", dsn)
		}
	}
}

// TestDriverTPCH round-trips parameterized TPC-H queries through
// database/sql against a generated instance, comparing each result with
// its literal spelling.
func TestDriverTPCH(t *testing.T) {
	dir := t.TempDir()
	if err := tpch.Generate(dir, 0.002, 7); err != nil {
		t.Fatal(err)
	}
	schemaPath := filepath.Join(dir, "tpch.nodb")
	if err := tpch.WriteSchemaFile(schemaPath); err != nil {
		t.Fatal(err)
	}
	db := openDB(t, "schema="+schemaPath)

	date := func(s string) time.Time {
		d, err := time.ParseInLocation("2006-01-02", s, time.UTC)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	cases := []struct {
		name    string
		literal string // from tpch.Queries
		param   string
		args    []any
	}{
		{
			name:    "Q6",
			literal: tpch.Queries["Q6"],
			param: `SELECT sum(l_extendedprice * l_discount) AS revenue
				FROM lineitem
				WHERE l_shipdate >= ? AND l_shipdate < ?
					AND l_discount BETWEEN ? AND ? AND l_quantity < ?`,
			args: []any{date("1994-01-01"), date("1995-01-01"), 0.05, 0.07, 24},
		},
		{
			name:    "Q1",
			literal: tpch.Queries["Q1"],
			param: `SELECT l_returnflag, l_linestatus,
					sum(l_quantity) AS sum_qty,
					sum(l_extendedprice) AS sum_base_price,
					sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
					sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
					avg(l_quantity) AS avg_qty,
					avg(l_extendedprice) AS avg_price,
					avg(l_discount) AS avg_disc,
					count(*) AS count_order
				FROM lineitem
				WHERE l_shipdate <= ?
				GROUP BY l_returnflag, l_linestatus
				ORDER BY l_returnflag, l_linestatus`,
			args: []any{date("1998-12-01").AddDate(0, 0, -90)},
		},
		{
			name:    "Q3",
			literal: tpch.Queries["Q3"],
			param: `SELECT l_orderkey,
					sum(l_extendedprice * (1 - l_discount)) AS revenue,
					o_orderdate, o_shippriority
				FROM customer, orders, lineitem
				WHERE c_mktsegment = $1
					AND c_custkey = o_custkey
					AND l_orderkey = o_orderkey
					AND o_orderdate < $2
					AND l_shipdate > $2
				GROUP BY l_orderkey, o_orderdate, o_shippriority
				ORDER BY revenue DESC, o_orderdate
				LIMIT 10`,
			args: []any{"BUILDING", date("1995-03-15")},
		},
		{
			name:    "Q12",
			literal: tpch.Queries["Q12"],
			param: `SELECT l_shipmode,
					sum(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'
						THEN 1 ELSE 0 END) AS high_line_count,
					sum(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH'
						THEN 1 ELSE 0 END) AS low_line_count
				FROM orders, lineitem
				WHERE o_orderkey = l_orderkey
					AND l_shipmode IN (?, ?)
					AND l_commitdate < l_receiptdate
					AND l_shipdate < l_commitdate
					AND l_receiptdate >= ?
					AND l_receiptdate < ?
				GROUP BY l_shipmode
				ORDER BY l_shipmode`,
			args: []any{"MAIL", "SHIP", date("1994-01-01"), date("1995-01-01")},
		},
		{
			name:    "Q14",
			literal: tpch.Queries["Q14"],
			param: `SELECT 100.00 * sum(CASE WHEN p_type LIKE 'PROMO%'
						THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
					/ sum(l_extendedprice * (1 - l_discount)) AS promo_revenue
				FROM lineitem, part
				WHERE l_partkey = p_partkey
					AND l_shipdate >= :day AND l_shipdate < :dayend`,
			args: []any{sql.Named("day", date("1995-09-01")), sql.Named("dayend", date("1995-10-01"))},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := queryStrings(t, db, tc.literal)
			got := queryStrings(t, db, tc.param, tc.args...)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("parameterized result differs from literal:\n got %v\nwant %v", got, want)
			}
			if len(want) == 0 {
				t.Error("empty result (fixture too small for the predicate?)")
			}
		})
	}
}

// queryStrings materializes a query's rows as strings for comparison.
func queryStrings(t *testing.T, db *sql.DB, q string, args ...any) [][]string {
	t.Helper()
	rows, err := db.Query(q, args...)
	if err != nil {
		t.Fatalf("query %.60q...: %v", q, err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for rows.Next() {
		raw := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range raw {
			ptrs[i] = &raw[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		row := make([]string, len(cols))
		for i, v := range raw {
			switch x := v.(type) {
			case float64:
				row[i] = fmt.Sprintf("%.6f", x)
			case time.Time:
				row[i] = x.Format("2006-01-02")
			default:
				row[i] = fmt.Sprint(x)
			}
		}
		out = append(out, row)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDriverJSONLTable: a JSON-Lines table declared through the schema
// file's "format" clause is queryable end-to-end through database/sql —
// the acceptance check for the pluggable raw-format source API.
func TestDriverJSONLTable(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		if i%9 == 0 {
			fmt.Fprintf(&sb, `{"city": "city%d", "id": %d, "extra": [1, {"x": "}"}], "amount": null}`+"\n", i%5, i)
		} else {
			fmt.Fprintf(&sb, `{"id": %d, "city": "city%d", "amount": %d.25}`+"\n", i, i%5, i)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "sales.jsonl"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	schemaPath := filepath.Join(dir, "schema.nodb")
	schemaText := `table sales from sales.jsonl format jsonl
  id int
  city text
  amount float
end
`
	if err := os.WriteFile(schemaPath, []byte(schemaText), 0o644); err != nil {
		t.Fatal(err)
	}
	db := openDB(t, "schema="+schemaPath+";parallelism=4")

	var n int
	if err := db.QueryRow("SELECT count(*) FROM sales").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Errorf("count = %d", n)
	}
	// Parameterized aggregate over the pooled, shared engine.
	rows, err := db.Query(
		"SELECT city, count(*), sum(amount) FROM sales WHERE id >= ? GROUP BY city ORDER BY city", 50)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	got := 0
	for rows.Next() {
		var city string
		var cnt int
		var sum sql.NullFloat64
		if err := rows.Scan(&city, &cnt, &sum); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(city, "city") || cnt == 0 {
			t.Errorf("row = %s %d %v", city, cnt, sum)
		}
		got++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("groups = %d", got)
	}
	// NULL amounts (explicit JSON null) surface as sql NULL.
	var amt sql.NullFloat64
	if err := db.QueryRow("SELECT amount FROM sales WHERE id = 0").Scan(&amt); err != nil {
		t.Fatal(err)
	}
	if amt.Valid {
		t.Errorf("amount for id 0 should be NULL, got %v", amt)
	}
	// INSERT appends a JSON object to the raw file (the Appender
	// capability) and the next query sees it.
	if _, err := db.Exec("INSERT INTO sales VALUES (999, 'city9', 1.5)"); err != nil {
		t.Fatalf("INSERT into jsonl: %v", err)
	}
	var city string
	var amount float64
	if err := db.QueryRow("SELECT city, amount FROM sales WHERE id = 999").Scan(&city, &amount); err != nil {
		t.Fatal(err)
	}
	if city != "city9" || amount != 1.5 {
		t.Errorf("inserted jsonl row = %s %v", city, amount)
	}
	// A malformed value appended behind the engine's back surfaces as a
	// *nodb.RowError through the whole chain, locating line 202.
	f, err := os.OpenFile(filepath.Join(dir, "sales.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id": "oops", "city": "x", "amount": 1}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var re *nodb.RowError
	if err := db.QueryRow("SELECT count(*) FROM sales WHERE id >= 0").Scan(&n); !errors.As(err, &re) {
		t.Fatalf("malformed value: want a *nodb.RowError, got %v", err)
	}
	if re.Format != "jsonl" || re.Table != "sales" || re.Column != "id" || re.Row != 202 ||
		re.Error() != "jsonl: sales row 202 column id: "+re.Cause.Error() {
		t.Errorf("row error = %+v (%v)", *re, re)
	}
}
