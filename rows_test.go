package nodb

import (
	"context"
	"database/sql"
	"errors"
	"os"
	"testing"
)

func TestQueryContextRowsCursor(t *testing.T) {
	db, err := Open(testCatalog(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rows, err := db.QueryContext(context.Background(),
		"SELECT city, id, distance FROM trips WHERE id < ? ORDER BY id", 5)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.Columns(); len(got) != 3 || got[0].Name != "city" {
		t.Fatalf("columns = %v", got)
	}
	var n int
	for rows.Next() {
		var city string
		var id int64
		var dist float64
		if err := rows.Scan(&city, &id, &dist); err != nil {
			t.Fatal(err)
		}
		if id != int64(n) || dist != float64(n*2)+0.5 {
			t.Errorf("row %d = %q %d %v", n, city, id, dist)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("rows = %d, want 5", n)
	}
}

// TestRowsNoStaleRowAfterEnd: once Next has returned false, or after
// Close, the cursor has no current row — Scan reports the missing Next and
// Values is nil, instead of handing out the last row (or a zeroed one).
func TestRowsNoStaleRowAfterEnd(t *testing.T) {
	db, err := Open(testCatalog(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	noRow := func(label string, rows *Rows) {
		t.Helper()
		x := int64(-1)
		if err := rows.Scan(&x); err == nil {
			t.Errorf("%s: Scan returned nil with x = %d, want an error", label, x)
		}
		if v := rows.Values(); v != nil {
			t.Errorf("%s: Values = %v, want nil", label, v)
		}
	}

	rows, err := db.QueryContext(context.Background(), "SELECT id FROM trips WHERE id < 3")
	if err != nil {
		t.Fatal(err)
	}
	noRow("before Next", rows)
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil || n != 3 {
		t.Fatalf("drained %d rows, err %v", n, err)
	}
	noRow("after the stream ended", rows)

	rows, err = db.QueryContext(context.Background(), "SELECT id FROM trips WHERE id < 3")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	noRow("after Close", rows)
}

func TestStmtReuseAndNamedArgs(t *testing.T) {
	db, err := Open(testCatalog(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	stmt, err := db.Prepare("SELECT count(*) FROM trips WHERE city = :c")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if stmt.NumParams() != 0 || len(stmt.ParamNames()) != 1 {
		t.Fatalf("params = %d named %v", stmt.NumParams(), stmt.ParamNames())
	}
	for _, city := range []string{"city0", "city1", "city2", "city3"} {
		rows, err := stmt.QueryContext(context.Background(), sql.Named("c", city))
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("%s: no row: %v", city, rows.Err())
		}
		var cnt int64
		if err := rows.Scan(&cnt); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		if cnt != 25 {
			t.Errorf("%s: count = %d, want 25", city, cnt)
		}
	}
}

func TestExecContextInsertParams(t *testing.T) {
	db, err := Open(testCatalog(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	n, err := db.ExecContext(context.Background(),
		"INSERT INTO trips VALUES (?, ?, ?), (?, ?, ?)",
		"cityX", 900, 1.5, "cityX", 901, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("inserted = %d, want 2", n)
	}
	rows, err := db.QueryContext(context.Background(),
		"SELECT sum(distance) FROM trips WHERE city = 'cityX'")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no row")
	}
	var total float64
	if err := rows.Scan(&total); err != nil {
		t.Fatal(err)
	}
	if total != 4.0 {
		t.Errorf("sum = %v, want 4", total)
	}
}

func TestQueryContextCancelled(t *testing.T) {
	db, err := Open(testCatalog(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = db.QueryContext(ctx, "SELECT count(*) FROM trips")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStreamOpenErrorReleasesOperator: when execution setup fails (here:
// the raw file disappears), the prepared operator tree must be torn down —
// in particular the table lock must be released so the next statement is
// not deadlocked.
func TestStreamOpenErrorReleasesOperator(t *testing.T) {
	cat := testCatalog(t)
	db, err := Open(cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Warm the table, then make the backing file unreadable to force an
	// error on the next scan's refresh/open path.
	if _, err := db.Query("SELECT count(*) FROM trips"); err != nil {
		t.Fatal(err)
	}
	// Find the path back out of the catalog-registered table.
	tbl, ok := cat.cat.Lookup("trips")
	if !ok {
		t.Fatal("table not registered")
	}
	if err := renameTemporarily(t, tbl.Path); err != nil {
		t.Fatal(err)
	}
	err = db.Stream("SELECT id FROM trips WHERE id > 1000000", func([]Value) error { return nil })
	if err == nil {
		t.Fatal("expected error after removing the raw file")
	}
	restore(t, tbl.Path)
	// The table lock must be free: this would hang before the leak fix if
	// the failed operator kept it.
	done := make(chan error, 1)
	go func() {
		_, qerr := db.Query("SELECT count(*) FROM trips")
		done <- qerr
	}()
	if err := <-done; err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
}

func renameTemporarily(t *testing.T, path string) error {
	t.Helper()
	return os.Rename(path, path+".hidden")
}

func restore(t *testing.T, path string) {
	t.Helper()
	if err := os.Rename(path+".hidden", path); err != nil {
		t.Fatal(err)
	}
}
