package main

import (
	"bytes"
	"context"
	"database/sql"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nodb"
	_ "nodb/driver" // registers the database/sql driver measured by driver.query_overhead_us
	"nodb/internal/colcache"
	"nodb/internal/core"
	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/format"
	"nodb/internal/kernel"
	"nodb/internal/plan"
	"nodb/internal/posmap"
	"nodb/internal/scan"
	"nodb/internal/server"
	"nodb/internal/sqlparse"
	"nodb/internal/stats"
	"nodb/internal/tpch"
	"nodb/internal/workload"
)

// The layer drivers measure one exported function or one narrow path of
// each layer in isolation, on small inputs generated from the run's seed.
// They are the benchmark's own spans around calls into the layers — nothing
// inside the engine is instrumented for them. Every traced run executes all
// of them, whatever its workload, so a layer number can be read next to any
// workload's end-to-end numbers.

// sink keeps results alive so the compiler cannot drop a measured call.
var sink int

// sampled calls fn repeatedly for the scale's sample budget (50 ms at full
// scale; at least 5 times) and returns the median of the values it reports.
func (in *layerInputs) sampled(fn func() float64) float64 {
	var samples []float64
	deadline := time.Now().Add(in.budget)
	for len(samples) < 5 || (len(samples) < 400 && time.Now().Before(deadline)) {
		samples = append(samples, fn())
	}
	return median(samples)
}

// perUnit times fn, which does `units` units of work per call, and returns
// the median nanoseconds per unit.
func (in *layerInputs) perUnit(units int, fn func()) float64 {
	return in.sampled(func() float64 {
		t0 := time.Now()
		fn()
		return float64(time.Since(t0)) / float64(units)
	})
}

// layerInputs are the small files the drivers read.
type layerInputs struct {
	dir      string
	rows     int
	attrs    int
	widePath string
	lines    [][]byte      // wide.csv lines, in memory
	budget   time.Duration // sampling time per number
}

func newLayerInputs(cfg *runConfig, dir string) (*layerInputs, error) {
	in := &layerInputs{dir: filepath.Join(dir, "layers"), rows: cfg.scale.layerRows,
		attrs: cfg.scale.wideAttrs, budget: cfg.scale.layerSample}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	in.widePath = filepath.Join(in.dir, "wide.csv")
	if err := workload.GenerateWide(in.widePath, in.rows, in.attrs, cfg.seed); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(in.widePath)
	if err != nil {
		return nil, err
	}
	for _, l := range bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n")) {
		in.lines = append(in.lines, l)
	}
	return in, nil
}

// layerDrivers runs every driver and stores its numbers in out.
func layerDrivers(cfg *runConfig, dir string, out metricSet) error {
	in, err := newLayerInputs(cfg, dir)
	if err != nil {
		return err
	}
	for _, drive := range []func(*runConfig, *layerInputs, metricSet) error{
		driveScan, driveDatum, drivePosmap, driveColcache, driveStats,
		driveSQLParse, drivePlanCore, driveExprKernel, driveExecOperators,
		driveExecTPCH, driveFormat, driveFormats, driveSidecar, driveServer, driveDriver,
	} {
		if err := drive(cfg, in, out); err != nil {
			return err
		}
	}
	return nil
}

func driveScan(_ *runConfig, in *layerInputs, out metricSet) error {
	size := fileSize(in.widePath)
	var ferr error
	ns := in.perUnit(1, func() {
		f, err := os.Open(in.widePath)
		if err != nil {
			ferr = err
			return
		}
		lr := scan.NewLineReader(f, 0)
		for {
			line, _, err := lr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				ferr = err
				break
			}
			sink += len(line)
		}
		f.Close()
	})
	if ferr != nil {
		return ferr
	}
	out.set("scan.linereader_mb_per_s", float64(size)/(1<<20)/(ns/1e9))

	dst := make([]uint32, 0, in.attrs+2)
	out.set("scan.tokenize_full_ns_per_tuple", in.perUnit(len(in.lines), func() {
		for _, l := range in.lines {
			d, n := scan.Tokenize(l, ',', -1, dst[:0])
			sink += n + len(d)
		}
	}))
	out.set("scan.tokenize_prefix_ns_per_tuple", in.perUnit(len(in.lines), func() {
		for _, l := range in.lines {
			d, n := scan.Tokenize(l, ',', 5, dst[:0])
			sink += n + len(d)
		}
	}))
	const skip = 10
	out.set("scan.skipforward_ns_per_field", in.perUnit(len(in.lines)*skip, func() {
		for _, l := range in.lines {
			pos, _ := scan.SkipForward(l, 0, skip, ',')
			sink += int(pos)
		}
	}))
	f, err := os.Open(in.widePath)
	if err != nil {
		return err
	}
	defer f.Close()
	out.set("scan.split_us", in.perUnit(1, func() {
		parts, err := scan.Split(f, size, 4)
		if err != nil {
			ferr = err
		}
		sink += len(parts)
	})/1e3)
	return ferr
}

func driveDatum(_ *runConfig, in *layerInputs, out metricSet) error {
	cases := []struct {
		name  string
		typ   datum.Type
		field []byte
	}{
		{"datum.parsebytes_int_ns", datum.Int, []byte("734582913")},
		{"datum.parsebytes_float_ns", datum.Float, []byte("90210.475")},
		{"datum.parsebytes_date_ns", datum.Date, []byte("1995-03-15")},
	}
	const reps = 2000
	for _, c := range cases {
		var perr error
		out.set(c.name, in.perUnit(reps, func() {
			for i := 0; i < reps; i++ {
				d, err := datum.ParseBytes(c.typ, c.field)
				if err != nil {
					perr = err
				}
				sink += int(d.Int())
			}
		}))
		if perr != nil {
			return perr
		}
	}
	return nil
}

func drivePosmap(_ *runConfig, in *layerInputs, out metricSet) error {
	const attrs = 8 // every 6th attribute carries pointers, as after a few queries
	build := func() *posmap.Map {
		m := posmap.New(in.attrs, posmap.Options{})
		cur := make([]*posmap.Cursor, attrs)
		for a := range cur {
			cur[a] = m.Cursor(a * 6)
		}
		for row := 0; row < in.rows; row++ {
			m.RecordTupleStart(row, int64(row)*500)
			for a, c := range cur {
				c.Record(row, uint32(a*60))
			}
		}
		return m
	}
	out.set("posmap.record_ns_per_ptr", in.perUnit(in.rows*attrs, func() { sink += int(build().MemoryBytes()) }))
	m := build()
	out.set("posmap.bytes_per_ptr", ratio(float64(m.MemoryBytes()), float64(m.Metrics().Pointers)))
	out.set("posmap.cursor_get_ns", in.perUnit(in.rows, func() {
		c := m.Cursor(12)
		for row := 0; row < in.rows; row++ {
			rel, _ := c.Get(row)
			sink += int(rel)
		}
	}))
	out.set("posmap.nearest_ns", in.perUnit(in.rows, func() {
		for row := 0; row < in.rows; row++ {
			a, rel, _ := m.Nearest(row, 15) // attribute 15 has no pointers; 12 and 18 do
			sink += a + int(rel)
		}
	}))
	return nil
}

func driveColcache(_ *runConfig, in *layerInputs, out metricSet) error {
	const cols = 4
	fill := func() *colcache.Cache {
		c := colcache.New(0)
		for col := 0; col < cols; col++ {
			v := c.View(col, datum.Int)
			for row := 0; row < in.rows; row++ {
				v.Put(row, datum.NewInt(int64(row*7+col)))
			}
		}
		return c
	}
	out.set("colcache.put_ns_per_value", in.perUnit(in.rows*cols, func() { sink += int(fill().Bytes()) }))
	c := fill()
	out.set("colcache.bytes_per_value", float64(c.Bytes())/float64(in.rows*cols))
	batch := 1024
	if batch > in.rows {
		batch = in.rows
	}
	dst := make([]datum.Datum, batch)
	out.set("colcache.getbatch_ns_per_value", in.perUnit(in.rows/batch*batch*cols, func() {
		for col := 0; col < cols; col++ {
			v := c.ReadView(col)
			for start := 0; start+batch <= in.rows; start += batch {
				if v.GetBatch(start, batch, dst) {
					sink += int(dst[0].Int())
				}
			}
		}
	}))
	out.set("colcache.absorb_ms", in.sampled(func() float64 {
		shard := fill() // Absorb consumes the shard, so every sample refills one
		into := colcache.New(0)
		t0 := time.Now()
		into.Absorb(shard, in.rows)
		took := time.Since(t0)
		sink += int(into.Bytes())
		return float64(took) / 1e6
	}))
	return nil
}

func driveStats(_ *runConfig, in *layerInputs, out metricSet) error {
	vals := make([]datum.Datum, in.rows)
	rng := rand.New(rand.NewSource(7))
	for i := range vals {
		vals[i] = datum.NewInt(rng.Int63n(workload.MaxValue))
	}
	out.set("stats.collector_add_ns_per_value", in.perUnit(len(vals), func() {
		c := stats.NewCollector(datum.Int, 1)
		for _, v := range vals {
			c.Add(v)
		}
		sink += len(c.Finalize().HistogramBounds())
	}))
	return nil
}

// frontEndTexts are the statements the front-end layers see: the served_mix
// statements and the TPC-H texts.
func frontEndTexts() []string {
	texts := append([]string(nil), servedSQL[:]...)
	for _, name := range tpch.QueryOrder {
		texts = append(texts, tpch.Queries[name])
	}
	return texts
}

func driveSQLParse(_ *runConfig, in *layerInputs, out metricSet) error {
	texts := frontEndTexts()
	var perr error
	out.set("sqlparse.parse_us_per_stmt", in.perUnit(len(texts), func() {
		for _, t := range texts {
			st, err := sqlparse.ParseStatement(t)
			if err != nil {
				perr = err
			}
			if st != nil {
				sink++
			}
		}
	})/1e3)
	out.set("sqlparse.normalize_us_per_stmt", in.perUnit(len(texts), func() {
		for _, t := range texts {
			key, err := sqlparse.Normalize(t)
			if err != nil {
				perr = err
			}
			sink += len(key)
		}
	})/1e3)
	return perr
}

// drivePlanCore measures the planner's two phases against a real engine as
// the resolver, and the statement cache's hit path.
func drivePlanCore(_ *runConfig, in *layerInputs, out metricSet) error {
	cat, err := workload.WideCatalog(in.widePath, in.attrs)
	if err != nil {
		return err
	}
	eng, err := core.Open(cat, core.Options{Mode: core.ModePMCache, Statistics: true})
	if err != nil {
		return err
	}
	defer eng.Close()
	const stmt = "SELECT a3, a9, a21 FROM wide WHERE a9 < $1 AND a21 > $2 LIMIT 20"
	if _, err := eng.QueryContext(context.Background(), "SELECT a3, a9, a21 FROM wide", nil, nil); err != nil {
		return err
	}
	sel, err := sqlparse.Parse(stmt)
	if err != nil {
		return err
	}
	var perr error
	out.set("plan.skeleton_build_us", in.perUnit(1, func() {
		sk, err := plan.BuildSkeleton(sel, eng)
		if err != nil {
			perr = err
		}
		if sk != nil {
			sink++
		}
	})/1e3)
	if perr != nil {
		return perr
	}
	sk, err := plan.BuildSkeleton(sel, eng)
	if err != nil {
		return err
	}
	kc := kernel.NewCache(0)
	params := []datum.Datum{datum.NewInt(workload.MaxValue / 2), datum.NewInt(workload.MaxValue / 3)}
	out.set("plan.bind_us", in.perUnit(1, func() {
		res, err := sk.Bind(eng, plan.Options{UseStats: true, Vectorize: true, KernelCache: kc, Params: params})
		if err != nil {
			perr = err
			return
		}
		sink += len(res.Cols)
	})/1e3)
	if perr != nil {
		return perr
	}
	if _, err := eng.PrepareStmt(stmt); err != nil {
		return err
	}
	out.set("core.prepare_hit_us", in.perUnit(1, func() {
		p, err := eng.PrepareStmt(stmt)
		if err != nil {
			perr = err
		}
		if p != nil {
			sink++
		}
	})/1e3)
	return perr
}

// intBatch builds a column-major batch of width int columns.
func intBatch(rows, width int, seed int64) [][]datum.Datum {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]datum.Datum, width)
	for j := range cols {
		cols[j] = make([]datum.Datum, rows)
		for i := range cols[j] {
			cols[j][i] = datum.NewInt(rng.Int63n(1000))
		}
	}
	return cols
}

// driveExprKernel runs one predicate over the same batches through the
// generic vectorized walk and through the compiled kernel.
func driveExprKernel(_ *runConfig, in *layerInputs, out metricSet) error {
	const rows = 1024
	cols := intBatch(rows, 3, 11)
	col := func(i int) expr.Expr { return &expr.ColRef{Index: i, Type: datum.Int} }
	lit := func(v int64) expr.Expr { return &expr.Const{D: datum.NewInt(v)} }
	pred := expr.JoinConjuncts([]expr.Expr{
		&expr.BinOp{Op: expr.Lt, L: col(0), R: lit(700)},
		&expr.BinOp{Op: expr.Ge, L: col(1), R: lit(100)},
		&expr.BinOp{Op: expr.Ne, L: col(2), R: lit(500)},
	})
	buf := make([]int, 0, rows)
	var ferr error
	filter := func(e expr.Expr) float64 {
		return in.perUnit(rows, func() {
			sel, err := expr.FilterBatch(e, cols, rows, nil, buf[:0])
			if err != nil {
				ferr = err
			}
			sink += len(sel)
		})
	}
	out.set("expr.filterbatch_ns_per_row", filter(pred))
	out.set("kernel.filter_ns_per_row", filter(kernel.NewCache(0).Predicate(pred)))
	return ferr
}

// driveExecOperators runs the exported row operators over in-memory rows.
func driveExecOperators(_ *runConfig, in *layerInputs, out metricSet) error {
	rows := in.rows
	rng := rand.New(rand.NewSource(13))
	cols := []exec.Col{{Name: "k", Type: datum.Int}, {Name: "v", Type: datum.Int}}
	data := make([]exec.Row, rows)
	for i := range data {
		data[i] = exec.Row{datum.NewInt(int64(rng.Intn(64))), datum.NewInt(rng.Int63n(1_000_000))}
	}
	build := make([]exec.Row, 256)
	for i := range build {
		build[i] = exec.Row{datum.NewInt(int64(i % 64)), datum.NewInt(int64(i))}
	}
	k := &expr.ColRef{Index: 0, Type: datum.Int}
	v := &expr.ColRef{Index: 1, Type: datum.Int}
	var oerr error
	count := func(op exec.Operator) {
		n, err := exec.Count(op)
		if err != nil {
			oerr = err
		}
		sink += int(n)
	}
	out.set("exec.hashagg_ns_per_row", in.perUnit(rows, func() {
		count(exec.NewHashAgg(exec.NewValues(cols, data), []expr.Expr{k},
			[]*expr.Aggregate{{Kind: expr.AggCountStar}, {Kind: expr.AggSum, Arg: v}},
			[]exec.Col{cols[0], {Name: "n", Type: datum.Int}, {Name: "s", Type: datum.Int}}))
	}))
	out.set("exec.hashjoin_ns_per_probe_row", in.perUnit(rows, func() {
		count(exec.NewHashJoin(exec.NewValues(cols, build), exec.NewValues(cols, data),
			[]expr.Expr{k}, []expr.Expr{k}))
	}))
	out.set("exec.sort_ns_per_row", in.perUnit(rows, func() {
		count(exec.NewSort(exec.NewValues(cols, data), []exec.SortKey{{E: v}}))
	}))
	return oerr
}

// driveExecTPCH reports per-query medians of the warm_analytics statements
// on a small fully cached TPC-H instance.
func driveExecTPCH(cfg *runConfig, in *layerInputs, out metricSet) error {
	dir := filepath.Join(in.dir, "tpch")
	sub := *cfg
	sub.scale.tpchSF = cfg.scale.layerSF
	w := newWarmWorkload(&sub)
	if err := w.prepare(dir); err != nil {
		return err
	}
	defer w.release()
	for _, q := range w.queries {
		var qerr error
		ns := in.perUnit(1, func() {
			d, err := queryDigest(w.db, q.sql)
			if err != nil {
				qerr = err
			}
			sink += int(d.Rows)
		})
		if qerr != nil {
			return qerr
		}
		name := "exec.tpch_" + strings.ToLower(q.name) + "_ms"
		if q.name == "filter_project" {
			name = "exec.filter_project_ms"
		}
		out.set(name, ns/1e6)
	}
	return nil
}

func driveFormat(_ *runConfig, in *layerInputs, out metricSet) error {
	var ferr error
	out.set("format.fingerprint_check_us", in.perUnit(1, func() {
		fp, err := format.TakeFingerprint(in.widePath)
		if err != nil {
			ferr = err
		}
		sink += int(fp.Size)
	})/1e3)
	if ferr != nil {
		return ferr
	}
	// Cache scan: a fully cached three-column projection through the
	// public cursor, per row delivered.
	cat, err := wideCatalog(in.widePath, in.attrs)
	if err != nil {
		return err
	}
	db, err := nodb.Open(cat, nodb.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	const q = "SELECT a2, a17, a33 FROM wide"
	if _, err := queryDigest(db, q); err != nil {
		return err
	}
	out.set("format.cachescan_ns_per_row", in.perUnit(in.rows, func() {
		rows, err := db.QueryContext(context.Background(), q)
		if err != nil {
			ferr = err
			return
		}
		for rows.Next() {
			sink++
		}
		if err := rows.Err(); err != nil {
			ferr = err
		}
	}))
	return ferr
}

// driveFormats guards the machinery the JSON-Lines and FITS adapters share
// with CSV: one cold aggregate per fresh engine, then a warm repeat.
func driveFormats(cfg *runConfig, in *layerInputs, out metricSet) error {
	type fmtCase struct {
		name string
		path string
		gen  func(string, int, int64) error
		add  func(*nodb.Catalog, string) error
	}
	cases := []fmtCase{
		{"jsonl", filepath.Join(in.dir, "wide.jsonl"), genJSONL, func(c *nodb.Catalog, p string) error {
			return c.AddJSONL("t", p, formatColumnDefs(true)...)
		}},
		{"fits", filepath.Join(in.dir, "wide.fits"), genFITS, func(c *nodb.Catalog, p string) error {
			return c.AddFITS("t", p, formatColumnDefs(false)...)
		}},
	}
	const q = "SELECT sum(v_00), max(v_05) FROM t WHERE v_03 > 18"
	for _, c := range cases {
		if err := c.gen(c.path, in.rows, cfg.seed); err != nil {
			return err
		}
		open := func() (*nodb.DB, error) {
			cat := nodb.NewCatalog()
			if err := c.add(cat, c.path); err != nil {
				return nil, err
			}
			return nodb.Open(cat, nodb.Options{})
		}
		var ferr error
		cold := in.perUnit(1, func() {
			db, err := open()
			if err != nil {
				ferr = err
				return
			}
			if _, err := queryDigest(db, q); err != nil {
				ferr = err
			}
			db.Close()
		})
		if ferr != nil {
			return ferr
		}
		out.set(c.name+".cold_scan_mb_per_s", float64(fileSize(c.path))/(1<<20)/(cold/1e9))
		db, err := open()
		if err != nil {
			return err
		}
		if _, err := queryDigest(db, q); err != nil {
			db.Close()
			return err
		}
		out.set(c.name+".warm_query_ms", in.perUnit(1, func() {
			if _, err := queryDigest(db, q); err != nil {
				ferr = err
			}
		})/1e6)
		db.Close()
		if ferr != nil {
			return ferr
		}
	}
	return nil
}

// driveSidecar measures the sidecar's read and write paths on the small
// table: a checkpoint after a recording scan, and an open that restores
// from the file (through the first query, which is what triggers the load).
func driveSidecar(_ *runConfig, in *layerInputs, out metricSet) error {
	auxDir := filepath.Join(in.dir, "aux")
	open := func() (*nodb.DB, error) {
		cat, err := wideCatalog(in.widePath, in.attrs)
		if err != nil {
			return nil, err
		}
		return nodb.Open(cat, nodb.Options{Sidecar: nodb.SidecarOptions{Enable: true, Dir: auxDir}})
	}
	const warm = "SELECT a2, a9, a17, a25, a33, a41 FROM wide"
	var ferr error
	fail := func(err error) {
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	out.set("sidecar.checkpoint_ms", in.sampled(func() float64 {
		db, err := open()
		if err != nil {
			fail(err)
			return 0
		}
		_, err = queryDigest(db, warm)
		fail(err)
		db.Invalidate("wide")
		_, err = queryDigest(db, warm)
		fail(err)
		t0 := time.Now()
		fail(db.Checkpoint(context.Background()))
		took := time.Since(t0)
		fail(db.Close())
		return float64(took) / 1e6
	}))
	if ferr != nil {
		return ferr
	}
	var side int64
	ents, err := os.ReadDir(auxDir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		side += fileSize(filepath.Join(auxDir, e.Name()))
	}
	out.set("sidecar.bytes_per_raw_byte", ratio(float64(side), float64(fileSize(in.widePath))))
	out.set("sidecar.load_ms", in.perUnit(1, func() {
		db, err := open()
		if err != nil {
			fail(err)
			return
		}
		_, err = queryDigest(db, "SELECT a2 FROM wide LIMIT 1")
		fail(err)
		fail(db.Close())
	})/1e6)
	return ferr
}

// driveServer calls the handler directly with a recorder: no TCP, no HTTP
// client — the server layer's own cost for a warm point query.
func driveServer(cfg *runConfig, in *layerInputs, out metricSet) error {
	path := filepath.Join(in.dir, "events.csv")
	if err := genEvents(path, in.rows, cfg.seed); err != nil {
		return err
	}
	cat, err := eventsCatalog(path)
	if err != nil {
		return err
	}
	db, err := nodb.Open(cat, nodb.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := queryDigest(db, "SELECT * FROM events"); err != nil {
		return err
	}
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		return err
	}
	defer srv.Close()
	body := []byte(fmt.Sprintf(`{"sql": %q, "args": [%d]}`, servedSQL[servedPoint], in.rows/2))
	var ferr error
	out.set("server.handler_us_p50", in.sampled(func() float64 {
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		took := time.Since(t0)
		if rec.Code != http.StatusOK {
			ferr = fmt.Errorf("server driver: status %d: %s", rec.Code, rec.Body.String())
		}
		return float64(took) / 1e3
	}))
	return ferr
}

// driveDriver compares a warm point query through database/sql with the
// same query through the engine's own cursor.
func driveDriver(cfg *runConfig, in *layerInputs, out metricSet) error {
	schemaPath := filepath.Join(in.dir, "wide.nodb")
	var sb strings.Builder
	sb.WriteString("table wide from wide.csv\n")
	for a := 0; a < in.attrs; a++ {
		fmt.Fprintf(&sb, "  %s int\n", workload.AttrName(a))
	}
	sb.WriteString("end\n")
	if err := os.WriteFile(schemaPath, []byte(sb.String()), 0o644); err != nil {
		return err
	}
	const q = "SELECT a2, a17 FROM wide WHERE a2 < ? LIMIT 5"
	const warm = "SELECT a2, a17 FROM wide"
	bound := int64(workload.MaxValue / 2)

	std, err := sql.Open("nodb", "schema="+schemaPath)
	if err != nil {
		return err
	}
	defer std.Close()
	if _, err := std.Exec(warm); err != nil {
		return err
	}
	var ferr error
	viaSQL := in.perUnit(1, func() {
		rows, err := std.Query(q, bound)
		if err != nil {
			ferr = err
			return
		}
		for rows.Next() {
			sink++
		}
		if err := rows.Err(); err != nil {
			ferr = err
		}
		rows.Close()
	})
	if ferr != nil {
		return ferr
	}
	cat, err := wideCatalog(in.widePath, in.attrs)
	if err != nil {
		return err
	}
	db, err := nodb.Open(cat, nodb.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := queryDigest(db, warm); err != nil {
		return err
	}
	direct := in.perUnit(1, func() {
		d, err := queryDigest(db, q, bound)
		if err != nil {
			ferr = err
		}
		sink += int(d.Rows)
	})
	out.set("driver.query_overhead_us", (viaSQL-direct)/1e3)
	return ferr
}
