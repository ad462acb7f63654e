package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nodb"
	"nodb/internal/metrics"
	"nodb/internal/server"
)

// servedWorkload is served_mix: the HTTP server (internal/server) in
// process behind a loopback listener, two client connections, one request
// generator. Phase A is a closed loop (each connection sends its next
// request when the previous reply is complete) and gives ops_per_s; phase B
// is an open loop at a fixed rate (requests are due on a schedule whatever
// the server does) and gives the latencies, timed from each request's due
// time. The mix is 85 % parameterized point/range SELECTs with LIMIT
// through a session, 10 % GROUP BY aggregates, 5 % single-row INSERTs — the
// INSERTs are writes beside reads on the same table lock. One query runs
// for about a millisecond, so admission, NDJSON encoding, statement
// normalization, the statement cache and plan binding are a visible share.
type servedWorkload struct {
	cfg  *runConfig
	path string
	rows int

	db       *nodb.DB
	srv      *server.Server
	ts       *httptest.Server
	reg      *metrics.Registry
	clients  []*http.Client
	sessions []string

	plan   []servedRequest // the deterministic request sequence, cycled
	cursor atomic.Int64

	ackMu sync.Mutex
	acked []int64 // ids of INSERTs the server acknowledged

	lateMS    []float64    // generator lateness per phase-B request
	kindMS    [4][]float64 // phase-B latency per statement kind, for the report
	rejects   int
	rowBytes  int64
	rowsSeen  int64
	insertSeq int64
}

const (
	servedConnections = 2
	// servedRate is the open-loop arrival rate of phase B, in requests per
	// second. It was set once, to about a quarter of the closed-loop capacity
	// phase A measured (≈ 600 req/s) at the commit that introduced this
	// benchmark on the two-core sandbox — the README says why not half — and
	// is never recalibrated at run time: a faster or slower engine shows as
	// lower or higher latency at this same rate. The served_mix entry of
	// BENCHMARK.json states it; the test keeps the two in step.
	servedRate = 150
	// The request mix, in percent; the rest are point and range SELECTs.
	servedInsertPct = 5
	servedAggPct    = 10
	// servedLimit is the latency limit of phase B. A reply later than this
	// counts as failed, like a reply that errors or is refused.
	servedLimit = 250 * time.Millisecond
	// Ids of inserted rows start here, far above the generated ids, so no
	// measured SELECT's answer depends on how many INSERTs came before it.
	servedInsertBase = 1_000_000_000
)

const (
	servedPoint = iota
	servedRange
	servedAgg
	servedInsert
)

var servedSQL = [...]string{
	servedPoint:  "SELECT id, event_date, kind, region, amount, status FROM events WHERE id = $1 LIMIT 1",
	servedRange:  "SELECT id, user_id, amount, qty, ok, note FROM events WHERE id >= $1 AND id < $2 AND amount > $3 LIMIT 20",
	servedAgg:    "SELECT kind, count(*), sum(amount), avg(score) FROM events WHERE id < $1 AND region = $2 GROUP BY kind",
	servedInsert: "INSERT INTO events VALUES ($1, $2, $3, $4, $5, $6, $7, $8, $9, $10, $11, $12)",
}

// servedRequest is one entry of the request plan.
type servedRequest struct {
	kind int
	args []any
	want digest // SELECTs only
}

func newServedWorkload(cfg *runConfig) *servedWorkload {
	w := &servedWorkload{cfg: cfg, rows: cfg.scale.eventRows}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x73657276))
	// A pool of distinct parameter sets per statement; the plan draws from
	// it, so the oracle evaluates each distinct query once. Point ids and
	// range starts are stratified over the file (one per equal slice, the
	// seed picks where in the slice): a point query scans up to its row, so
	// the pool's mean scan length is the same on every seed.
	var pool [3][]servedRequest
	const points, ranges = 48, 24
	for i := 0; i < points; i++ {
		id := (i*w.rows + rng.Intn(w.rows)) / points
		pool[servedPoint] = append(pool[servedPoint], servedRequest{kind: servedPoint, args: []any{id}})
	}
	span := w.rows / 20
	for i := 0; i < ranges; i++ {
		lo := (i*(w.rows-span) + rng.Intn(w.rows-span)) / ranges
		pool[servedRange] = append(pool[servedRange], servedRequest{kind: servedRange,
			args: []any{lo, lo + span, float64(4000 + rng.Intn(2000))}})
	}
	for _, region := range eventRegions {
		pool[servedAgg] = append(pool[servedAgg], servedRequest{kind: servedAgg,
			args: []any{w.rows, region}})
	}
	w.plan = make([]servedRequest, 0, 4096)
	for i := 0; i < cap(w.plan); i++ {
		switch p := rng.Intn(100); {
		case p < servedInsertPct:
			w.plan = append(w.plan, servedRequest{kind: servedInsert})
		case p < servedInsertPct+servedAggPct:
			w.plan = append(w.plan, pool[servedAgg][rng.Intn(len(pool[servedAgg]))])
		case p < 57:
			w.plan = append(w.plan, pool[servedPoint][rng.Intn(len(pool[servedPoint]))])
		default:
			w.plan = append(w.plan, pool[servedRange][rng.Intn(len(pool[servedRange]))])
		}
	}
	return w
}

func (w *servedWorkload) prepare(dir string) error {
	w.path = filepath.Join(dir, "events.csv")
	if err := genEvents(w.path, w.rows, w.cfg.seed); err != nil {
		return err
	}
	cat, err := eventsCatalog(w.path)
	if err != nil {
		return err
	}
	if w.db, err = nodb.Open(cat, nodb.Options{}); err != nil {
		return err
	}
	w.reg = metrics.NewRegistry()
	if w.srv, err = server.New(server.Config{DB: w.db, Registry: w.reg}); err != nil {
		return err
	}
	w.ts = httptest.NewServer(w.srv)
	w.clients, w.sessions = nil, nil
	for i := 0; i < servedConnections; i++ {
		c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		w.clients = append(w.clients, c)
		resp, err := c.Post(w.ts.URL+"/session", "application/json", nil)
		if err != nil {
			return err
		}
		var body struct{ Session string }
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("served_mix: POST /session: %w", err)
		}
		if body.Session == "" {
			return errors.New("served_mix: POST /session returned no session id")
		}
		w.sessions = append(w.sessions, body.Session)
	}
	// Warm the table and both sessions' statement caches: every column of
	// every row cached, every statement prepared once per session.
	if _, err := queryDigest(w.db, "SELECT * FROM events"); err != nil {
		return err
	}
	var warm opStats
	for c := range w.clients {
		for kind := servedPoint; kind <= servedAgg; kind++ {
			for _, r := range w.plan {
				if r.kind == kind {
					w.do(servedCall{conn: c, r: &r, due: time.Now(), warmUp: true}, nil, &warm)
					break
				}
			}
		}
	}
	if warm.failed > 0 {
		return fmt.Errorf("served_mix warm-up: %v", warm.notes)
	}
	return nil
}

func (w *servedWorkload) release() error {
	if w.ts != nil {
		w.ts.Close()
		w.srv.Close()
		for _, c := range w.clients {
			c.CloseIdleConnections()
		}
		w.ts = nil
	}
	if w.db == nil {
		return nil
	}
	err := w.db.Close()
	w.db = nil
	return err
}

func (w *servedWorkload) expect() error {
	cat, err := eventsCatalog(w.path)
	if err != nil {
		return err
	}
	ref, err := nodb.Open(cat, oracleOptions())
	if err != nil {
		return err
	}
	defer ref.Close()
	type key struct {
		kind int
		args string
	}
	known := map[key]digest{}
	for i := range w.plan {
		r := &w.plan[i]
		if r.kind == servedInsert {
			continue
		}
		k := key{r.kind, fmt.Sprint(r.args...)}
		d, ok := known[k]
		if !ok {
			if d, err = queryDigest(ref, servedSQL[r.kind], r.args...); err != nil {
				return fmt.Errorf("oracle %q: %w", servedSQL[r.kind], err)
			}
			known[k] = d
		}
		r.want = d
	}
	return nil
}

// insertArgs renders the bindings of one INSERT: a full-width row whose id
// is unique across the run.
func (w *servedWorkload) insertArgs() (int64, []any) {
	seq := atomic.AddInt64(&w.insertSeq, 1)
	id := servedInsertBase + seq
	rng := rand.New(rand.NewSource(w.cfg.seed + seq))
	cells := eventRow(rng, id)
	amount, _ := strconv.ParseFloat(cells[5], 64)
	score, _ := strconv.ParseFloat(cells[7], 64)
	atoi := func(s string) int { n, _ := strconv.Atoi(s); return n }
	return id, []any{id, cells[1], cells[2], cells[3], atoi(cells[4]), amount, atoi(cells[6]),
		score, cells[8] == "true", cells[9], atoi(cells[10]), cells[11]}
}

// servedCall is one request to send: on which connection, when it was due
// (latency counts from there), and how to judge the reply.
type servedCall struct {
	conn   int
	r      *servedRequest
	due    time.Time
	limit  time.Duration // 0 = no lateness check
	phaseB bool
	warmUp bool // before the oracle ran: check status only
}

// do sends one request and checks the reply.
func (w *servedWorkload) do(call servedCall, tr *tracer, st *opStats) {
	c, r, due, limit, phaseB := call.conn, call.r, call.due, call.limit, call.phaseB
	sent := time.Now()
	args := r.args
	var insertID int64
	if r.kind == servedInsert {
		insertID, args = w.insertArgs()
	}
	body, _ := json.Marshal(map[string]any{"sql": servedSQL[r.kind], "args": args, "session": w.sessions[c]})
	url := w.ts.URL + "/query"
	if tr != nil {
		url += "?profile=1"
	}

	st.mu.Lock()
	op := st.newOp()
	st.mu.Unlock()
	root := tr.begin("op", 0, op)
	s := tr.begin("http", root, op)
	resp, err := w.clients[c].Post(url, "application/json", bytes.NewReader(body))
	var reply servedReply
	if err == nil {
		reply = readReply(resp, sent)
		resp.Body.Close()
	}
	tr.end(s)
	tr.end(root)
	done := time.Now()

	refused := reply.status == http.StatusTooManyRequests || reply.status == http.StatusServiceUnavailable
	why := ""
	switch {
	case err != nil:
		why = err.Error()
	case refused:
		why = fmt.Sprintf("refused with %d", reply.status)
	case reply.status != http.StatusOK || reply.err != "":
		why = fmt.Sprintf("status %d: %s", reply.status, reply.err)
	case r.kind == servedInsert && reply.affected != 1:
		why = fmt.Sprintf("INSERT affected %d rows", reply.affected)
	case r.kind != servedInsert && !call.warmUp && !r.want.matches(reply.got):
		why = fmt.Sprintf("%s %v: got %v want %v", servedSQL[r.kind], r.args, reply.got, r.want)
	case limit > 0 && done.Sub(due) > limit:
		why = fmt.Sprintf("reply %.1f ms after it was due (limit %v)", float64(done.Sub(due))/1e6, limit)
	}
	if why == "" && r.kind == servedInsert {
		w.ackMu.Lock()
		w.acked = append(w.acked, insertID)
		w.ackMu.Unlock()
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if refused {
		w.rejects++
	}
	w.rowBytes += reply.rowBytes
	w.rowsSeen += reply.got.Rows
	if reply.profile != nil {
		st.prof.add(reply.profile)
	}
	if r.kind == servedInsert && !phaseB {
		// Closed loop: the INSERT always runs beside the one request the
		// other connection has in flight, which is the contention the
		// write-side metric is about. (The open loop has too few INSERTs
		// for a median of its own.)
		st.write = append(st.write, float64(done.Sub(sent))/1e6)
	}
	st.attempted++
	if why != "" {
		st.fail("%s", why)
	}
	st.rowsOut += reply.got.Rows
	st.opNS += int64(done.Sub(sent))
	if phaseB {
		// Phase B supplies the latency samples, timed from the due time.
		lat := done.Sub(due)
		st.lat = append(st.lat, float64(lat)/1e6)
		w.kindMS[r.kind] = append(w.kindMS[r.kind], float64(lat)/1e6)
		if r.kind != servedInsert {
			st.first = append(st.first, float64(reply.first+sent.Sub(due))/1e6)
		}
	} else {
		st.ops++ // phase A supplies the throughput
	}
}

// servedReply is a decoded /query response.
type servedReply struct {
	status   int
	err      string
	got      digest
	first    time.Duration // send to first row line
	affected int64
	rowBytes int64
	profile  *nodb.Profile
}

// readReply consumes the NDJSON stream: a header line naming the column
// types, one array per row, a trailer object, and — when asked for — a
// profile object.
func readReply(resp *http.Response, sent time.Time) servedReply {
	out := servedReply{status: resp.StatusCode}
	br := bufio.NewReaderSize(resp.Body, 32<<10)
	var types []string
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if line[0] == '[' {
				if out.got.Rows == 0 {
					out.first = time.Since(sent)
				}
				out.rowBytes += int64(len(line))
				if derr := out.got.addJSON(line, types); derr != nil {
					out.err = derr.Error()
				}
			} else {
				var obj struct {
					Columns  []struct{ Type string }
					Error    *struct{ Kind, Message string }
					Profile  *nodb.Profile
					Rows     *int64
					Affected *int64 `json:"rows_affected"`
				}
				if derr := json.Unmarshal(line, &obj); derr != nil {
					out.err = "bad reply line: " + derr.Error()
				}
				switch {
				case obj.Error != nil:
					out.err = obj.Error.Kind + ": " + obj.Error.Message
				case obj.Columns != nil:
					for _, c := range obj.Columns {
						types = append(types, c.Type)
					}
				case obj.Profile != nil:
					out.profile = obj.Profile
				case obj.Affected != nil:
					out.affected = *obj.Affected
				case obj.Rows != nil && *obj.Rows != out.got.Rows:
					out.err = fmt.Sprintf("trailer says %d rows, stream had %d", *obj.Rows, out.got.Rows)
				}
			}
		}
		if err != nil {
			if err != io.EOF {
				out.err = err.Error()
			}
			break
		}
	}
	if out.got.Rows == 0 {
		out.first = time.Since(sent)
	}
	return out
}

// addJSON folds one NDJSON row into the digest, reconstructing typed cells
// from the header's column types so the digest equals addValues' over the
// same row.
func (d *digest) addJSON(line []byte, types []string) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var cells []any
	if err := dec.Decode(&cells); err != nil {
		return err
	}
	if len(cells) != len(types) {
		return fmt.Errorf("row has %d cells, header %d columns", len(cells), len(types))
	}
	var r rowHasher
	for i, c := range cells {
		switch v := c.(type) {
		case nil:
			r.null()
		case bool:
			if v {
				r.int(1)
			} else {
				r.int(0)
			}
		case json.Number:
			if types[i] == "FLOAT" {
				f, err := v.Float64()
				if err != nil {
					return err
				}
				r.float(f)
			} else {
				n, err := v.Int64()
				if err != nil {
					return err
				}
				r.int(n)
			}
		case string:
			if types[i] == "DATE" {
				t, err := time.Parse("2006-01-02", v)
				if err != nil {
					return err
				}
				r.int(t.Unix() / 86400)
			} else {
				r.text(v)
			}
		default:
			return fmt.Errorf("unexpected cell %T", c)
		}
	}
	d.finish(&r)
	return nil
}

func (w *servedWorkload) nextRequest() *servedRequest {
	i := w.cursor.Add(1) - 1
	return &w.plan[int(i)%len(w.plan)]
}

func (w *servedWorkload) measure(d time.Duration, tr *tracer, st *opStats) error {
	w.lateMS, w.kindMS = nil, [4][]float64{}
	st.eng.add(w.db.Stats(), -1)
	dA := d * 2 / 5
	dB := d - dA

	// Phase A: closed loop, one request in flight per connection.
	begin := time.Now()
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(begin) < dA {
				w.do(servedCall{conn: c, r: w.nextRequest(), due: time.Now()}, tr, st)
			}
		}(c)
	}
	wg.Wait()
	st.wall += time.Since(begin)

	// Phase B: open loop. The generator owns the schedule; the queue is
	// large enough to hold the whole phase, so a stalled server never
	// slows the generator down — the wait shows up as latency instead.
	type job struct {
		r   *servedRequest
		due time.Time
	}
	total := int(dB.Seconds() * servedRate)
	jobs := make(chan job, total) // sized to the number of sends: the generator never blocks
	interval := time.Second / servedRate
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range jobs {
				w.do(servedCall{conn: c, r: j.r, due: j.due, limit: servedLimit, phaseB: true}, tr, st)
			}
		}(c)
	}
	startB := time.Now()
	for i := 0; i < total; i++ {
		due := startB.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		w.lateMS = append(w.lateMS, float64(time.Since(due))/1e6)
		jobs <- job{w.nextRequest(), due}
	}
	close(jobs)
	wg.Wait()
	st.eng.add(w.db.Stats(), +1)
	return nil
}

// finish checks durability the only way it can be checked here: the raw
// file is the one store, so the engine is abandoned without Close (as a
// crashed process would leave it), a fresh engine is opened over the file,
// and every INSERT the server acknowledged must be readable.
func (w *servedWorkload) finish(st *opStats) (endState, error) {
	m := w.db.Metrics("events")
	end := endState{
		auxBytes: m.PMBytes + m.CacheBytes,
		rawBytes: fileSize(w.path),
		extra: map[string]float64{
			"server.rejects":               float64(w.rejects),
			"server.ndjson_bytes_per_row":  ratio(float64(w.rowBytes), float64(w.rowsSeen)),
			"server.generator_late_ms_p99": quantile(w.lateMS, 0.99),
			"server.latency_ms_p99":        quantile(st.lat, 0.99),
			"server.inserts_acked":         float64(len(w.acked)),
		},
	}
	st.eng.pmEvictions += m.PMEvictions
	for kind, name := range []string{"point", "range", "aggregate", "insert"} {
		st.info = append(st.info, fmt.Sprintf("open loop at %d/s, %s: n=%d p50=%.3f ms p90=%.3f ms",
			servedRate, name, len(w.kindMS[kind]), quantileOrZero(w.kindMS[kind], 0.5), quantileOrZero(w.kindMS[kind], 0.9)))
	}
	snap := w.reg.Snapshot()
	reused, _ := snap["nodb_session_stmts_reused_total"].(int64)
	prepared, _ := snap["nodb_session_stmts_prepared_total"].(int64)
	end.extra["server.session_stmt_hit_ratio"] = ratio(float64(reused), float64(reused+prepared))

	w.ts.Close()
	w.srv.Close()
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	w.ts, w.db = nil, nil // abandoned, not closed

	cat, err := eventsCatalog(w.path)
	if err != nil {
		return end, err
	}
	db, err := nodb.Open(cat, nodb.Options{})
	if err != nil {
		return end, err
	}
	defer db.Close()
	rows, err := db.QueryContext(context.Background(), "SELECT id FROM events WHERE id >= $1", servedInsertBase)
	if err != nil {
		return end, err
	}
	defer rows.Close()
	found := map[int64]bool{}
	for rows.Next() {
		found[rows.Values()[0].Int()] = true
	}
	if err := rows.Err(); err != nil {
		return end, err
	}
	for _, id := range w.acked {
		if !found[id] {
			st.fail("acknowledged INSERT of id %d is not readable after reopening", id)
		}
	}
	return end, nil
}
