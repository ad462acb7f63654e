package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// postQueryProfile sends a /query request with ?profile=1.
func postQueryProfile(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/query?profile=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestQueryProfileTrailer checks that ?profile=1 appends one extra NDJSON
// line carrying the full execution profile after the normal trailer.
func TestQueryProfileTrailer(t *testing.T) {
	_, ts := newTestServer(t, 200, Config{})
	resp := postQueryProfile(t, ts.URL, `{"sql": "SELECT city, id FROM trips WHERE id < 50"}`)
	defer resp.Body.Close()
	lines := ndjson(t, resp.Body)

	last := lines[len(lines)-1]
	profAny, ok := last["profile"]
	if !ok {
		t.Fatalf("last line is not a profile trailer: %v", last)
	}
	prof, ok := profAny.(map[string]any)
	if !ok {
		t.Fatalf("profile is %T", profAny)
	}
	for _, key := range []string{"sql", "wall_ns", "phases", "counters"} {
		if _, ok := prof[key]; !ok {
			t.Errorf("profile missing %q: %v", key, prof)
		}
	}
	ctrs := prof["counters"].(map[string]any)
	if got := ctrs["rows_out"].(float64); got != 50 {
		t.Errorf("rows_out = %v", got)
	}
	// The line before the profile is the normal trailer — existing clients
	// see an unchanged stream shape.
	if _, ok := lines[len(lines)-2]["rows"]; !ok {
		t.Errorf("penultimate line is not the trailer: %v", lines[len(lines)-2])
	}
	// Without ?profile=1 no profile line appears.
	resp2 := postQuery(t, ts, `{"sql": "SELECT id FROM trips LIMIT 1"}`)
	defer resp2.Body.Close()
	for _, l := range ndjson(t, resp2.Body) {
		if _, ok := l["profile"]; ok {
			t.Errorf("profile line without ?profile=1: %v", l)
		}
	}
}

// TestDebugQueries checks the live view: a completed query lands in the
// ring, an in-flight query shows up as running with its current phase.
func TestDebugQueries(t *testing.T) {
	s, ts := newTestServer(t, 100, Config{MaxConcurrent: 1, MaxQueue: 4})

	// Read to EOF: the stream only ends once the handler has returned, and
	// the handler records the finished profile on its way out.
	resp := postQuery(t, ts, `{"sql": "SELECT count(*) FROM trips"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var view struct {
		Running []map[string]any `json:"running"`
		Recent  []map[string]any `json:"recent"`
	}
	get := func() {
		t.Helper()
		r, err := http.Get(ts.URL + "/debug/queries")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		view = struct {
			Running []map[string]any `json:"running"`
			Recent  []map[string]any `json:"recent"`
		}{}
		if err := json.NewDecoder(r.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}

	get()
	if len(view.Recent) != 1 {
		t.Fatalf("recent = %d", len(view.Recent))
	}
	// The profile carries the engine's normalized statement text.
	if sql := view.Recent[0]["sql"]; sql != "SELECT count ( * ) FROM trips" {
		t.Errorf("recent sql = %v", sql)
	}
	if running, _ := view.Recent[0]["running"].(bool); running {
		t.Errorf("completed query still marked running: %v", view.Recent[0])
	}

	// Hold the single execution slot so a second query is visibly queued.
	release, err := s.adm.acquire(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := postQuery(t, ts, `{"sql": "SELECT id FROM trips"}`)
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}()
	queued := false
	for range 100 {
		get()
		for _, q := range view.Running {
			if q["phase"] == "queue" {
				queued = true
			}
		}
		if queued {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	release()
	wg.Wait()
	if !queued {
		t.Error("queued query never appeared in /debug/queries with phase=queue")
	}

	get()
	if len(view.Running) != 0 {
		t.Errorf("running after drain = %v", view.Running)
	}
	if len(view.Recent) != 2 {
		t.Errorf("recent after second query = %d", len(view.Recent))
	}
}

// TestQueueWaitInProfile checks the satellite fix: admission wait the
// server measures lands in the profile's queue phase, so the server-side
// and engine-side accounts reconcile.
func TestQueueWaitInProfile(t *testing.T) {
	s, ts := newTestServer(t, 50, Config{MaxConcurrent: 1, MaxQueue: 4})

	release, err := s.adm.acquire(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan map[string]any, 1)
	go func() {
		resp := postQueryProfile(t, ts.URL, `{"sql": "SELECT id FROM trips LIMIT 1"}`)
		defer resp.Body.Close()
		lines := ndjson(t, resp.Body)
		done <- lines[len(lines)-1]
	}()
	time.Sleep(50 * time.Millisecond)
	release()
	last := <-done

	prof := last["profile"].(map[string]any)
	phases := prof["phases"].(map[string]any)
	queueNS, _ := phases["queue_ns"].(float64)
	if queueNS < float64(30*time.Millisecond) {
		t.Errorf("queue_ns = %v, want >= 30ms of admission wait", queueNS)
	}
	wall := prof["wall_ns"].(float64)
	if queueNS > wall {
		t.Errorf("queue_ns %v exceeds wall_ns %v", queueNS, wall)
	}
}

// TestSlowQueryLog checks that queries crossing the threshold log their
// full profile through SlowLogf and fast ones stay quiet.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	_, ts := newTestServer(t, 100, Config{
		SlowQuery: time.Nanosecond, // everything is slow
		SlowLogf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	resp := postQuery(t, ts, `{"sql": "SELECT count(*) FROM trips"}`)
	io.Copy(io.Discard, resp.Body) // EOF = handler returned = profile logged
	resp.Body.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 {
		t.Fatalf("slow log entries = %d", len(logged))
	}
	for _, want := range []string{"slow query", "SELECT count ( * ) FROM trips", "Execution:", "scan trips"} {
		if !strings.Contains(logged[0], want) {
			t.Errorf("slow log missing %q:\n%s", want, logged[0])
		}
	}
}
