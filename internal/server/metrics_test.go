package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"nodb/internal/qtrace"
)

// TestMetricsTableCountersMatchStats: every table-scope qtrace counter is
// exported under the family its definition names, and after a cold and a
// warm query each series equals the engine total in nodb.Stats.
func TestMetricsTableCountersMatchStats(t *testing.T) {
	s, ts := newTestServer(t, 100, Config{})
	for i := 0; i < 2; i++ {
		r := postQuery(t, ts, `{"sql": "SELECT city, id FROM trips"}`)
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	series := map[string]int64{}
	for _, line := range strings.Split(string(body), "\n") {
		var name string
		var v int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err == nil {
			series[name] = v
		}
	}

	st := s.db.Stats()
	if st.ColdScans != 1 || st.WarmScans != 1 || st.TuplesParsed != 100 {
		t.Errorf("stats cold=%d warm=%d tuples=%d, want 1, 1, 100", st.ColdScans, st.WarmScans, st.TuplesParsed)
	}
	for _, c := range qtrace.TableCounters() {
		d := c.Def()
		got, ok := series[d.Prom]
		if !ok {
			t.Errorf("counter %s: family %s not exported", c, d.Prom)
			continue
		}
		if want := st.Get(c); got != want {
			t.Errorf("counter %s: %s = %d, stats total = %d", c, d.Prom, got, want)
		}
	}
}
