package sidecar

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"nodb/internal/chunkdir"
	"nodb/internal/datum"
	"nodb/internal/format"
	"nodb/internal/schema"
)

var fuzzTypes = []datum.Type{datum.Int, datum.Float, datum.Text, datum.Date, datum.Bool}

// fuzzTable is the table the fuzz seeds are written for.
func fuzzTable(path string) *schema.Table {
	var cols []schema.Column
	for i, typ := range fuzzTypes {
		cols = append(cols, schema.Column{Name: string(rune('a' + i)), Type: typ})
	}
	return &schema.Table{Name: "t", Columns: cols, Path: path}
}

// fuzzEnv records everything, with budgets small enough that installing
// can evict.
var fuzzEnv = format.Env{PosMap: true, AttrPointers: true, Cache: true,
	PMBudget: 3 * (chunkdir.ChunkRows*4 + 64), CacheBudget: 40_000}

// fuzzState is an empty recording state of the fuzz table.
func fuzzState() *format.State { return format.NewState(fuzzTable("t.csv"), fuzzEnv) }

// v2Payload checkpoints a small state: tuple starts and map offsets over
// two chunks, and every type cached with NULLs and gaps.
func v2Payload() []byte {
	st := fuzzState()
	d := st.Dir
	d.BeginScan()
	w := d.Writer()
	const rows = 1500
	for row := 0; row < rows; row++ {
		d.RecordTupleStart(row, int64(row*40))
		w.RecordRow(row, 0, []uint32{0, 8, 16})
	}
	for col, typ := range fuzzTypes[:3] {
		v := d.View(col, typ)
		for row := 0; row < rows; row += 1 + col {
			x := datum.NewNull(typ)
			switch {
			case row%7 == 0:
			case typ == datum.Float:
				x = datum.NewFloat(float64(row) / 4)
			case typ == datum.Text:
				x = datum.NewText(string(rune('a' + row%26)))
			default:
				x = datum.NewInt(int64(row))
			}
			v.Put(row, x)
		}
	}
	st.FP = format.Fingerprint{Size: rows * 40, ModTime: time.Unix(1, 0)}
	st.Rows.Store(rows)
	return encodeState(st, 0)
}

// v1Payload is what the version-1 encoder wrote for a small state: the
// same meta, schema and access sections, then per-pointer map sections
// (tag 6: attribute, count, row/offset pairs) and per-column cache
// sections (tag 7: column, type, rows, bitmaps and value arrays).
func v1Payload(fp format.Fingerprint) []byte {
	st := fuzzState()
	st.FP = fp
	p := enc{b: encodeState(st, 0)}
	var b enc
	b.u64(2)
	b.i64(0)
	b.i64(40)
	p.section(tagStarts, b.b)
	b = enc{}
	b.u32(1)
	b.u64(2)
	b.u32(0)
	b.u32(8)
	b.u32(1)
	b.u32(8)
	p.section(6, b.b)
	b = enc{}
	b.u32(0)
	b.u8(uint8(datum.Int))
	b.u64(2)
	b.u64(1)
	b.u64(3)
	b.u64(1)
	b.u64(0)
	b.u64(2)
	b.i64(7)
	b.i64(9)
	b.u64(0)
	b.u64(0)
	p.section(7, b.b)
	return p.b
}

// FuzzSidecarDecode wraps arbitrary payload bytes in a valid header (the
// checksum recomputed, so the decoder proper runs) and decodes and
// installs them as readSidecar and Manager.LoadLocked do. A sidecar is
// input from outside the process: decoding must never panic nor allocate
// more than a small multiple of the payload, and each input must either
// be discarded or install a state that passes the directory's invariants.
func FuzzSidecarDecode(f *testing.F) {
	f.Add(v1Payload(format.Fingerprint{Size: 80, ModTime: time.Unix(1, 0)}))
	f.Add(v2Payload())
	f.Fuzz(func(t *testing.T, payload []byte) {
		var h enc
		h.b = append(h.b, fileMagic...)
		h.u32(fileVersion)
		h.u64(uint64(len(payload)))
		h.u64(checksum(payload))
		raw := append(h.b, payload...)
		st := fuzzState()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fd := &fileData{rows: -1, statRows: -1}
		body, tail, err := splitFile(raw, fileMagic)
		ok := err == nil && parsePayload(fd, body) && schemaMatches(fd, st)
		fd.journal = parseJournal(tail)
		var dir *chunkdir.Dir
		if ok {
			dir, ok = directory(fd, st)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(32*len(payload))+1<<20 {
			t.Fatalf("decoding %d payload bytes allocated %d", len(payload), grew)
		}
		if !ok {
			return // discarded
		}
		if err := dir.Verify(); err != nil {
			t.Fatalf("decoded directory: %v", err)
		}
		install(fd, dir, st)
		if err := st.Dir.Verify(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSidecarSeedsDecode pins what the fuzz seeds exercise: the v2 seed
// installs map offsets and cached values; under a v2 header the retired
// v1 sections are skipped, so the v1 seed installs its tuple starts only.
func TestSidecarSeedsDecode(t *testing.T) {
	for _, tc := range []struct {
		name             string
		payload          []byte
		pointers, cached bool
	}{{"v2", v2Payload(), true, true}, {"v1", v1Payload(format.Fingerprint{Size: 80, ModTime: time.Unix(1, 0)}), false, false}} {
		fd := &fileData{rows: -1, statRows: -1}
		if !parsePayload(fd, tc.payload) {
			t.Fatalf("%s: payload does not parse", tc.name)
		}
		st := fuzzState()
		dir, ok := directory(fd, st)
		if !ok || !schemaMatches(fd, st) {
			t.Fatalf("%s: payload discarded", tc.name)
		}
		if err := dir.Verify(); err != nil {
			t.Fatalf("%s: decoded directory: %v", tc.name, err)
		}
		install(fd, dir, st)
		if err := st.Dir.Verify(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.Dir.NumTuples() == 0 || (st.Dir.MapMetrics().Pointers > 0) != tc.pointers || (st.Dir.CacheBytes() > 0) != tc.cached {
			t.Errorf("%s: installed %d starts, %d pointers, %d cache bytes", tc.name,
				st.Dir.NumTuples(), st.Dir.MapMetrics().Pointers, st.Dir.CacheBytes())
		}
	}
}

// TestSidecarFaultVersion1: a version-1 sidecar (per-pointer map and
// per-column cache sections) that matches its raw file is not migrated: it
// is discarded as corrupt, counted once, and the table starts cold.
func TestSidecarFaultVersion1(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(raw, []byte("1,2.5,x,3,true\n2,3.5,y,4,false\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fp, err := format.TakeFingerprint(raw)
	if err != nil {
		t.Fatal(err)
	}
	payload := v1Payload(fp)
	var h enc
	h.b = append(h.b, fileMagic...)
	h.u32(1)
	h.u64(uint64(len(payload)))
	h.u64(checksum(payload))
	m := New(Config{Dir: dir})
	defer m.Close()
	tbl := fuzzTable(raw)
	aux := m.Path(&format.State{Tbl: tbl})
	if err := os.WriteFile(aux, append(h.b, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	env := fuzzEnv
	env.Sidecar = m
	st := format.NewState(tbl, env)
	if st.Dir.NumTuples() != 0 || st.Dir.CacheBytes() != 0 || st.Rows.Load() != -1 || !st.FP.Zero() {
		t.Errorf("v1 sidecar installed state: %d starts, %d cache bytes, rows %d", st.Dir.NumTuples(), st.Dir.CacheBytes(), st.Rows.Load())
	}
	if s := m.Stats(); s.CorruptDiscarded != 1 || s.LoadMisses != 1 || s.LoadHits != 0 {
		t.Errorf("stats after a v1 sidecar: %+v", s)
	}
	if _, err := os.Stat(aux); !os.IsNotExist(err) {
		t.Errorf("v1 sidecar not removed (err=%v)", err)
	}
}
