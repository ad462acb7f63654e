package sidecar

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nodb/internal/chunkdir"
	"nodb/internal/format"
	"nodb/internal/iofault"
)

// Config parameterizes a Manager.
type Config struct {
	// Dir is where sidecar files live. Empty means next to each raw file
	// (<raw path>.nodbaux); otherwise <Dir>/<table>.nodbaux.
	Dir string
	// MaxBytes caps a checkpoint file's size (0 = unlimited). Small
	// sections (fingerprint, schema, access counters, statistics) always
	// fit; positional-map and cached-column sections are dropped
	// coldest-first when the budget runs out.
	MaxBytes int64
	// StmtPath is where hot prepared-statement texts persist ("" = off).
	StmtPath string
	// StmtN caps how many statement texts persist (default 32).
	StmtN int
}

// debounce is how long the background checkpointer waits after a
// recording scan before flushing, absorbing bursts.
const debounce = 100 * time.Millisecond

// Stats is a point-in-time snapshot of the manager's counters.
type Stats struct {
	Checkpoints      int64 // sidecar files written
	CheckpointErrors int64 // failed checkpoint attempts
	BytesWritten     int64 // total sidecar bytes written
	LoadHits         int64 // tables warm-started from a valid sidecar
	LoadMisses       int64 // tables that started cold (absent/stale/corrupt)
	CorruptDiscarded int64 // sidecar files discarded as corrupt or stale
	JournalRecords   int64 // append-journal records written
}

// Manager owns the sidecar files of one engine: it loads them when tables
// open, re-checkpoints dirty tables from a debounced background worker,
// and journals INSERT appends. One Manager per engine; all methods are
// safe for concurrent use.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	dirty  map[*format.State]struct{}
	closed bool

	wake    chan struct{}
	done    chan struct{}
	stopped chan struct{}

	// flushMu serializes Flush calls (explicit and from the worker), so a
	// caller's Flush cannot return while the worker still holds a popped
	// but unwritten state.
	flushMu sync.Mutex

	checkpoints      atomic.Int64
	checkpointErrors atomic.Int64
	bytesWritten     atomic.Int64
	loadHits         atomic.Int64
	loadMisses       atomic.Int64
	corruptDiscarded atomic.Int64
	journalRecords   atomic.Int64
}

var _ format.SidecarManager = (*Manager)(nil)

// New starts a Manager and its background checkpoint worker.
func New(cfg Config) *Manager {
	if cfg.StmtN <= 0 {
		cfg.StmtN = 32
	}
	if cfg.Dir != "" {
		// Best effort; a failure here surfaces later as a checkpoint error.
		_ = os.MkdirAll(cfg.Dir, 0o755)
	}
	m := &Manager{
		cfg:     cfg,
		dirty:   make(map[*format.State]struct{}),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go m.worker()
	return m
}

// Path returns the sidecar file path for st's table.
func (m *Manager) Path(st *format.State) string {
	if m.cfg.Dir != "" {
		return filepath.Join(m.cfg.Dir, st.Tbl.Name+".nodbaux")
	}
	return st.Tbl.Path + ".nodbaux"
}

// worker debounces MarkDirty signals into Flush calls.
func (m *Manager) worker() {
	defer close(m.stopped)
	for {
		select {
		case <-m.done:
			return
		case <-m.wake:
		}
		t := time.NewTimer(debounce)
		select {
		case <-m.done:
			t.Stop()
			return
		case <-t.C:
		}
		// Errors are counted (CheckpointErrors); there is no caller to
		// return them to from the background path.
		_ = m.Flush(context.Background())
	}
}

// MarkDirty implements format.SidecarManager: schedule a checkpoint of st.
// Non-blocking — called right after a recording scan closes.
func (m *Manager) MarkDirty(st *format.State) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.dirty[st] = struct{}{}
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// Flush checkpoints every dirty table now. Returns the first error;
// the remaining tables are still attempted.
func (m *Manager) Flush(ctx context.Context) error {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	m.mu.Lock()
	list := make([]*format.State, 0, len(m.dirty))
	for st := range m.dirty {
		list = append(list, st)
	}
	m.dirty = make(map[*format.State]struct{})
	m.mu.Unlock()
	var first error
	for _, st := range list {
		if err := m.checkpoint(ctx, st); err != nil {
			m.checkpointErrors.Add(1)
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// checkpoint serializes st under a shared table hold (recording scans are
// excluded; warm cache readers are not) and writes the file atomically.
func (m *Manager) checkpoint(ctx context.Context, st *format.State) error {
	if err := st.Lk.RLock(ctx); err != nil {
		return err
	}
	payload := encodeState(st, m.cfg.MaxBytes)
	st.Lk.RUnlock()
	if payload == nil {
		return nil
	}
	n, err := writeAtomic(m.Path(st), fileMagic, payload)
	if err != nil {
		return err
	}
	m.checkpoints.Add(1)
	m.bytesWritten.Add(int64(n))
	return nil
}

// JournalAppend implements format.SidecarManager: after a successful
// INSERT append (exclusive table lock held), record the raw file's
// post-append fingerprint in the sidecar's journal so the pre-append
// checkpoint still validates as FileAppended on the next open. Best
// effort: the journal is an optimization over re-hashing, so failures are
// silent — the fingerprint check on load remains the source of truth.
func (m *Manager) JournalAppend(st *format.State) {
	path := m.Path(st)
	if _, err := iofault.Stat(path); err != nil {
		return // no checkpoint on disk yet, nothing to extend
	}
	fp, err := format.TakeFingerprint(st.Tbl.Path)
	if err != nil {
		return
	}
	f, err := iofault.OpenAppend(path)
	if err != nil {
		return
	}
	_, werr := f.Write(encodeJournal(fp))
	serr := f.Sync()
	cerr := f.Close()
	if werr == nil && serr == nil && cerr == nil {
		m.journalRecords.Add(1)
	}
}

// LoadLocked implements format.SidecarManager: restore st from its sidecar
// file, if one exists and still matches the raw file. Called once per
// table while its brand-new exclusive lock is held.
func (m *Manager) LoadLocked(st *format.State) {
	path := m.Path(st)
	fd, err := readSidecar(path)
	if err != nil {
		m.loadMisses.Add(1)
		if !missing(err) {
			// Structurally invalid: discard so the next checkpoint starts
			// from a clean slate.
			m.discard(path)
		}
		return
	}
	dir, ok := directory(fd, st)
	if !ok || !schemaMatches(fd, st) {
		m.loadMisses.Add(1)
		m.discard(path)
		return
	}

	change, cur := classify(fd, st.Tbl.Path)
	switch change {
	case format.FileSame, format.FileAppended:
	default:
		// Replaced, truncated, or unreadable raw file: nothing in the
		// sidecar can be trusted against the current bytes.
		m.loadMisses.Add(1)
		m.discard(path)
		return
	}

	install(fd, dir, st)
	st.FP = cur
	st.FileSize = cur.Size
	if change == format.FileSame {
		st.Rows.Store(fd.rows)
	} else {
		// Appended since the checkpoint: prefix structures stay valid, the
		// row count is unknown until the next full scan.
		st.Rows.Store(-1)
	}
	m.loadHits.Add(1)
}

// classify decides how the raw file relates to the checkpoint. The newest
// journal record gives a fast path: if the file's size+mtime equal an
// appended-state fingerprint we already took, it is a known append and no
// re-hashing is needed. Otherwise fall back to the checkpoint
// fingerprint's content check.
func classify(fd *fileData, rawPath string) (format.FileChange, format.Fingerprint) {
	if n := len(fd.journal); n > 0 {
		j := fd.journal[n-1]
		if fi, err := iofault.Stat(rawPath); err == nil &&
			fi.Size() == j.Size && fi.ModTime().Equal(j.ModTime) {
			if j.Size == fd.fp.Size {
				// Journaled append that grew nothing (empty INSERT) — the
				// file is exactly the checkpointed version.
				return format.FileSame, j
			}
			return format.FileAppended, j
		}
	}
	change, cur, err := fd.fp.Check(rawPath)
	if err != nil {
		return format.FileReplaced, format.Fingerprint{}
	}
	return change, cur
}

// schemaMatches guards against a catalog that drifted since the
// checkpoint: same table name, column names and types, or the sidecar's
// positions and values would be reinterpreted under the wrong schema.
func schemaMatches(fd *fileData, st *format.State) bool {
	if fd.table != st.Tbl.Name || len(fd.colNames) != len(st.Tbl.Columns) {
		return false
	}
	for i, c := range st.Tbl.Columns {
		if fd.colNames[i] != c.Name || decType(fd.colTypes[i]) != c.Type {
			return false
		}
	}
	return true
}

// directory decodes the sidecar's tuple starts and slots into a fresh
// chunk directory, keeping only the structures this environment builds (a
// FITS table has no positional map; ModePM has no cache). It reports false
// when a slot is malformed or typed against the schema.
func directory(fd *fileData, st *format.State) (*chunkdir.Dir, bool) {
	dir := chunkdir.New(len(st.Types), 0, 0)
	if st.PM != nil {
		for i, off := range fd.starts {
			dir.RecordTupleStart(i, off)
		}
	}
	for _, sd := range fd.slots {
		if sd.offs != nil && !st.RecordAttrs || sd.seg != nil && st.Cache == nil {
			continue
		}
		if sd.seg != nil && (sd.col >= len(st.Types) || st.Types[sd.col] != sd.typ) ||
			!dir.Install(sd.col, sd.idx, sd.offs, sd.typ, sd.seg) {
			return nil, false
		}
	}
	return dir, true
}

// install puts the sidecar's state into st's live structures: counters and
// statistics, then the decoded directory through the shard merge.
func install(fd *fileData, dir *chunkdir.Dir, st *format.State) {
	for i, v := range fd.access {
		if i < len(st.ColAccess) {
			st.ColAccess[i].Store(v)
		}
	}
	if st.St != nil && fd.statRows >= 0 {
		st.St.SetRowCount(fd.statRows)
		for _, sc := range fd.statCols {
			if sc.col >= 0 && sc.col < len(st.Types) {
				st.St.Set(sc.col, sc.cs)
			}
		}
	}
	st.Dir.Absorb(dir, 0)
}

// discard removes a sidecar file that failed validation.
func (m *Manager) discard(path string) {
	m.corruptDiscarded.Add(1)
	_ = os.Remove(path)
}

// SaveStatements persists up to StmtN hot statement texts (most recently
// used first) so the next engine can re-prime its plan-skeleton cache.
func (m *Manager) SaveStatements(texts []string) error {
	if m.cfg.StmtPath == "" || len(texts) == 0 {
		return nil
	}
	if len(texts) > m.cfg.StmtN {
		texts = texts[:m.cfg.StmtN]
	}
	var b enc
	b.u32(uint32(len(texts)))
	for _, t := range texts {
		b.str(t)
	}
	_, err := writeAtomic(m.cfg.StmtPath, stmtMagic, b.b)
	return err
}

// LoadStatements returns the persisted statement texts, discarding the
// file if it fails validation. Best effort: nil on any problem.
func (m *Manager) LoadStatements() []string {
	if m.cfg.StmtPath == "" {
		return nil
	}
	fd, err := readFile(m.cfg.StmtPath, stmtMagic)
	if err != nil {
		if !missing(err) {
			m.discard(m.cfg.StmtPath)
		}
		return nil
	}
	s := dec{b: fd}
	n := int(s.u32())
	if n < 0 || n > 1<<16 {
		m.discard(m.cfg.StmtPath)
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.str())
	}
	if s.bad {
		m.discard(m.cfg.StmtPath)
		return nil
	}
	return out
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Checkpoints:      m.checkpoints.Load(),
		CheckpointErrors: m.checkpointErrors.Load(),
		BytesWritten:     m.bytesWritten.Load(),
		LoadHits:         m.loadHits.Load(),
		LoadMisses:       m.loadMisses.Load(),
		CorruptDiscarded: m.corruptDiscarded.Load(),
		JournalRecords:   m.journalRecords.Load(),
	}
}

// Close implements format.SidecarManager: stop the worker and flush
// whatever is still dirty. Idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	close(m.done)
	<-m.stopped
	return m.Flush(context.Background())
}
