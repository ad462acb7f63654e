package format

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"nodb/internal/exec"
	"nodb/internal/qtrace"
)

// BatchRowsPerMsg is how many qualifying tuples a partition worker groups
// into one channel transfer.
const BatchRowsPerMsg = 256

// batchChanCap bounds how many batches a worker may run ahead of
// consumption; together with BatchRowsPerMsg it caps the memory a fast
// worker can pin while an earlier partition is still draining.
const batchChanCap = 4

// errStopped ends a worker whose send was refused before its range was
// read to the end: the scan is being torn down (early Close, LIMIT) or
// the query was cancelled. It is neither a clean drain nor an error to
// surface.
var errStopped = errors.New("format: partitioned scan stopped")

// Part is one range of a partitioned cold pass, scanned by one worker
// goroutine into a private shard of the table (State.Shard), so nothing
// on its per-tuple hot path is shared.
type Part interface {
	// Open starts the range's scan.
	Open() error
	// Fill appends qualifying rows to b until it holds n. It returns
	// io.EOF once the range is exhausted, with b holding whatever this call
	// appended.
	Fill(b *exec.Batch, n int) error
	// Shard returns the State the part recorded into; its Rows holds the
	// range's row count once Fill has reported io.EOF.
	Shard() *State
	// Close ends the scan and flushes its counters into the shard (and the
	// query profile).
	Close() error
}

// Split divides the table's raw file into at most workers ranges. It
// returns one Part per range, in file order, and a release func for what
// the parts share (an open file; nil when nothing).
type Split func(workers int) (parts []Part, release func() error, err error)

// PartitionedScan is the parallel cold pass of every format: one worker
// goroutine per Part, each feeding a bounded channel, drained in file
// order so the rows are bit-identical to a sequential pass for any worker
// count. When the pass completes, the shards merge into the table's
// shared structures once — the chunk directory with its column synopses
// (chunkdir.Dir.Absorb) and the counters — and, unless the file changed
// underneath, the row count publishes. Later
// queries thus keep the paper's adaptive-indexing benefit.
type PartitionedScan struct {
	ctx     context.Context
	st      *State
	cols    []exec.Col
	workers int
	split   Split
	budget  int64 // stop after this many live rows; -1 = unlimited

	parts   []Part
	release func() error
	out     []chan *exec.Batch // per part; closed by its worker
	errs    []error            // per part: nil once drained; set by the worker before closing out[i]
	done    chan struct{}      // closed by Close to stop the workers
	wg      sync.WaitGroup
	cur     int   // part being drained
	seen    int64 // live rows delivered
	ended   bool  // every part drained and finish ran
	merged  bool  // the shard merge ran for this Open
}

// NewPartitionedScan builds the partitioned pass over st with the given
// worker count; split supplies the format's ranges on Open. It is only
// sound on a cold table (State.ScanWorkers). Workers observe ctx through
// their sends and their own scan loops.
func (st *State) NewPartitionedScan(ctx context.Context, outCols []int, workers int, split Split) *PartitionedScan {
	if ctx == nil {
		ctx = context.Background()
	}
	return &PartitionedScan{ctx: ctx, st: st, cols: OutputSchema(st.Tbl, outCols),
		workers: workers, split: split, budget: -1}
}

// Columns implements exec.Operator.
func (p *PartitionedScan) Columns() []exec.Col { return p.cols }

// SetRowBudget implements exec.RowBudgeter: once n live rows are out,
// NextBatch reports EOF without draining the remaining parts. No totals
// publish — the file was not fully seen, exactly like a sequential scan
// abandoned by a LIMIT.
func (p *PartitionedScan) SetRowBudget(n int64) { p.budget = n }

// Open splits the file and starts one worker per part.
func (p *PartitionedScan) Open() error {
	// A query cancelled before it began must not partition the file, let
	// alone start workers that each parse until their first context check.
	if err := p.ctx.Err(); err != nil {
		return err
	}
	parts, release, err := p.split(p.workers)
	if err != nil {
		return err
	}
	p.parts, p.release = parts, release
	p.out = make([]chan *exec.Batch, len(parts))
	p.errs = make([]error, len(parts))
	p.done = make(chan struct{})
	p.cur, p.seen, p.ended, p.merged = 0, 0, false, false
	qtrace.FromContext(p.ctx).Count(qtrace.CtrWorkers, int64(len(parts)))
	for i := range parts {
		p.out[i] = make(chan *exec.Batch, batchChanCap)
		p.wg.Add(1)
		go p.work(i, p.done)
	}
	return nil
}

// work runs part i; closing its channel publishes errs[i] to the consumer.
func (p *PartitionedScan) work(i int, done <-chan struct{}) {
	defer p.wg.Done()
	defer close(p.out[i])
	p.errs[i] = p.run(p.parts[i], p.out[i], done)
}

// run drains one part into out, each batch freshly allocated (the
// consumer owns it outright). It returns nil once the range was read to
// its end — the shard is whole even when teardown refused the last batch
// — errStopped when a send was refused before that, or the scan error.
func (p *PartitionedScan) run(pt Part, out chan<- *exec.Batch, done <-chan struct{}) error {
	if err := pt.Open(); err != nil {
		return err
	}
	defer pt.Close()
	for {
		b := exec.NewBatch(len(p.cols), BatchRowsPerMsg)
		err := pt.Fill(b, BatchRowsPerMsg)
		if err != nil && err != io.EOF {
			return err
		}
		if b.N > 0 && !p.send(out, b, done) && err == nil {
			return errStopped
		}
		if err == io.EOF {
			return nil
		}
	}
}

// send delivers a batch unless the scan is being torn down or the query
// is cancelled (the consumer might no longer be draining).
func (p *PartitionedScan) send(out chan<- *exec.Batch, b *exec.Batch, done <-chan struct{}) bool {
	select {
	case out <- b:
		return true
	case <-done:
		return false
	case <-p.ctx.Done():
		return false
	}
}

// NextBatch returns the next batch in file order: part i is drained to
// its end before part i+1 is touched, so a part's error surfaces only
// after every earlier part's rows.
func (p *PartitionedScan) NextBatch() (*exec.Batch, error) {
	if p.budget >= 0 && p.seen >= p.budget {
		return nil, io.EOF
	}
	for p.cur < len(p.out) {
		if err := p.ctx.Err(); err != nil {
			return nil, err
		}
		if b, ok := <-p.out[p.cur]; ok {
			p.seen += int64(b.Live())
			return b, nil
		}
		if err := p.errs[p.cur]; err != nil && !quiet(err) {
			return nil, p.rebase(p.cur, err)
		}
		p.cur++
	}
	if p.ended {
		return nil, io.EOF
	}
	p.ended = true
	if err := p.finish(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// finish runs once every part's channel has closed. Error aggregation is
// deterministic: a worker's error is recorded whether or not the consumer
// was still draining, so after wg.Wait the first real (non-context) error
// in file order wins over a cancellation that fired beside it. A
// cancelled pass with no real error surfaces the cancellation and never
// publishes totals; Close merges its drained prefix.
func (p *PartitionedScan) finish() error {
	p.wg.Wait()
	for i, err := range p.errs {
		if err != nil && !quiet(err) {
			return p.rebase(i, err)
		}
	}
	if err := p.ctx.Err(); err != nil {
		return err
	}
	return p.merge(len(p.parts), true)
}

// quiet reports whether a worker's error is teardown or cancellation
// rather than a fault of the scan.
func quiet(err error) bool {
	return err == errStopped || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// rebase converts the partition-local row number of part i's RowError
// into the absolute file row, by the row counts of the parts before it
// (those that never drained count none).
func (p *PartitionedScan) rebase(i int, err error) error {
	var re *RowError
	if errors.As(err, &re) {
		for _, pt := range p.parts[:i] {
			re.Row += int(max(pt.Shard().Rows.Load(), 0))
		}
	}
	return err
}

// merge folds the shards of parts[0..n) — in file order, offsetting rows
// by the parts before them — into the table's positional map, cache and
// counters. After a clean drain of every part it also verifies the file
// is the version the pass started from and publishes the row count,
// exactly what a sequential scan's finish does; an abandoned pass (LIMIT,
// error, early Close) merges its drained prefix but publishes nothing. It
// runs at most once per Open.
func (p *PartitionedScan) merge(n int, clean bool) error {
	p.merged = true
	st := p.st
	st.Dir.BeginScan() // pin merged map halves like a sequential pass would
	total := 0
	for _, pt := range p.parts[:n] {
		sh := pt.Shard()
		st.Dir.Absorb(sh.Dir, total)
		// Each worker flushed its scan counters into its shard at Close
		// (and into the query profile); fold them into the table here.
		c := sh.Counters.Load()
		st.Counters.Flush(nil, &c)
		total += int(sh.Rows.Load())
	}
	if !clean {
		return nil
	}
	if !st.FileUnchanged() {
		// The file moved underneath the pass; every range can still end
		// cleanly (each section simply read different bytes). Never
		// publish totals built from mixed file versions.
		return fmt.Errorf("format: table %s: file changed during parallel scan: %w",
			st.Tbl.Name, ErrFileChanged)
	}
	st.Rows.Store(int64(total))
	return nil
}

// Close stops the workers and waits for them. A pass abandoned before a
// full drain — LIMIT, error, early Close — still merges the leading parts
// whose workers read their whole range before they noticed, mirroring
// how an aborted sequential scan keeps the recordings it made; the row
// count stays unpublished. A worker notices teardown only at its
// next send, so a part whose last batch is in flight always counts as
// read; how many later ones do depends on scheduling.
func (p *PartitionedScan) Close() error {
	if p.done == nil {
		return nil
	}
	close(p.done)
	p.done = nil
	p.wg.Wait()
	if !p.merged {
		n := 0
		for n < len(p.errs) && p.errs[n] == nil {
			n++
		}
		p.merge(n, false) // an unclean merge publishes nothing and cannot fail
	}
	if p.release == nil {
		return nil
	}
	err := p.release()
	p.release = nil
	return err
}
