package format

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"nodb/internal/exec"
)

// BatchRowsPerMsg is how many qualifying tuples a partition worker groups
// into one channel transfer.
const BatchRowsPerMsg = 256

// batchChanCap bounds how many batches a worker may run ahead of
// consumption; together with BatchRowsPerMsg it caps the memory a fast
// worker can pin while an earlier partition is still draining.
const batchChanCap = 4

// ErrStopped is returned by a partition worker whose emit was refused —
// the scan is being torn down (early Close, LIMIT, cancellation) and the
// consumer no longer drains. The pool treats it as neither a clean drain
// nor an error to surface.
var ErrStopped = errors.New("format: partitioned scan stopped")

// PoolConfig wires one format's partitioned scan into the shared
// worker-pool/merge pipeline.
type PoolConfig struct {
	// Cols is the merged stream's output schema.
	Cols []exec.Col
	// Start partitions the input and prepares per-partition state,
	// returning the partition count. It runs on Open.
	Start func() (parts int, err error)
	// Run scans one partition, emitting freshly allocated column-major
	// batches (the consumer owns them outright). It returns nil once the
	// partition was read to its end — its private state is then complete,
	// whether or not teardown refused the last batch — ErrStopped when emit
	// refused before that, or the scan error.
	Run func(part int, emit func(*exec.Batch) bool) error
	// Merge folds the first n partitions' private state (shards) into the
	// shared structures. It runs at most once per Open: with every
	// partition and clean=true after a full drain, or with the drained
	// prefix and clean=false when the scan is abandoned early — mirroring
	// how an aborted sequential scan keeps the recordings it made before
	// stopping. Totals (row counts, statistics) must only publish when
	// clean. May be nil.
	Merge func(n int, clean bool) error
	// Release frees resources acquired by Start (file handles); it runs on
	// Close. May be nil.
	Release func() error
	// OnError translates a partition-local error (e.g. rebasing row
	// numbers); see exec.OrderedBatchSource.OnError. May be nil.
	OnError func(part int, err error) error
}

// NewPool builds the partitioned scan operator: one goroutine per
// partition feeding a bounded batch channel, merged back into partition
// (file) order by exec.OrderedBatchSource. Results are bit-identical to a
// sequential pass for any partition count. Workers observe ctx through
// their emit calls and their own scan loops.
func NewPool(ctx context.Context, cfg PoolConfig) *exec.OrderedBatchSource {
	if ctx == nil {
		ctx = context.Background()
	}
	p := &pool{ctx: ctx, cfg: cfg}
	src := exec.NewOrderedBatchSource(cfg.Cols, p.start, p.finish, p.stop)
	if cfg.OnError != nil {
		src.OnError(cfg.OnError)
	}
	return src
}

type pool struct {
	ctx context.Context
	cfg PoolConfig

	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	drained []bool  // set by worker goroutines; read after wg.Wait
	errs    []error // per-partition scan errors; set by workers, read after wg.Wait
	merged  bool
}

func (p *pool) start() ([]<-chan exec.BatchMsg, error) {
	// A query cancelled before it began must not partition the file, let
	// alone start workers that each parse until their first context check.
	if err := p.ctx.Err(); err != nil {
		return nil, err
	}
	n, err := p.cfg.Start()
	if err != nil {
		return nil, err
	}
	p.done = make(chan struct{})
	p.once = sync.Once{}
	p.merged = false
	p.drained = make([]bool, n)
	p.errs = make([]error, n)
	chans := make([]<-chan exec.BatchMsg, n)
	for i := 0; i < n; i++ {
		ch := make(chan exec.BatchMsg, batchChanCap)
		chans[i] = ch
		p.wg.Add(1)
		go p.worker(i, ch)
	}
	return chans, nil
}

func (p *pool) worker(i int, ch chan exec.BatchMsg) {
	defer p.wg.Done()
	defer close(ch)
	emit := func(b *exec.Batch) bool { return p.send(ch, exec.BatchMsg{B: b}) }
	switch err := p.cfg.Run(i, emit); {
	case err == nil:
		p.drained[i] = true
	case errors.Is(err, ErrStopped):
		// Torn down; the consumer is gone, nothing to report.
	default:
		// Record before attempting the channel send: the send races
		// teardown and cancellation and may be dropped, but the recorded
		// error is always visible to finish() after wg.Wait.
		p.errs[i] = err
		p.send(ch, exec.BatchMsg{Err: err})
	}
}

// send delivers a batch unless the scan is being torn down or the query's
// context is cancelled (the consumer might no longer be draining).
func (p *pool) send(ch chan<- exec.BatchMsg, m exec.BatchMsg) bool {
	select {
	case ch <- m:
		return true
	case <-p.done:
		return false
	case <-p.ctx.Done():
		return false
	}
}

// finish runs once every partition channel drained cleanly: it merges all
// shards and lets the format publish totals.
func (p *pool) finish() error {
	p.wg.Wait()
	// Deterministic error aggregation: a worker's final error send races
	// teardown and cancellation (send's select can drop the message), and
	// ctx.Err() alone would mask a real EIO behind context.Canceled when
	// both fire. The recorded per-partition errors are authoritative after
	// wg.Wait: surface the first real (non-context) one in partition
	// order, translated like a channel-delivered error would have been.
	if i, err := p.firstRealErr(); err != nil {
		if p.cfg.OnError != nil {
			err = p.cfg.OnError(i, err)
		}
		return err
	}
	// A cancelled context with no recorded scan error is the caller giving
	// up. Never publish totals from such a pass: surface the cancellation;
	// Close merges the drained prefix.
	if err := p.ctx.Err(); err != nil {
		return err
	}
	for i, d := range p.drained {
		if !d {
			return fmt.Errorf("format: partition %d ended without draining or reporting an error", i)
		}
	}
	return p.merge(len(p.drained), true)
}

// firstRealErr scans the recorded partition errors for the lowest-index
// one that is not mere context cancellation. Callers must hold wg.Wait.
func (p *pool) firstRealErr() (int, error) {
	for i, err := range p.errs {
		if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			continue
		}
		return i, err
	}
	return 0, nil
}

// merge runs the format's shard merge at most once per Open.
func (p *pool) merge(n int, clean bool) error {
	if p.merged || p.cfg.Merge == nil {
		return nil
	}
	p.merged = true
	return p.cfg.Merge(n, clean)
}

// stop tears the workers down (idempotent; also runs after a clean drain).
// When the scan is abandoned before a full drain — LIMIT, error, early
// Close — the leading partitions whose workers had read their whole range
// by the time they noticed still merge back; row counts and statistics
// stay unpublished (the file was not fully seen), just like a sequential
// scan that never reached finish. A worker notices teardown only at its
// next emit, so a partition that fits its last batch in flight always
// counts as read; how many later ones do depends on scheduling.
func (p *pool) stop() error {
	if p.done == nil {
		return nil
	}
	p.once.Do(func() { close(p.done) })
	p.wg.Wait()
	prefix := 0
	for prefix < len(p.drained) && p.drained[prefix] {
		prefix++
	}
	err := p.merge(prefix, false) // no-op after a clean finish
	if p.cfg.Release != nil {
		if rerr := p.cfg.Release(); err == nil {
			err = rerr
		}
	}
	return err
}

// PumpBatches is the standard body of a partition worker's Run: it packs
// the live rows of src's batches into freshly allocated batches of at most
// size rows — the consumer owns each outright — and emits them. The
// caller opens and closes src.
func PumpBatches(src exec.Operator, size int, emit func(*exec.Batch) bool) error {
	var in *exec.Batch
	k := 0
	return pump(len(src.Columns()), size, func(b *exec.Batch) error {
		for b.N < size {
			if in == nil || k >= in.Live() {
				var err error
				if in, err = src.NextBatch(); err != nil {
					return err
				}
				k = 0
			}
			i := k
			if in.Sel != nil {
				i = in.Sel[k]
			}
			for j := range b.Cols {
				b.Cols[j] = append(b.Cols[j], in.Cols[j][i])
			}
			b.N++
			k++
		}
		return nil
	}, emit)
}

// pump emits the batches fill packs, each freshly allocated with room for
// size rows, until fill reports io.EOF. It returns nil on EOF, ErrStopped
// when emit refuses a batch before EOF (teardown), or the scan error. A
// refused final batch still returns nil: the partition was read
// completely, the consumer is gone (teardown) or finish reports the
// cancellation, so the rows are never missed and the shard is whole.
func pump(width, size int, fill func(*exec.Batch) error, emit func(*exec.Batch) bool) error {
	for {
		b := exec.NewBatch(width, size)
		err := fill(b)
		if err == io.EOF {
			if b.N > 0 {
				emit(b)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if !emit(b) {
			return ErrStopped
		}
	}
}
