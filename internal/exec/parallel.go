package exec

import "io"

// BatchMsg is one channel transfer between a producer goroutine and the
// operator tree: a column-major batch owned by the consumer, amortizing
// synchronization across many tuples. Err, when set, aborts the scan; a
// message carrying an error must be the producer's last send.
type BatchMsg struct {
	B   *Batch
	Err error
}

// OrderedBatchSource is a leaf operator that merges per-partition batch
// channels back into one ordered stream: channel i is drained to
// completion before channel i+1 is touched, so concurrent producers
// (partition workers of a parallel scan) yield exactly the row order of a
// sequential pass; NextBatch hands the merged batches straight to the
// operators above. Producers must close their channel
// after the last batch; bounded channel capacity is what keeps a worker
// from running unboundedly ahead of consumption.
type OrderedBatchSource struct {
	cols   []Col
	start  func() ([]<-chan BatchMsg, error)
	finish func() error
	stop   func() error

	mapErr func(partition int, err error) error

	chans    []<-chan BatchMsg
	cur      int
	finished bool
	budget   int64 // stop after this many live rows; -1 = unlimited
	seen     int64
}

// NewOrderedBatchSource builds the operator from callbacks: start launches
// the producers and returns their channels in consumption order; finish
// runs exactly once when every channel is drained without error (e.g. to
// merge worker state back into shared structures); stop runs on Close and
// must make all producers terminate. finish and stop may be nil.
func NewOrderedBatchSource(cols []Col, start func() ([]<-chan BatchMsg, error), finish, stop func() error) *OrderedBatchSource {
	return &OrderedBatchSource{cols: cols, start: start, finish: finish, stop: stop, budget: -1}
}

// SetRowBudget implements RowBudgeter: once the merged stream has delivered
// n live rows, NextBatch reports EOF without draining the remaining
// producers (Close tears them down). The finish callback does not run on a
// budget cut — the file was not fully seen, exactly like a sequential
// scan abandoned by a LIMIT.
func (o *OrderedBatchSource) SetRowBudget(n int64) { o.budget = n }

// OnError installs a translator invoked when a producer batch carries an
// error; partition is the channel index it arrived on. Because channel i's
// error is only observed after channels 0..i-1 drained completely, the
// translator can safely rebase partition-local context (e.g. row numbers)
// against the finished earlier partitions.
func (o *OrderedBatchSource) OnError(fn func(partition int, err error) error) {
	o.mapErr = fn
}

// Open launches the producers.
func (o *OrderedBatchSource) Open() error {
	chans, err := o.start()
	if err != nil {
		return err
	}
	o.chans = chans
	o.cur = 0
	o.finished = false
	o.seen = 0
	return nil
}

// NextBatch returns the next producer batch in partition order.
func (o *OrderedBatchSource) NextBatch() (*Batch, error) {
	if o.budget >= 0 && o.seen >= o.budget {
		return nil, io.EOF
	}
	for {
		if o.cur >= len(o.chans) {
			if !o.finished {
				o.finished = true
				if o.finish != nil {
					if err := o.finish(); err != nil {
						return nil, err
					}
				}
			}
			return nil, io.EOF
		}
		m, ok := <-o.chans[o.cur]
		if !ok {
			o.cur++
			continue
		}
		if m.Err != nil {
			if o.mapErr != nil {
				return nil, o.mapErr(o.cur, m.Err)
			}
			return nil, m.Err
		}
		o.seen += int64(m.B.Live())
		return m.B, nil
	}
}

// Close stops the producers.
func (o *OrderedBatchSource) Close() error {
	if o.stop != nil {
		return o.stop()
	}
	return nil
}

// Columns returns the source schema.
func (o *OrderedBatchSource) Columns() []Col { return o.cols }
