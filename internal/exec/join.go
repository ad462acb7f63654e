package exec

import (
	"errors"
	"fmt"
	"io"
	"math"

	"nodb/internal/datum"
	"nodb/internal/expr"
	"nodb/internal/qtrace"
)

// HashJoin is an inner equi-join: the left (build) side is materialized
// into a hash table, the right (probe) side streams. The optimizer uses
// cardinality statistics to put the smaller input on the build side — one
// of the stats-driven choices behind Fig 12.
//
// Both inputs are read batch-at-a-time. The build side lands
// column-major in one arena indexed by a power-of-two chain table; each
// probe batch has its key vectors evaluated once, is matched into
// (build row, probe position) pairs, and is gathered into dense output
// batches of left ++ right columns. Output order is probe order, then
// build insertion order.
//
// HashJoin deliberately does not implement RowBudgeter: a LIMIT above a
// join says nothing about how many input rows the join needs.
type HashJoin struct {
	batchOut
	left, right         Operator
	leftKeys, rightKeys []expr.Expr
	cols                []Col
	lw                  int // build-side width
	size                int // output batch capacity, fixed at the first Open

	// Build table. Row r (0-based) of the build side is arena[c][r]; chain
	// links are r+1 so the zero value of heads/next means "end".
	arena [][]datum.Datum
	bkeys [][]datum.Datum // per key expression: its vector over the build rows
	nb    int             // build rows kept (NULL keys never join)
	ikeys []int64         // single Int/Date key: raw payloads, else nil
	itag  datum.Type      // the tag every ikeys element carries
	tbl   chainTable

	// Probe state: the current probe batch, the next live index to match,
	// and the chain node an output-full return stopped at.
	probe    Operator
	pb       *Batch
	pk       int
	resume   int32
	done     bool
	pkeys    [][]datum.Datum
	pscratch [][]datum.Datum
	pairB    []int32 // matched build rows
	pairP    []int32 // matched probe positions
	out      *Batch

	span       *qtrace.Span
	probeRows  int64
	outBatches int64
}

// noResume marks "start the chain walk from the slot head".
const noResume = -1

// NewHashJoin builds an inner hash join. leftKeys and rightKeys must have
// equal length; output is the concatenation left ++ right.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []expr.Expr) *HashJoin {
	cols := append(append([]Col{}, left.Columns()...), right.Columns()...)
	return &HashJoin{
		left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys,
		cols: cols,
		lw:   len(left.Columns()),
	}
}

// SetTraceSpan implements qtrace.SpanSetter: Close annotates the span with
// build rows, probe rows and output batches.
func (j *HashJoin) SetTraceSpan(sp *qtrace.Span) { j.span = sp }

// Open materializes the build side. The build input is fully closed before
// the probe side opens, so at most one scan is live at any moment — scans
// of concurrent sessions serialize on per-table locks, and holding one
// table while acquiring another would risk an ABBA deadlock between
// queries visiting the tables in opposite orders (or a self-deadlock on a
// self-join).
func (j *HashJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	err := j.drainBuild(j.left)
	if cerr := j.left.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	j.index()

	if j.out == nil {
		j.size = j.height()
		j.out = NewBatch(len(j.cols), j.size)
		j.pkeys = make([][]datum.Datum, len(j.rightKeys))
		j.pscratch = make([][]datum.Datum, len(j.rightKeys))
		j.pairB = make([]int32, 0, j.size)
		j.pairP = make([]int32, 0, j.size)
	}
	j.pb, j.done = nil, false
	j.probeRows, j.outBatches = 0, 0
	j.probe = j.right
	return j.probe.Open()
}

// drainBuild appends every build row whose keys are all non-NULL to the
// arena, column by column per input batch.
func (j *HashJoin) drainBuild(src Operator) error {
	j.arena = make([][]datum.Datum, j.lw)
	j.bkeys = make([][]datum.Datum, len(j.leftKeys))
	j.nb = 0
	kv := make([][]datum.Datum, len(j.leftKeys))
	scratch := make([][]datum.Datum, len(j.leftKeys))
	var selBuf []int
	for {
		b, err := src.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for k, e := range j.leftKeys {
			if kv[k], err = evalVec(e, b, &scratch[k]); err != nil {
				return err
			}
		}
		sel, live := b.Sel, b.Live()
		if hasNullKey(kv, b.N, b.Sel) {
			selBuf = selBuf[:0]
			for k := 0; k < live; k++ {
				i := k
				if b.Sel != nil {
					i = b.Sel[k]
				}
				if !nullKeyAt(kv, i) {
					selBuf = append(selBuf, i)
				}
			}
			sel, live = selBuf, len(selBuf)
		}
		if live == 0 {
			continue
		}
		if j.nb+live > math.MaxInt32 {
			return errors.New("exec: hash join build side exceeds 2^31 rows")
		}
		for c := range j.arena {
			j.arena[c] = appendLive(j.arena[c], b.Cols[c], b.N, sel)
		}
		for k, e := range j.leftKeys {
			if !j.keyInArena(e) {
				j.bkeys[k] = appendLive(j.bkeys[k], kv[k], b.N, sel)
			}
		}
		j.nb += live
	}
	for k, e := range j.leftKeys {
		if j.keyInArena(e) {
			j.bkeys[k] = j.arena[e.(*expr.ColRef).Index]
		}
	}
	return nil
}

// keyInArena reports whether a build key is a bare reference to a build
// column, whose arena vector then doubles as the key vector.
func (j *HashJoin) keyInArena(e expr.Expr) bool {
	c, ok := e.(*expr.ColRef)
	return ok && c.Index >= 0 && c.Index < j.lw
}

// appendLive appends the live positions of col (all of [0,n) when sel is
// nil) to dst.
func appendLive(dst, col []datum.Datum, n int, sel []int) []datum.Datum {
	if sel == nil {
		return append(dst, col[:n]...)
	}
	for _, i := range sel {
		dst = append(dst, col[i])
	}
	return dst
}

func nullKeyAt(kv [][]datum.Datum, i int) bool {
	for _, v := range kv {
		if v[i].Null() {
			return true
		}
	}
	return false
}

func hasNullKey(kv [][]datum.Datum, n int, sel []int) bool {
	if sel == nil {
		for i := 0; i < n; i++ {
			if nullKeyAt(kv, i) {
				return true
			}
		}
		return false
	}
	for _, i := range sel {
		if nullKeyAt(kv, i) {
			return true
		}
	}
	return false
}

// index builds the chain table over the arena. Rows are linked in reverse
// so every chain lists its rows in build insertion order.
func (j *HashJoin) index() {
	n := j.nb
	j.tbl.reset(n)
	j.tbl.next = make([]int32, n)

	// A single key whose build values all carry one Int or Date tag is
	// compared as raw int64 payloads.
	j.ikeys = nil
	if len(j.bkeys) == 1 && n > 0 {
		keys := j.bkeys[0]
		if tag := keys[0].T; tag == datum.Int || tag == datum.Date {
			ik := make([]int64, n)
			for i, d := range keys {
				if d.T != tag {
					ik = nil
					break
				}
				ik[i] = d.Int()
			}
			j.ikeys, j.itag = ik, tag
		}
	}
	for r := n - 1; r >= 0; r-- {
		var h uint64
		if j.ikeys != nil {
			h = uint64(j.ikeys[r])
		} else {
			h = tupleHash(j.bkeys, r)
		}
		j.tbl.link(int32(r), h)
	}
}

// keysEqual reports SQL equality of build row r and probe position p over
// every key (NULLs were filtered on both sides).
func (j *HashJoin) keysEqual(r int32, p int) bool {
	for k, bk := range j.bkeys {
		if !datum.Equal(bk[r], j.pkeys[k][p]) {
			return false
		}
	}
	return true
}

// match walks the current probe batch from its cursor, appending up to
// room (build row, probe position) pairs. It returns with the cursor on
// the first unmatched work: either past the batch, or mid-chain (resume)
// when room ran out.
//
//nodb:hotpath
func (j *HashJoin) match(room int) {
	b := j.pb
	live := b.Live()
	pairB, pairP := j.pairB[:0], j.pairP[:0]
	var k0 []datum.Datum
	if j.ikeys != nil {
		k0 = j.pkeys[0]
	}
	for ; j.pk < live; j.pk++ {
		p := j.pk
		if b.Sel != nil {
			p = b.Sel[p]
		}
		r := j.resume
		j.resume = noResume
		if k0 != nil && k0[p].T == j.itag && !k0[p].Null() {
			v := k0[p].Int()
			if r == noResume {
				r = j.tbl.head(uint64(v))
			}
			for ; r != 0; r = j.tbl.next[r-1] {
				if j.ikeys[r-1] != v {
					continue
				}
				if len(pairB) == room {
					j.resume = r
					j.pairB, j.pairP = pairB, pairP
					return
				}
				pairB = append(pairB, r-1)
				pairP = append(pairP, int32(p))
			}
			continue
		}
		if nullKeyAt(j.pkeys, p) {
			continue
		}
		if r == noResume {
			r = j.tbl.head(tupleHash(j.pkeys, p))
		}
		for ; r != 0; r = j.tbl.next[r-1] {
			if !j.keysEqual(r-1, p) {
				continue
			}
			if len(pairB) == room {
				j.resume = r
				j.pairB, j.pairP = pairB, pairP
				return
			}
			pairB = append(pairB, r-1)
			pairP = append(pairP, int32(p))
		}
	}
	j.pairB, j.pairP = pairB, pairP
}

// gather copies the matched pairs into out at row offset base: build
// columns from the arena, probe columns from the current probe batch.
//
//nodb:hotpath
func (j *HashJoin) gather(out *Batch, base int) {
	m := len(j.pairB)
	for c, src := range j.arena {
		dst := out.Cols[c][base : base+m]
		for i, r := range j.pairB {
			dst[i] = src[r]
		}
	}
	for c := j.lw; c < len(out.Cols); c++ {
		src := j.pb.Cols[c-j.lw]
		dst := out.Cols[c][base : base+m]
		for i, p := range j.pairP {
			dst[i] = src[p]
		}
	}
}

// NextBatch fills one dense output batch of
// up to size rows, finishing with each probe batch (its pending matches
// included) before pulling the next — producers reuse their batches.
func (j *HashJoin) NextBatch() (*Batch, error) {
	out := j.out
	for c := range out.Cols {
		out.Cols[c] = out.Cols[c][:j.size]
	}
	n := 0
	for n < j.size && !j.done {
		if j.pb == nil {
			b, err := j.probe.NextBatch()
			if err == io.EOF {
				j.done = true
				break
			}
			if err != nil {
				return nil, err
			}
			for k, e := range j.rightKeys {
				if j.pkeys[k], err = evalVec(e, b, &j.pscratch[k]); err != nil {
					return nil, err
				}
			}
			j.pb, j.pk, j.resume = b, 0, noResume
			j.probeRows += int64(b.Live())
		}
		j.match(j.size - n)
		j.gather(out, n)
		n += len(j.pairB)
		if j.pk >= j.pb.Live() {
			j.pb = nil
		}
	}
	if n == 0 {
		return nil, io.EOF
	}
	for c := range out.Cols {
		out.Cols[c] = out.Cols[c][:n]
	}
	out.N, out.Sel = n, nil
	j.outBatches++
	return out, nil
}

// Close closes the probe side and releases the table.
func (j *HashJoin) Close() error {
	if j.span != nil {
		j.span.SetDetail(fmt.Sprintf("build_rows=%d probe_rows=%d out_batches=%d", j.nb, j.probeRows, j.outBatches))
	}
	j.arena, j.bkeys, j.ikeys, j.tbl = nil, nil, nil, chainTable{}
	j.pb = nil
	if j.probe == nil {
		return nil // Open failed before the probe side was reached
	}
	err := j.probe.Close()
	j.probe = nil
	return err
}

// Columns returns left ++ right.
func (j *HashJoin) Columns() []Col { return j.cols }
