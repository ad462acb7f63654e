package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"nodb/internal/datum"
)

// HeapFile is a sequence of slotted pages in one OS file.
type HeapFile struct {
	path   string
	f      *os.File
	fileID uint32
	pool   *Pool
	pages  uint32
	rows   int64
	types  []datum.Type
}

// CreateHeap starts a new heap file for rows with the given column types.
// Use the returned writer to append tuples, then Finish.
func CreateHeap(path string, types []datum.Type) (*HeapWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: creating heap %s: %w", path, err)
	}
	w := &HeapWriter{
		hf:   &HeapFile{path: path, f: f, types: append([]datum.Type(nil), types...)},
		w:    f,
		wbuf: make([]byte, 0, 1024),
	}
	w.cur.Reset()
	return w, nil
}

// HeapWriter bulk-appends tuples page by page.
type HeapWriter struct {
	hf   *HeapFile
	w    *os.File // write handle (the same file hf.f reads)
	cur  Page
	wbuf []byte
}

// Tuple slot flags (first byte of every stored slot).
const (
	flagInline   = 0
	flagOverflow = 1
)

// Append encodes and stores one row. Rows whose binary image exceeds
// MaxTupleSize are stored through overflow pages (a TOAST-style chain):
// the slot holds a descriptor and the payload is written to dedicated
// KindOverflow pages, costing extra page I/O and a reassembly copy on
// every future read — the slow path behind the paper's Fig 13.
func (w *HeapWriter) Append(row []datum.Datum) error {
	w.wbuf = append(w.wbuf[:0], flagInline)
	w.wbuf = EncodeTuple(row, w.wbuf)
	if len(w.wbuf)-1 > MaxTupleSize {
		return w.appendOverflow(w.wbuf[1:])
	}
	if err := w.insertSlot(w.wbuf); err != nil {
		return err
	}
	w.hf.rows++
	return nil
}

// insertSlot stores slot bytes in the current data page, flushing first if
// full.
func (w *HeapWriter) insertSlot(slot []byte) error {
	if !w.cur.Insert(slot) {
		if err := w.flushPage(); err != nil {
			return err
		}
		if !w.cur.Insert(slot) {
			return fmt.Errorf("storage: slot of %d bytes does not fit in an empty page", len(slot))
		}
	}
	return nil
}

// appendOverflow writes payload into overflow pages and a descriptor slot.
func (w *HeapWriter) appendOverflow(payload []byte) error {
	start := w.hf.pages // first overflow page number
	var op Page
	for off := 0; off < len(payload); off += OverflowCap {
		op.ResetKind(KindOverflow)
		end := off + OverflowCap
		if end > len(payload) {
			end = len(payload)
		}
		copy(op.OverflowPayload(), payload[off:end])
		if _, err := w.w.Write(op.Bytes()); err != nil {
			return fmt.Errorf("storage: heap %s: writing overflow page: %w", w.hf.path, err)
		}
		w.hf.pages++
	}
	desc := make([]byte, 0, 16)
	desc = append(desc, flagOverflow)
	desc = binary.AppendUvarint(desc, uint64(len(payload)))
	desc = binary.LittleEndian.AppendUint32(desc, start)
	if err := w.insertSlot(desc); err != nil {
		return err
	}
	w.hf.rows++
	return nil
}

func (w *HeapWriter) flushPage() error {
	if _, err := w.w.Write(w.cur.Bytes()); err != nil {
		return fmt.Errorf("storage: heap %s: writing page: %w", w.hf.path, err)
	}
	w.hf.pages++
	w.cur.Reset()
	return nil
}

// Finish flushes the final page and attaches the heap to a buffer pool for
// reading. The writer must not be used afterwards.
func (w *HeapWriter) Finish(pool *Pool) (*HeapFile, error) {
	if w.cur.NumTuples() > 0 {
		if err := w.flushPage(); err != nil {
			return nil, err
		}
	}
	if err := w.w.Sync(); err != nil {
		return nil, fmt.Errorf("storage: heap %s: sync: %w", w.hf.path, err)
	}
	w.hf.pool = pool
	w.hf.fileID = pool.Register(w.hf.f)
	return w.hf, nil
}

// Rows returns the row count.
func (h *HeapFile) Rows() int64 { return h.rows }

// Path returns the backing file path.
func (h *HeapFile) Path() string { return h.path }

// Close detaches from the pool and closes the file.
func (h *HeapFile) Close() error {
	if h.pool != nil {
		h.pool.Unregister(h.fileID)
		h.pool = nil
	}
	if h.f != nil {
		err := h.f.Close()
		h.f = nil
		return err
	}
	return nil
}

// Iterator streams the heap's tuples in storage order. It pins the page
// it is reading; Release drops that pin without losing the position, so
// a scan consumed in batches holds no frame between them.
type Iterator struct {
	h      *HeapFile
	pageNo uint32
	slot   int
	page   *Page // pinned page; nil when none is pinned
	rowBuf []datum.Datum
	upTo   int // last column decoded; later ones read as NULL
	done   bool
}

// ScanPrefix returns an iterator positioned before the first tuple that
// decodes only columns 0..upTo of each tuple (slot_deform-style partial
// decoding); the remaining columns come back NULL.
func (h *HeapFile) ScanPrefix(upTo int) *Iterator {
	if upTo >= len(h.types) {
		upTo = len(h.types) - 1
	}
	return &Iterator{h: h, upTo: upTo}
}

// Next returns the next row. The returned slice is reused across calls;
// callers that retain rows must copy. Returns io.EOF when exhausted.
func (it *Iterator) Next() ([]datum.Datum, error) {
	if it.done {
		return nil, io.EOF
	}
	for {
		if it.page == nil {
			if it.pageNo >= it.h.pages {
				it.done = true
				return nil, io.EOF
			}
			pg, err := it.h.pool.Get(it.pageID())
			if err != nil {
				it.done = true
				return nil, err
			}
			it.page = pg
			if pg.Kind() == KindOverflow {
				it.nextPage()
				continue
			}
		}
		if it.slot >= it.page.NumTuples() {
			it.nextPage()
			continue
		}
		raw, err := it.page.Tuple(it.slot)
		if err != nil {
			it.fail()
			return nil, err
		}
		it.slot++
		if len(raw) == 0 {
			it.fail()
			return nil, fmt.Errorf("storage: empty slot")
		}
		image := raw[1:]
		if raw[0] == flagOverflow {
			image, err = it.h.readOverflow(raw[1:])
			if err != nil {
				it.fail()
				return nil, err
			}
		}
		it.rowBuf, err = DecodeTuplePrefix(image, it.h.types, it.upTo, it.rowBuf)
		if err != nil {
			it.fail()
			return nil, err
		}
		return it.rowBuf, nil
	}
}

func (it *Iterator) pageID() PageID { return PageID{File: it.h.fileID, PageNo: it.pageNo} }

// nextPage unpins the current page and moves to the start of the next.
func (it *Iterator) nextPage() {
	it.Release()
	it.pageNo++
	it.slot = 0
}

// fail ends the iteration after an error.
func (it *Iterator) fail() {
	it.Release()
	it.done = true
}

// Release unpins the current page, if any. The iterator keeps its
// position: the next Next pins the page again and resumes at the
// following tuple. Safe to call any number of times.
func (it *Iterator) Release() {
	if it.page != nil {
		it.h.pool.Release(it.pageID())
		it.page = nil
	}
}

// readOverflow reassembles an overflow tuple from its descriptor.
func (h *HeapFile) readOverflow(desc []byte) ([]byte, error) {
	total, n := binary.Uvarint(desc)
	if n <= 0 || len(desc) < n+4 {
		return nil, fmt.Errorf("storage: corrupt overflow descriptor")
	}
	start := binary.LittleEndian.Uint32(desc[n:])
	payload := make([]byte, 0, total)
	for pageNo := start; uint64(len(payload)) < total; pageNo++ {
		id := PageID{File: h.fileID, PageNo: pageNo}
		pg, err := h.pool.Get(id)
		if err != nil {
			return nil, err
		}
		if pg.Kind() != KindOverflow {
			h.pool.Release(id)
			return nil, fmt.Errorf("storage: overflow chain hit a %d page", pg.Kind())
		}
		take := uint64(OverflowCap)
		if rem := total - uint64(len(payload)); rem < take {
			take = rem
		}
		payload = append(payload, pg.OverflowPayload()[:take]...)
		h.pool.Release(id)
	}
	return payload, nil
}
