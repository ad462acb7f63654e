package storage

import (
	"fmt"
	"io"
	"sync"
)

// Pool is a clock-replacement buffer pool shared by every heap file of a
// loaded database. It is safe for concurrent use: one mutex guards the
// frame table and clock hand (page reads happen under it too — a
// fine-grained per-frame latch would be the next step if load-first
// concurrency ever matters). Pinned frames are never evicted, so page
// bytes returned by Get stay valid until Release without holding the
// mutex.
type Pool struct {
	mu     sync.Mutex
	frames []frame
	lookup map[PageID]int
	hand   int
	files  map[uint32]io.ReaderAt
	nextID uint32
}

// PageID names a page within a registered file.
type PageID struct {
	File   uint32
	PageNo uint32
}

type frame struct {
	id    PageID
	page  Page
	used  bool // clock reference bit
	valid bool
	pins  int
}

// NewPool creates a pool with n frames (minimum 4).
func NewPool(n int) *Pool {
	if n < 4 {
		n = 4
	}
	return &Pool{
		frames: make([]frame, n),
		lookup: make(map[PageID]int, n),
		files:  make(map[uint32]io.ReaderAt),
	}
}

// Register adds an open file to the pool's file table, returning its id.
// Any positioned reader works; heap files pass handles opened through the
// iofault seam.
func (p *Pool) Register(f io.ReaderAt) uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.nextID
	p.nextID++
	p.files[id] = f
	return id
}

// Unregister forgets a file and invalidates its cached pages.
func (p *Pool) Unregister(id uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.files, id)
	for i := range p.frames {
		if p.frames[i].valid && p.frames[i].id.File == id {
			delete(p.lookup, p.frames[i].id)
			p.frames[i].valid = false
			p.frames[i].pins = 0
		}
	}
}

// Get pins the page and returns it. The caller must Release it.
func (p *Pool) Get(id PageID) (*Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i, ok := p.lookup[id]; ok {
		p.frames[i].used = true
		p.frames[i].pins++
		return &p.frames[i].page, nil
	}
	f, ok := p.files[id.File]
	if !ok {
		return nil, fmt.Errorf("storage: unknown file %d", id.File)
	}
	i, err := p.victim()
	if err != nil {
		return nil, err
	}
	fr := &p.frames[i]
	if fr.valid {
		delete(p.lookup, fr.id)
	}
	if _, err := f.ReadAt(fr.page.Bytes(), int64(id.PageNo)*PageSize); err != nil {
		fr.valid = false
		return nil, fmt.Errorf("storage: read page %v: %w", id, err)
	}
	fr.id = id
	fr.valid = true
	fr.used = true
	fr.pins = 1
	p.lookup[id] = i
	return &fr.page, nil
}

// Release unpins a page previously returned by Get.
func (p *Pool) Release(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i, ok := p.lookup[id]; ok && p.frames[i].pins > 0 {
		p.frames[i].pins--
	}
}

// victim runs the clock hand to find an unpinned frame.
func (p *Pool) victim() (int, error) {
	for spins := 0; spins < 2*len(p.frames); spins++ {
		fr := &p.frames[p.hand]
		i := p.hand
		p.hand = (p.hand + 1) % len(p.frames)
		if fr.pins > 0 {
			continue
		}
		if fr.used {
			fr.used = false
			continue
		}
		return i, nil
	}
	return 0, fmt.Errorf("storage: buffer pool exhausted (all %d frames pinned)", len(p.frames))
}
