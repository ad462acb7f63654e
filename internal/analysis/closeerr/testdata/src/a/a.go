// Package a exercises the closeerr analyzer: resources left open at
// error returns are flagged; defers, explicit error-path closes, Open-
// failure returns and custody transfers stay quiet.
package a

import "os"

type source struct{}

func (s *source) Open() error        { return nil }
func (s *source) Next() (int, error) { return 0, nil }
func (s *source) Close() error       { return nil }

func newSource() (*source, error) { return &source{}, nil }
func work() error                 { return nil }

// leak forgets the close on the mid-function error return.
func leak() error {
	src, err := newSource()
	if err != nil {
		return err // creation failed: nothing to close
	}
	if err := work(); err != nil {
		return err // want `src may be open at this error return`
	}
	return src.Close()
}

// deferred covers every exit: clean.
func deferred() error {
	src, err := newSource()
	if err != nil {
		return err
	}
	defer src.Close()
	return work()
}

// closes releases on the error path explicitly: clean.
func closes() error {
	src, err := newSource()
	if err != nil {
		return err
	}
	if err := work(); err != nil {
		src.Close()
		return err
	}
	return src.Close()
}

// openGuard follows the engine convention: an Open failure owes no
// Close, and the defer is registered only after Open succeeds.
func openGuard() error {
	src, err := newSource()
	if err != nil {
		return err
	}
	if err := src.Open(); err != nil {
		return err
	}
	defer src.Close()
	return work()
}

// custodyReturn hands the resource to the caller: exempt.
func custodyReturn() (*source, error) {
	src, err := newSource()
	if err != nil {
		return nil, err
	}
	if err := src.Open(); err != nil {
		return nil, err
	}
	return src, nil
}

type holder struct{ src *source }

// adopt stores the resource in a field: custody moves to the holder.
func (h *holder) adopt() error {
	src, err := newSource()
	if err != nil {
		return err
	}
	h.src = src
	if err := work(); err != nil {
		return err
	}
	return nil
}

// useParam operates on a caller-owned resource: never flagged.
func useParam(src *source) error {
	if err := work(); err != nil {
		return err
	}
	return src.Close()
}

// fileLeak: os.File is the most common leak shape in the engine.
func fileLeak(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := work(); err != nil {
		return err // want `f may be open at this error return`
	}
	return f.Close()
}

type iter interface {
	Next() (int, error)
	Close() error
}

func newIter() (iter, error) { return nil, nil }

// ifaceLeak: interface-typed resources (Operator, Rows) count too.
func ifaceLeak() error {
	it, err := newIter()
	if err != nil {
		return err
	}
	if err := work(); err != nil {
		return err // want `it may be open at this error return`
	}
	return it.Close()
}

// drain closes in the loop's error arm and in the final return: clean.
func drain() (int, error) {
	src, err := newSource()
	if err != nil {
		return 0, err
	}
	total := 0
	for {
		n, err := src.Next()
		if err != nil {
			src.Close()
			return 0, err
		}
		if n == 0 {
			break
		}
		total += n
	}
	return total, src.Close()
}
