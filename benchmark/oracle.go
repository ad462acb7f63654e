package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"nodb"
)

// digest summarizes a result set so two executions can be compared without
// keeping rows: the row count, an order-insensitive hash of every
// non-float cell, and a weighted sum of the float cells. Floats are
// compared with a relative tolerance instead of bit-for-bit, so a later
// change that legitimately reorders a floating-point summation (parallel
// warm scans, typed vectors) does not read as a wrong answer.
type digest struct {
	Rows   int64
	Hash   uint64
	Floats float64
}

const (
	mixPrime  = 0x9E3779B97F4A7C15
	nullCell  = 0xA5A5A5A5A5A5A5A5
	floatCell = 0x5A5A5A5A5A5A5A5A
)

func mix(h, x uint64) uint64 {
	h ^= x
	h *= mixPrime
	return h ^ (h >> 29)
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// rowHasher accumulates the cells of one row; finish folds it into d.
type rowHasher struct {
	h uint64
	f float64
	j int
}

func (r *rowHasher) null()         { r.h = mix(r.h, nullCell); r.j++ }
func (r *rowHasher) int(v int64)   { r.h = mix(r.h, uint64(v)); r.j++ }
func (r *rowHasher) text(s string) { r.h = mix(r.h, hashString(s)); r.j++ }
func (r *rowHasher) float(v float64) {
	r.h = mix(r.h, floatCell)
	r.j++
	r.f += v * float64(r.j)
}

func (d *digest) finish(r *rowHasher) {
	d.Rows++
	d.Hash += mix(r.h, uint64(r.j))
	d.Floats += r.f
	*r = rowHasher{}
}

// addValues folds one engine row into the digest. Dates hash as their day
// number and bools as 0/1, matching what addJSON reconstructs from the
// server's NDJSON.
func (d *digest) addValues(vals []nodb.Value) {
	var r rowHasher
	for _, v := range vals {
		switch {
		case v.Null():
			r.null()
		case v.T == nodb.Float:
			r.float(v.Float())
		case v.T == nodb.Text:
			r.text(v.Text())
		default:
			r.int(v.Int())
		}
	}
	d.finish(&r)
}

// matches reports whether got equals the expected digest d.
func (d digest) matches(got digest) bool {
	if d.Rows != got.Rows || d.Hash != got.Hash {
		return false
	}
	tol := 1e-9 * math.Max(1, math.Abs(d.Floats))
	return math.Abs(d.Floats-got.Floats) <= tol
}

func (d digest) String() string {
	return fmt.Sprintf("rows=%d hash=%016x floats=%g", d.Rows, d.Hash, d.Floats)
}

// oracleOptions is the reference configuration results are checked
// against: no auxiliary state is kept (every query re-parses the raw file),
// and neither the vectorized pipeline nor the compiled kernels run, so the
// reference shares as little machinery with the measured paths as the
// engine allows.
func oracleOptions() nodb.Options {
	return nodb.Options{
		Mode:              nodb.ModeExternalFiles,
		DisableVectorized: true,
		DisableKernels:    true,
		Parallelism:       1,
	}
}

// drainDigest runs a query to completion and returns its digest and the
// time from the call to the first row.
func drainDigest(rows *nodb.Rows, start time.Time) (digest, time.Duration, error) {
	var d digest
	var first time.Duration
	for rows.Next() {
		if d.Rows == 0 {
			first = time.Since(start)
		}
		d.addValues(rows.Values())
	}
	if d.Rows == 0 {
		first = time.Since(start)
	}
	return d, first, rows.Err()
}

// queryDigest is drainDigest over a one-shot query.
func queryDigest(db *nodb.DB, sql string, args ...any) (digest, error) {
	start := time.Now()
	rows, err := db.QueryContext(context.Background(), sql, args...)
	if err != nil {
		return digest{}, err
	}
	d, _, err := drainDigest(rows, start)
	return d, err
}
