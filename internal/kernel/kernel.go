// Package kernel is the query-shape kernel compiler: it turns the
// scan→filter→project shape of a resolved plan into fused, type-specialized
// batch closures that replace the generic expression-tree walk
// (expr.EvalBatch / expr.FilterBatch) and the Filter/Project operator hops
// of the vectorized executor.
//
// The design follows the code-generation line of work on raw data
// processing (Zhang, "Code Generation Techniques for Raw Data Processing"):
// the per-tuple interpretation tax — operator dispatch, expression-node
// dispatch, per-row callback indirection — is paid once at compile time
// instead of once per value. Where that work emits C source per query, this
// compiler composes pre-typed Go closures per query *shape*:
//
//   - A shape is an expression tree with every literal replaced by a slot:
//     "l_quantity < ?" and "l_quantity < 24" share one shape, so one
//     compiled program serves every execution of a parameterized statement
//     (and every statement that differs only in its constants).
//   - Programs are keyed by a normalized signature of the shape and cached
//     in an LRU (Cache) that the engine shares across sessions, alongside
//     the prepared-statement cache: a plan-skeleton rebind re-instantiates
//     kernels by extracting the new literals and calling the cached
//     program's prep stage — no recompilation.
//   - Instantiated kernels attach to the plan as expr.Kernel nodes: filters
//     ride the conjuncts pushed into scans, so the cache scan's selection
//     narrowing runs compiled; value programs ride aggregate arguments and
//     the outputs of the Fused operator (projection plus any residual
//     filter in one pass, replacing BatchFilter+BatchProject).
//
// Supported predicate shapes: Int/Float/Date/Text/Bool comparisons against
// literals, comparisons between two columns, BETWEEN, IN, IS [NOT] NULL
// and AND/OR compositions of those. Value shapes — arithmetic over
// columns, literals and nested arithmetic — compile to typed programs over
// []int64/[]float64 vectors (value.go): hash aggregation folds their
// vectors directly, projection materializes Datums from them, and a
// subtree they cannot express falls back per node to expr.EvalBatch.
// Everything else falls back to the interpreted tree — the compiled and
// interpreted paths are built to be byte-identical, and the equivalence
// suites enforce it.
package kernel

import (
	"container/list"
	"strings"
	"sync"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

// DefaultCacheSize is how many compiled programs the cache keeps when the
// engine does not override it.
const DefaultCacheSize = 256

// filterFn narrows a selection vector: it appends the live positions in
// [0,n) (or sel, when non-nil) where the predicate holds to buf, in
// ascending order. ok=false means the batch does not have the layout the
// kernel was compiled for (a column out of range or unfilled) and the
// caller must fall back to the interpreted tree.
//
//nodb:hotpath
type filterFn func(cols [][]datum.Datum, n int, sel []int, buf []int) ([]int, bool)

// program is one compiled shape: for predicates the literal-independent
// closures plus the prep stage that specializes them for one execution's
// literal values, for value shapes the instructions that instantiate types.
type program struct {
	nLits  int
	nFalls int
	filter func(lits []datum.Datum) filterFn // predicate shapes
	value  []vinstr                          // value shapes
}

// Cache is the engine-wide LRU of compiled programs, keyed by normalized
// shape signature. It is safe for concurrent use; cached programs are
// immutable and shared freely.
type Cache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	lru *list.List // of *cacheEntry; front = most recent

	hits, misses, evictions int64
}

type cacheEntry struct {
	key  string
	prog *program
}

// CacheStats is a point-in-time effectiveness snapshot of the program
// cache.
type CacheStats struct {
	Size                    int
	Hits, Misses, Evictions int64
}

// NewCache creates a program cache (capacity <= 0 uses DefaultCacheSize).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Cache{cap: capacity, m: make(map[string]*list.Element), lru: list.New()}
}

// Stats reports cache effectiveness (programs resident, lookup hits and
// misses since creation).
func (c *Cache) Stats() (size int, hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.hits, c.misses
}

// Snapshot reports cache effectiveness including evictions.
func (c *Cache) Snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Size: c.lru.Len(), Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// lookup returns the cached program for key, or compiles one shape via
// build and caches it. build runs outside the lock; a racing duplicate
// compile is harmless (programs are pure).
func (c *Cache) lookup(key string, build func() *program) *program {
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*cacheEntry).prog
	}
	c.misses++
	c.mu.Unlock()

	prog := build()
	if prog == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		return el.Value.(*cacheEntry).prog // racer compiled it first
	}
	c.m[key] = c.lru.PushFront(&cacheEntry{key: key, prog: prog})
	for c.lru.Len() > c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.m, tail.Value.(*cacheEntry).key)
		c.evictions++
	}
	return prog
}

// Predicate returns the conjunct wrapped with a compiled filter kernel when
// its shape is supported, e unchanged otherwise. The wrapped node keeps the
// interpreted tree for the row-at-a-time path and for structural walks.
func (c *Cache) Predicate(e expr.Expr) expr.Expr {
	if c == nil {
		return e
	}
	var sig strings.Builder
	var lits []datum.Datum
	st := &cstate{sig: &sig}
	if !analyzeFilter(e, st) {
		return e
	}
	lits = st.lits
	prog := c.lookup(sig.String(), func() *program {
		bst := &cstate{sig: &strings.Builder{}, build: true}
		prep, ok := compileFilter(e, bst)
		if !ok {
			return nil
		}
		return &program{nLits: bst.nlits, filter: wrapFilter(prep, bst.cols)}
	})
	if prog == nil || prog.filter == nil || prog.nLits != len(lits) {
		return e
	}
	return &expr.Kernel{E: e, Filter: prog.filter(lits)}
}

// Value returns e wrapped with a typed value program (expr.Kernel's
// EvalVec) when its shape compiles and this binding types, e unchanged
// otherwise. The program's scratch belongs to the returned node: bind one
// per operator instance, never share it across goroutines.
func (c *Cache) Value(e expr.Expr) expr.Expr {
	if c == nil {
		return e
	}
	if k, ok := e.(*expr.Kernel); ok {
		e = k.E
	}
	if !typedNode(e) {
		return e
	}
	st := &cstate{sig: &strings.Builder{}}
	st.sig.WriteString("v:")
	compileValue(e, st)
	prog := c.lookup(st.sig.String(), func() *program {
		bst := &cstate{sig: &strings.Builder{}, build: true}
		compileValue(e, bst)
		return &program{nLits: bst.nlits, nFalls: bst.nfalls, value: bst.prog}
	})
	if prog == nil || prog.value == nil || prog.nLits != len(st.lits) || prog.nFalls != len(st.falls) {
		return e
	}
	run, ok := instantiate(prog.value, st.lits, st.falls)
	if !ok {
		return e
	}
	return &expr.Kernel{E: e, EvalVec: run}
}
