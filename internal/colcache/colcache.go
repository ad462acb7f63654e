// Package colcache is the binary-cache view (paper §4.3) of a table's
// chunk directory (internal/chunkdir): parsed values kept in binary form
// (typed arrays with present and NULL bitmaps, sparse where selective
// parsing converted only qualifying tuples), so later queries skip the raw
// file. Eviction is LRU over whole columns, preferring among the oldest
// the column cheapest to re-convert. Scans go through a View.
package colcache

import (
	"nodb/internal/chunkdir"
	"nodb/internal/datum"
)

// View is the scan-lifetime handle onto one cached column.
type View = chunkdir.View

// Cache is the binary column cache of one raw table.
type Cache struct{ d *chunkdir.Dir }

// New creates a cache with the given byte budget (<= 0 means unlimited).
func New(budget int64) *Cache { return Of(chunkdir.New(0, 0, budget)) }

// Of returns the cache view of d.
func Of(d *chunkdir.Dir) *Cache { return &Cache{d} }

// Bytes returns the accounted size of all cached columns.
func (c *Cache) Bytes() int64 { return c.d.CacheBytes() }

// Usage returns bytes/budget in [0,1]; 0 when the budget is unlimited.
func (c *Cache) Usage() float64 { return c.d.CacheUsage() }

// FullyCovers reports whether every row in [0, rows) of col is cached.
func (c *Cache) FullyCovers(col, rows int) bool { return c.d.FullyCovers(col, rows) }

// View returns a handle for col, caching it (subject to the budget) if
// absent.
func (c *Cache) View(col int, typ datum.Type) View { return c.d.View(col, typ) }

// ReadView returns a side-effect-free read handle for col.
func (c *Cache) ReadView(col int) View { return c.d.ReadView(col) }

// Absorb merges a partition shard into c at rowOffset (see
// chunkdir.Dir.Absorb). The shard must not be used afterwards.
func (c *Cache) Absorb(sh *Cache, rowOffset int) {
	if sh != nil {
		c.d.Absorb(sh.d, rowOffset)
	}
}
