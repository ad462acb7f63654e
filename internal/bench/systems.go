package bench

import (
	"time"
)

// Closed-source comparator calibration.
//
// Figures 7 and 8 compare PostgresRaw against MySQL and a commercial
// "DBMS X". Both are closed systems we cannot re-implement faithfully; the
// paper itself only uses them as "another loaded row store, slower/faster
// than PostgreSQL". So this repository measures the real loaded engine
// (internal/storage, standing in for PostgreSQL) and derives the
// comparators by the relative factors the paper reports:
//
//   - PostgreSQL is "53% slower than DBMS X" in pure query time (§5.1.4)
//     => DBMS X query time = PostgreSQL / 1.53.
//   - MySQL's queries trail PostgreSQL's in Fig 8 => factor 1.25.
//   - Load times in Fig 7 show MySQL ≈ 2.7x and DBMS X ≈ 1.35x the
//     PostgreSQL load bar.
//
// The external-files systems (MySQL CSV engine, DBMS X external tables)
// are NOT calibrated — they are real implementations: the CSV engine is
// the engine's full-reparse straw-man mode, and "DBMS X w/ external files"
// literally bulk-loads into a temporary heap per query, which is what
// external tables cost on systems that materialize them.
const (
	dbmsXQueryFactor = 1.0 / 1.53
	dbmsXLoadFactor  = 1.35
	mysqlQueryFactor = 1.25
	mysqlLoadFactor  = 2.7
)

// scaleDur applies a calibration factor to a measured duration.
func scaleDur(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
