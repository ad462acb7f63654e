package nodbdriver

import (
	"errors"
	"strings"
	"testing"

	"nodb"
)

// TestParseDSNErrors: every malformed DSN must come back as a typed
// ErrBadDSN — never a panic, never an untyped string-only error.
func TestParseDSNErrors(t *testing.T) {
	cases := []struct {
		name string
		dsn  string
		want string // substring of the error detail
	}{
		{"bare word", "schemafoo", "not key=value"},
		{"empty schema value", "schema=", "empty value"},
		{"empty mode value", "schema=s.nodb;mode=", "empty value"},
		{"unknown mode", "schema=s.nodb;mode=warp", "unknown mode"},
		{"unknown key", "schema=s.nodb;turbo=on", "unknown key"},
		{"missing schema", "mode=pm", "schema=PATH"},
		{"empty dsn", "", "schema=PATH"},
		{"bad parallelism", "schema=s.nodb;parallelism=lots", "parallelism"},
		{"bad pm-budget", "schema=s.nodb;pm-budget=1e9", "pm-budget"},
		{"bad cache-budget", "schema=s.nodb;cache-budget=much", "cache-budget"},
		{"bad stats", "schema=s.nodb;stats=maybe", "stats"},
		{"bad sidecar", "schema=s.nodb;sidecar=perhaps", "sidecar"},
		{"bad sidecar-max-bytes", "schema=s.nodb;sidecar-max-bytes=lots", "sidecar-max-bytes"},
		{"garbage separators", ";;=;schema=s.nodb", "empty value"},
		{"load-first mode", "schema=s.nodb;mode=load-first", "unknown mode"},
		{"data-dir key", "schema=s.nodb;data-dir=/tmp/heap", "unknown key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseDSN(tc.dsn)
			if err == nil {
				t.Fatalf("parseDSN(%q) succeeded, want error", tc.dsn)
			}
			if !errors.Is(err, ErrBadDSN) {
				t.Errorf("parseDSN(%q) error %q is not ErrBadDSN", tc.dsn, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("parseDSN(%q) error %q does not mention %q", tc.dsn, err, tc.want)
			}
		})
	}
}

// TestParseDSNValid: well-formed DSNs map onto the engine options, with
// semicolons, spaces, and mixed separators all accepted.
func TestParseDSNValid(t *testing.T) {
	cfg, err := parseDSN("schema=/data/w.nodb; mode=pm parallelism=4\tpm-budget=1048576 cache-budget=2097152;stats=off;dir=/data;sidecar=on;sidecar-dir=/tmp/aux;sidecar-max-bytes=4096")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.schema != "/data/w.nodb" || cfg.dir != "/data" {
		t.Errorf("schema/dir = %q/%q", cfg.schema, cfg.dir)
	}
	want := nodb.Options{
		Mode: nodb.ModePM, Parallelism: 4,
		PositionalMapBudget: 1 << 20, CacheBudget: 2 << 20,
		DisableStatistics: true,
		Sidecar:           nodb.SidecarOptions{Enable: true, Dir: "/tmp/aux", MaxBytes: 4096},
	}
	if cfg.opts != want {
		t.Errorf("opts = %+v, want %+v", cfg.opts, want)
	}

	// dir defaults to the schema file's directory.
	cfg, err = parseDSN("schema=/data/w.nodb")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.dir != "/data" {
		t.Errorf("default dir = %q, want /data", cfg.dir)
	}
	if cfg.opts.Mode != nodb.ModePMCache {
		t.Errorf("default mode = %v, want ModePMCache", cfg.opts.Mode)
	}

	// Keys are case-insensitive; mode aliases resolve.
	for dsn, mode := range map[string]nodb.Mode{
		"SCHEMA=s.nodb;MODE=pmcache":        nodb.ModePMCache,
		"schema=s.nodb;mode=external":       nodb.ModeExternalFiles,
		"schema=s.nodb;mode=cache":          nodb.ModeCache,
		"schema=s.nodb;mode=External-Files": nodb.ModeExternalFiles,
	} {
		cfg, err := parseDSN(dsn)
		if err != nil {
			t.Errorf("parseDSN(%q): %v", dsn, err)
			continue
		}
		if cfg.opts.Mode != mode {
			t.Errorf("parseDSN(%q) mode = %v, want %v", dsn, cfg.opts.Mode, mode)
		}
	}
}

// TestOpenBadDSNTyped: the typed error must survive the database/sql
// plumbing end to end.
func TestOpenBadDSNTyped(t *testing.T) {
	d := &Driver{}
	if _, err := d.Open("schema=s.nodb;turbo=on"); !errors.Is(err, ErrBadDSN) {
		t.Errorf("Driver.Open error %v is not ErrBadDSN", err)
	}
	if _, err := d.OpenConnector("no-equals-here"); !errors.Is(err, ErrBadDSN) {
		t.Errorf("OpenConnector error %v is not ErrBadDSN", err)
	}
}
