package main

import (
	"errors"
	"testing"

	"nodb"
)

// TestErrorLinePrefixesOnce: an error from the nodb API already names the
// program; any other error gets the prefix.
func TestErrorLinePrefixesOnce(t *testing.T) {
	_, err := nodb.ParseMode("load-first")
	if err == nil {
		t.Fatal("ParseMode accepted load-first")
	}
	if got, want := errorLine(err), `nodb: unknown mode "load-first"`; got != want {
		t.Errorf("errorLine(ParseMode error) = %q, want %q", got, want)
	}
	if got, want := errorLine(errors.New("open t.nodb: no such file")), "nodb: open t.nodb: no such file"; got != want {
		t.Errorf("errorLine(plain error) = %q, want %q", got, want)
	}
}
