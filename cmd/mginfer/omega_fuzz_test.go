package main

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// FuzzReadOmegaFile holds the ω-file parser to its contract on any bytes:
// a typed error — a *lineError or errNoOmega — or a list of finite ω, one
// per ω line, never a panic. The committed seeds are comments, blank
// lines, NaN and Inf components, the wrong number of components, and a
// line over 64 KiB.
func FuzzReadOmegaFile(f *testing.F) {
	f.Add([]byte("# comment\n\n0.1,0.2,0.3,0.4\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ws, err := parseOmegas(strings.NewReader(string(data)), "fuzz.txt")
		if err != nil {
			var le *lineError
			if !errors.As(err, &le) && !errors.Is(err, errNoOmega) {
				t.Fatalf("untyped error %v", err)
			}
			if ws != nil {
				t.Fatalf("error %v with %d ω", err, len(ws))
			}
			return
		}
		if len(ws) == 0 || len(ws) > strings.Count(string(data), "\n")+1 {
			t.Fatalf("%d ω from %d lines", len(ws), strings.Count(string(data), "\n")+1)
		}
		for _, w := range ws {
			for i, v := range w {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("component %d of %v is not finite", i, w)
				}
			}
		}
	})
}

// A line over 64 KiB is a *lineError naming its line, not a bare scanner
// error, and a file of comments wraps errNoOmega.
func TestParseOmegasTypedErrors(t *testing.T) {
	long := "0.1,0.2,0.3,0.4\n# " + strings.Repeat("x", 70<<10) + "\n"
	_, err := parseOmegas(strings.NewReader(long), "w.txt")
	var le *lineError
	if !errors.As(err, &le) || le.line != 2 || !strings.HasPrefix(err.Error(), "w.txt:2: ") {
		t.Fatalf("long line: %v", err)
	}
	if _, err := parseOmegas(strings.NewReader("# c\n\n"), "w.txt"); !errors.Is(err, errNoOmega) {
		t.Fatalf("comments only: %v", err)
	}
}
