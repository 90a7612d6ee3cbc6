package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunValidatesGridFirst: an invalid grid fails with exit 2 before
// anything reaches stdout — in text and JSON mode alike — while a
// valid TP degree prints the grid factorization.
func TestRunValidatesGridFirst(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		code     int
		emptyOut bool
		want     string
	}{
		{[]string{"-tp", "3"}, 2, true, ""},
		{[]string{"-json", "-tp", "3"}, 2, true, ""},
		{[]string{"-tp", "2"}, 0, false, "grid: world 8 = TP(2) × PP(4) × DP(1)\n"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr: %s)", tc.args, code, tc.code, stderr.String())
		}
		if tc.emptyOut && stdout.Len() != 0 {
			t.Errorf("%v: wrote %d bytes to stdout before failing:\n%s", tc.args, stdout.Len(), stdout.String())
		}
		if tc.code != 0 && !strings.Contains(stderr.String(), "mpress-topo: ") {
			t.Errorf("%v: stderr %q carries no error", tc.args, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("%v: stdout missing %q:\n%s", tc.args, tc.want, stdout.String())
		}
	}
}
