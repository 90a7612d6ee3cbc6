package main

import (
	"bytes"
	"strings"
	"testing"
)

// Sizes resolve through the family's variant registry before any job
// runs: an unknown one is an exit-1 error naming the valid sizes, not
// a panic, and nothing reaches stdout.
func TestRunRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-family", "bert", "-sizes", "9.9B"},
			`mpress-sweep: model: unknown Bert variant "9.9B" (valid names: 0.35B, 0.64B, 1.67B, 4.0B, 6.2B)`},
		{[]string{"-family", "resnet"}, `mpress-sweep: mpress: unknown family "resnet" (valid names: bert, gpt)`},
		{[]string{"-systems", "plain,magic"}, `mpress-sweep: mpress: unknown system "magic"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 with %q", tc.args, code, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote to stdout before failing:\n%s", tc.args, stdout.String())
		}
	}
}

// Family, size and system names match case-insensitively after
// trimming; the CSV names them canonically.
func TestRunSmallSweep(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-quiet", "-family", " GPT", "-sizes", "5.3b", "-systems", "Plain, MPRESS", "-topo", "dgx2"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d CSV lines, want header + 2 rows:\n%s", len(lines), stdout.String())
	}
	for i, sys := range []string{"plain", "mpress"} {
		if want := "gpt,5.3B,"; !strings.HasPrefix(lines[i+1], want) {
			t.Errorf("row %d = %q, want prefix %q", i, lines[i+1], want)
		}
		if cells := strings.Split(lines[i+1], ","); cells[4] != sys || cells[5] != "2" {
			t.Errorf("row %d = %q, want system %s at the GPT default microbatch 2", i, lines[i+1], sys)
		}
	}
}
