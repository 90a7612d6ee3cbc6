package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/runner"
)

func autoBase(t *testing.T) runner.Config {
	t.Helper()
	m, err := model.BertVariant("0.64B")
	if err != nil {
		t.Fatal(err)
	}
	return runner.Config{
		Topology:       hw.DGX1(),
		Model:          m,
		Schedule:       pipeline.PipeDream,
		System:         runner.SystemMPress,
		MicrobatchSize: 12,
	}
}

// An infeasible -tp (3 does not divide an 8-GPU world) must surface in
// the -auto report as typed grid skips — never a panic — while the
// feasible axes still produce a winner and a plan.
func TestAutoInfeasibleTPIsTypedSkip(t *testing.T) {
	var buf bytes.Buffer
	res, err := runAuto(&buf, autoBase(t), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best() == nil {
		t.Fatal("feasible strategies exist; want a winner")
	}
	out := buf.String()
	for _, want := range []string{"[grid]", "skipped:", "chosen strategy:", "memory-saving plan:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	gridSkips := 0
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.SkipReason == "grid" {
			gridSkips++
			if c.Raw.TP != 3 {
				t.Fatalf("grid skip for unexpected TP %d: %+v", c.Raw.TP, c)
			}
		}
	}
	if gridSkips == 0 {
		t.Fatal("tp=3 produced no grid skips")
	}
}

// The -tp axis folds into the default space exactly once.
func TestAutoSpaceFoldsTPFlag(t *testing.T) {
	base := autoBase(t)
	sp := autoSpace(base, 2) // already in the default axis
	if got := len(sp.TPDegrees); got != 2 {
		t.Fatalf("tp=2 duplicated the axis: %v", sp.TPDegrees)
	}
	sp = autoSpace(base, 4)
	found := false
	for _, d := range sp.TPDegrees {
		if d == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("tp=4 missing from the axis: %v", sp.TPDegrees)
	}
}

// Every system runs through the command on a small job without a
// panic: the planless ones (plain, ZeRO) say they do not plan instead
// of printing one. DGX-1 with NVMe gives ZeRO-Infinity its swap tier.
func TestRunEverySystem(t *testing.T) {
	for _, sys := range runner.SystemNames() {
		t.Run(sys, func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run([]string{"-model", "bert-0.64B", "-topo", "dgx1-nvme", "-system", sys}, &out, &errOut)
			if code != 0 && code != 3 {
				t.Fatalf("exit %d, want 0 or 3; stderr:\n%s", code, errOut.String())
			}
			s, err := runner.LookupSystem(sys)
			if err != nil {
				t.Fatal(err)
			}
			want := "memory-saving plan:"
			if !s.Planned() {
				want = "does not plan"
			}
			if !strings.Contains(out.String(), want) {
				t.Fatalf("output missing %q:\n%s", want, out.String())
			}
		})
	}
}

// Flags a planless system cannot honour fail with a message, before
// anything runs.
func TestRunRejectsPlanlessFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-system", "plain", "-save", "p.json"},
		{"-system", "zero3", "-save", "p.json"},
		{"-system", "plain", "-load", "p.json"},
		{"-system", "zero3", "-trace", "t.json"},
		{"-system", "offload", "-gantt"},
	} {
		var out, errOut bytes.Buffer
		args = append([]string{"-model", "bert-0.64B"}, args...)
		if code := run(args, &out, &errOut); code != 1 || !strings.Contains(errOut.String(), "mpress-plan: ") {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 with a message", args, code, errOut.String())
		}
	}
}

// A plan saved by a tensor-parallel run loads back through the runner:
// the replay prints the same result and writes the same trace bytes.
func TestSaveLoadRoundTripTP(t *testing.T) {
	dir := t.TempDir()
	planFile := filepath.Join(dir, "plan.json")
	job := []string{"-model", "bert-1.67B", "-tp", "2"}
	runOK := func(extra ...string) string {
		t.Helper()
		var out, errOut bytes.Buffer
		if code := run(append(append([]string{}, job...), extra...), &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d; stderr:\n%s", extra, code, errOut.String())
		}
		return out.String()
	}
	saved := runOK("-save", planFile, "-trace", filepath.Join(dir, "saved.json"))
	loaded := runOK("-load", planFile, "-trace", filepath.Join(dir, "loaded.json"))
	if !strings.Contains(loaded, "loaded plan from") {
		t.Fatalf("-load did not load:\n%s", loaded)
	}
	result := func(out string) string {
		return out[strings.Index(out, "device mapping"):strings.Index(out, "trace written")]
	}
	if a, b := result(saved), result(loaded); a != b {
		t.Fatalf("replayed result differs:\n--- saved\n%s--- loaded\n%s", a, b)
	}
	a, err := os.ReadFile(filepath.Join(dir, "saved.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "loaded.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("traces differ: %d vs %d bytes", len(a), len(b))
	}
}
