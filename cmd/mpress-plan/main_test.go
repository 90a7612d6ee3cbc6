package main

import (
	"bytes"
	"io"
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
	m, err := model.BertVariants.Lookup("0.64B")
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
	for _, sys := range runner.Systems.Names() {
		t.Run(sys, func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run([]string{"-model", "bert-0.64B", "-topo", "dgx1-nvme", "-system", sys}, &out, &errOut)
			if code != 0 && code != 3 {
				t.Fatalf("exit %d, want 0 or 3; stderr:\n%s", code, errOut.String())
			}
			s, err := runner.Systems.Lookup(sys)
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

// Flags a planless system cannot honour, and flags the chosen mode
// would ignore (-auto runs no single job, -workers only sizes -auto,
// -force only overrides -load's job check), fail with a message before
// anything runs.
func TestRunRejectsPlanlessFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-auto", "-trace", "t.json"},
		{"-auto", "-gantt"},
		{"-auto", "-load", "p.json"},
		{"-auto", "-force"},
		{"-auto", "-remote", "http://127.0.0.1:1"},
		{"-workers", "2"},
		{"-force"},
		{"-force", "-save", "p.json"},
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

// Model, topology, schedule and system names all resolve under one
// rule: case is ignored and spaces trimmed, so an upper-case family
// plans exactly the job its lower-case spelling does. Unknown names
// fail naming the valid ones.
func TestRunModelNames(t *testing.T) {
	var want, errOut bytes.Buffer
	if code := run([]string{"-model", "bert-1.67B"}, &want, &errOut); code != 0 {
		t.Fatalf("bert-1.67B: exit %d: %s", code, errOut.String())
	}
	for _, args := range [][]string{
		{"-model", "BERT-1.67B"},
		{"-model", " Bert-1.67b ", "-topo", "DGX1", "-schedule", " PipeDream", "-system", "MPress"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 || out.String() != want.String() {
			t.Errorf("%v: exit %d, output differs from bert-1.67B's: %s", args, code, errOut.String())
		}
	}
	for args, msg := range map[string]string{
		"resnet-50": `mpress: unknown family "resnet" (valid names: bert, gpt)`,
		"gpt-1.67B": `model: unknown GPT variant "1.67B" (valid names: 5.3B, 10.3B, 15.4B, 20.4B, 25.5B)`,
		"bert":      `model: unknown Bert variant "" (valid names: 0.35B, 0.64B, 1.67B, 4.0B, 6.2B)`,
	} {
		errOut.Reset()
		if code := run([]string{"-model", args}, io.Discard, &errOut); code != 1 || !strings.Contains(errOut.String(), msg) {
			t.Errorf("-model %s: exit %d, stderr %q; want exit 1 with %q", args, code, errOut.String(), msg)
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
