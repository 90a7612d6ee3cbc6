package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestRunAll executes every registered experiment and checks each
// produces a non-trivial table (the exact values are asserted by the
// focused package tests; this guards the generators end to end).
func TestRunAll(t *testing.T) {
	for _, e := range Registry.Values() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			out := buf.String()
			if len(strings.Split(out, "\n")) < 4 {
				t.Fatalf("%s produced a degenerate table:\n%s", e.Name, out)
			}
			t.Logf("\n%s", out)
		})
	}
}

func TestRegistry(t *testing.T) {
	names := Registry.Names()
	want := []string{"table1", "table2", "table3", "table4", "fig1", "fig2",
		"fig4", "fig7", "fig8a", "fig8b", "fig9", "mapping-cost",
		"partition-ablation", "grace", "schedules", "scaling", "resilience",
		"tp", "capacity", "autosearch"}
	if len(names) != len(want) {
		t.Fatalf("registered %d experiments (%v), want %d", len(names), names, len(want))
	}
	for _, n := range want {
		if _, err := Registry.Lookup(n); err != nil {
			t.Error(err)
		}
	}
	if _, err := Registry.Lookup("nope"); err == nil {
		t.Error("bogus lookup succeeded")
	}
	for _, e := range Registry.Values() {
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.Name)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := newTable("A", "Blong")
	tb.add("x", "y")
	tb.addf("%d|%s", 42, "z")
	var buf bytes.Buffer
	tb.write(&buf)
	out := buf.String()
	for _, want := range []string{"A", "Blong", "42", "z", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

var _ io.Writer = (*bytes.Buffer)(nil)
