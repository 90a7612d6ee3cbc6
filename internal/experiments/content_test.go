package experiments

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// capture runs one experiment and returns its table text.
func capture(t *testing.T, name string) string {
	t.Helper()
	e, err := Registry.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// row extracts the first table line starting with the given prefix.
func row(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("no row starting with %q in:\n%s", prefix, out)
	return ""
}

// TestFigure7Content pins the figure's OOM cells in the rendered table.
func TestFigure7Content(t *testing.T) {
	out := capture(t, "fig7")
	if oom := strings.Count(row(t, out, "0.35B"), "OOM"); oom != 0 {
		t.Error("0.35B must train everywhere")
	}
	if oom := strings.Count(row(t, out, "4.0B"), "OOM"); oom != 3 {
		t.Errorf("4.0B row should show exactly 3 OOMs:\n%s", row(t, out, "4.0B"))
	}
	if oom := strings.Count(row(t, out, "1.67B"), "OOM"); oom != 2 {
		t.Errorf("1.67B row should show exactly 2 OOMs (plain + D2D-only):\n%s", row(t, out, "1.67B"))
	}
}

// TestFigure8bContent pins the slow-SSD inversion in the rendered table.
func TestFigure8bContent(t *testing.T) {
	out := capture(t, "fig8b")
	line := row(t, out, "20.4B")
	fields := strings.Fields(line)
	// GPT size, DAPPLE, +Recomp, Offload, Infinity, MPress
	if len(fields) != 6 {
		t.Fatalf("unexpected row shape: %q", line)
	}
	var off, inf, mp float64
	if _, err := fmtSscan(fields[3], &off); err != nil {
		t.Fatalf("offload cell %q", fields[3])
	}
	if _, err := fmtSscan(fields[4], &inf); err != nil {
		t.Fatalf("infinity cell %q", fields[4])
	}
	if _, err := fmtSscan(fields[5], &mp); err != nil {
		t.Fatalf("mpress cell %q", fields[5])
	}
	if !(inf < off && off < mp) {
		t.Errorf("20.4B ordering broken: offload=%v infinity=%v mpress=%v", off, inf, mp)
	}
}

// TestFigure4Content pins the ratio columns at the largest size.
func TestFigure4Content(t *testing.T) {
	out := capture(t, "fig4")
	line := row(t, out, "1.00GiB")
	fields := strings.Fields(line)
	if len(fields) != 6 {
		t.Fatalf("row shape: %q", line)
	}
	var pcie, nv6 float64
	fmtSscan(fields[1], &pcie)
	fmtSscan(fields[5], &nv6)
	if r := nv6 / pcie; r < 11.5 || r > 13 {
		t.Errorf("NV6/PCIe at 1GiB = %.2f", r)
	}
}

// TestFigure1Content pins the diagram's qualitative features.
func TestFigure1Content(t *testing.T) {
	out := capture(t, "fig1")
	if !strings.Contains(out, "PipeDream (async=true)") ||
		!strings.Contains(out, "DAPPLE (async=false)") {
		t.Fatal("missing schedule sections")
	}
	// Worker curves exist and worker1's peak exceeds worker3's in
	// both sections.
	re := regexp.MustCompile(`worker(\d) \|.*\| peak ([0-9.]+)MiB`)
	matches := re.FindAllStringSubmatch(out, -1)
	if len(matches) != 6 {
		t.Fatalf("expected 6 worker curves, got %d", len(matches))
	}
	for block := 0; block < 2; block++ {
		var w1, w3 float64
		fmtSscan(matches[block*3][2], &w1)
		fmtSscan(matches[block*3+2][2], &w3)
		if w1 <= w3 {
			t.Errorf("block %d: worker1 peak %v must exceed worker3 %v", block, w1, w3)
		}
	}
}

// TestTableIVContent: D2D appears for Bert-1.67B with the paper's
// early-stage placement.
func TestTableIVContent(t *testing.T) {
	out := capture(t, "table4")
	var d2dLine string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Bert-1.67B") && strings.Contains(line, "D2D") {
			d2dLine = line
			break
		}
	}
	if d2dLine == "" {
		t.Fatalf("no D2D row for Bert-1.67B:\n%s", out)
	}
	if !strings.Contains(d2dLine, "stage 0-") {
		t.Errorf("D2D must start at stage 0: %q", d2dLine)
	}
}

func fmtSscan(s string, out *float64) (int, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	*out = v
	return 1, nil
}
