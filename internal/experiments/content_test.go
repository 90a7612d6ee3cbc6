package experiments

import (
	"bytes"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// outputs holds each experiment's table once it has run, so the content
// tests and TestRunAll share one run of every experiment.
var outputs = map[string]string{}

// capture runs one experiment, or reuses its earlier run, and returns
// its table text.
func capture(t *testing.T, name string) string {
	t.Helper()
	if out, ok := outputs[name]; ok {
		return out
	}
	e, err := Registry.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf); err != nil {
		t.Fatal(err)
	}
	outputs[name] = buf.String()
	return buf.String()
}

// cells returns the last n whitespace-separated fields of the table row
// starting with prefix.
func cells(t *testing.T, out, prefix string, n int) []string {
	t.Helper()
	fields := strings.Fields(row(t, out, prefix))
	if len(fields) < n {
		t.Fatalf("row %q has fewer than %d cells", prefix, n)
	}
	return fields[len(fields)-n:]
}

// number parses a numeric table cell.
func number(t *testing.T, cell string) float64 {
	t.Helper()
	var v float64
	if _, err := fmtSscan(cell, &v); err != nil {
		t.Fatalf("cell %q is not a number", cell)
	}
	return v
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

// TestFigure7Content holds the ✓ claims of EXPERIMENTS.md's Figure 7
// section (Bert atop PipeDream on DGX-1; cells are PipeDream, GPU-CPU
// swap, Recompute, MPress-D2D, MPress):
//   - "0.35B: all five identical": every cell of the row prints the
//     same TFLOPS, exactly;
//   - "0.64B crossover": plain PipeDream is OOM; swap < recompute <
//     MPress-D2D ≤ MPress, and MPress-D2D is within 5% of MPress;
//   - "1.67B: D2D-only dies …; MPress > recompute": exactly PipeDream
//     and MPress-D2D are OOM, and MPress beats recompute by any margin;
//   - "4.0B/6.2B: … only swap and MPress survive": exactly the swap and
//     MPress cells train.
//
// The MPress-over-swap factor (1.2–1.3× against the paper's 1.8–3.1×)
// is a documented gap and is not asserted.
func TestFigure7Content(t *testing.T) {
	out := capture(t, "fig7")
	const plain, swap, recompute, d2d, mpress = 0, 1, 2, 3, 4
	trains := func(size string, want ...int) []string {
		t.Helper()
		c := cells(t, out, size, 5)
		for i, v := range c {
			if oom := v == "OOM"; oom == slices.Contains(want, i) {
				t.Errorf("%s: cell %d is %q, want exactly cells %v to train", size, i, v, want)
			}
		}
		return c
	}
	if c := trains("0.35B", plain, swap, recompute, d2d, mpress); slices.ContainsFunc(c, func(v string) bool { return v != c[0] }) {
		t.Errorf("0.35B: cells %v, want all five identical", c)
	}
	if c := trains("0.64B", swap, recompute, d2d, mpress); !t.Failed() {
		sw, rc, dd, mp := number(t, c[swap]), number(t, c[recompute]), number(t, c[d2d]), number(t, c[mpress])
		if !(sw < rc && rc < dd && dd <= mp) {
			t.Errorf("0.64B: want swap < recompute < MPress-D2D <= MPress, got %v", c[1:])
		}
		if dd < 0.95*mp {
			t.Errorf("0.64B: MPress-D2D %.1f is not within 5%% of MPress %.1f", dd, mp)
		}
	}
	if c := trains("1.67B", swap, recompute, mpress); !t.Failed() {
		if rc, mp := number(t, c[recompute]), number(t, c[mpress]); mp <= rc {
			t.Errorf("1.67B: MPress %.1f does not beat recompute %.1f", mp, rc)
		}
	}
	trains("4.0B", swap, mpress)
	trains("6.2B", swap, mpress)
}

// TestFigure8bContent holds the ✓ claims of EXPERIMENTS.md's Figure 8b
// section (GPT atop DAPPLE on DGX-2; cells are DAPPLE, +Recomp,
// ZeRO-Offload, ZeRO-Infinity, MPress):
//   - "all systems >2× their DGX-1 numbers": DAPPLE, +Recomp, Offload
//     and MPress each print more than twice their Fig. 8a cell at every
//     size both figures train. ZeRO-Infinity reaches only 1.66×, which
//     EXPERIMENTS.md records as a gap (the slow SSDs), not asserted;
//   - "the rented server's slow SSDs invert ZeRO-Infinity below
//     ZeRO-Offload": at 20.4B, Infinity < Offload < MPress.
func TestFigure8bContent(t *testing.T) {
	dgx1, dgx2 := capture(t, "fig8a"), capture(t, "fig8b")
	for _, size := range []string{"5.3B", "10.3B", "15.4B", "20.4B"} {
		a, b := cells(t, dgx1, size, 5), cells(t, dgx2, size, 5)
		names := []string{"DAPPLE", "+Recomp", "ZeRO-Offload", "ZeRO-Infinity", "MPress"}
		for _, i := range []int{0, 1, 2, 4} { // not ZeRO-Infinity, the gap
			if a[i] == "OOM" || b[i] == "OOM" {
				continue
			}
			if x, y := number(t, a[i]), number(t, b[i]); y <= 2*x {
				t.Errorf("%s %s: DGX-2 %.1f is not more than 2x DGX-1 %.1f", size, names[i], y, x)
			}
		}
	}

	line := row(t, dgx2, "20.4B")
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

// TestFigure8aContent holds the ✓ claims of EXPERIMENTS.md's Figure 8a
// section (GPT atop DAPPLE on DGX-1; cells are DAPPLE, +Recomp,
// ZeRO-Offload, ZeRO-Infinity, MPress):
//   - "DAPPLE dies past 5.3B": DAPPLE trains 5.3B and is OOM at every
//     larger size, exactly;
//   - "recompute extends to 10.3B": DAPPLE+Recomp trains 10.3B, exactly;
//   - "Infinity > Offload": ZeRO-Infinity beats ZeRO-Offload in every
//     row, by any margin (measured 2.5–2.9%; the paper's 21–24% is a
//     documented gap);
//   - "MPress … beats ZeRO-Infinity by 23–38%": MPress beats ZeRO-Infinity
//     in every row by at least 15%.
func TestFigure8aContent(t *testing.T) {
	out := capture(t, "fig8a")
	sizes := []string{"5.3B", "10.3B", "15.4B", "20.4B"}
	for i, size := range sizes {
		c := cells(t, out, size, 5)
		if oom := c[0] == "OOM"; oom != (i > 0) {
			t.Errorf("%s: DAPPLE cell %q, want OOM exactly past 5.3B", size, c[0])
		}
		if size == "10.3B" && c[1] == "OOM" {
			t.Errorf("10.3B: DAPPLE+Recomp is OOM, want it to train")
		}
		off, inf, mp := number(t, c[2]), number(t, c[3]), number(t, c[4])
		if inf <= off {
			t.Errorf("%s: ZeRO-Infinity %.1f does not beat ZeRO-Offload %.1f", size, inf, off)
		}
		if mp < 1.15*inf {
			t.Errorf("%s: MPress %.1f beats ZeRO-Infinity %.1f by less than 15%%", size, mp, inf)
		}
	}
}

// TestFigure9Content holds the ✓ claims of EXPERIMENTS.md's Figure 9
// section (cells are normalized TFLOPS and mean D2D restore time):
//   - "mapping+striping cut it 2.6× on DGX-1": DGX-1's "both" cuts the
//     mean D2D restore time at least 2× against "default";
//   - "On the symmetric DGX-2, mapping is neutral": every DGX-2 setting
//     prints normalized TFLOPS 1.000, exactly.
func TestFigure9Content(t *testing.T) {
	out := capture(t, "fig9")
	restore := func(prefix string) time.Duration {
		t.Helper()
		d, err := time.ParseDuration(cells(t, out, prefix, 1)[0])
		if err != nil {
			t.Fatalf("%s: %v", prefix, err)
		}
		return d
	}
	def, both := restore("DGX-1 (asymmetric)  default"), restore("DGX-1 (asymmetric)  both")
	if both <= 0 || 2*both > def {
		t.Errorf("DGX-1: mapping+striping restores in %v against %v by default, want at least 2x faster", both, def)
	}
	for _, setting := range []string{"default", "+device mapping", "+data striping", "both"} {
		prefix := "DGX-2 (symmetric)   " + setting
		if c := cells(t, out, prefix, 2)[0]; c != "1.000" {
			t.Errorf("%s: normalized TFLOPS %s, want 1.000", prefix, c)
		}
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
