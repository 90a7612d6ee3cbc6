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
//     ZeRO-Offload": at 20.4B, Infinity < Offload < MPress;
//   - "Recompute reaches 15.4B thanks to the 40 GB cards": DAPPLE+Recomp
//     trains 5.3B–15.4B and is OOM at 20.4B and 25.5B, exactly.
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

	// "Recompute reaches 15.4B": +Recomp trains every size up to 15.4B
	// and none past it, exactly.
	for i, size := range []string{"5.3B", "10.3B", "15.4B", "20.4B", "25.5B"} {
		if oom := cells(t, dgx2, size, 5)[1] == "OOM"; oom != (i > 2) {
			t.Errorf("%s: DGX-2 +Recomp OOM %v, want it to train exactly up to 15.4B", size, oom)
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
//     in every row by at least 15%;
//   - "ZeRO sustains all sizes": neither ZeRO cell is OOM in any row.
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
		if c[2] == "OOM" || c[3] == "OOM" {
			t.Errorf("%s: ZeRO-Offload %s, ZeRO-Infinity %s; want both to train", size, c[2], c[3])
			continue
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

// TestFigure2Content holds the ✓ claims of EXPERIMENTS.md's Figure 2
// section (GiB per GPU, g0–g7, then max/min):
//   - "monotonically decreasing": in both rows each GPU's demand is no
//     more than the one before, exactly;
//   - "up to 7.9× between the most and least used GPU": PipeDream's
//     g0/g7 is at least 5× (measured 7.4×), and the printed max/min
//     agrees with the cells to within its one decimal.
func TestFigure2Content(t *testing.T) {
	out := capture(t, "fig2")
	for _, prefix := range []string{"PipeDream bs=2", "DAPPLE bs=12"} {
		c := cells(t, out, prefix, 9)
		gib := make([]float64, 8)
		for i := range gib {
			gib[i] = number(t, c[i])
			if i > 0 && gib[i] > gib[i-1] {
				t.Errorf("%s: g%d %.1f GiB exceeds g%d %.1f GiB", prefix, i, gib[i], i-1, gib[i-1])
			}
		}
		ratio := number(t, strings.TrimSuffix(c[8], "x"))
		if r := gib[0] / gib[7]; r < ratio-0.1 || r > ratio+0.1 {
			t.Errorf("%s: max/min prints %.1fx, the cells give %.2fx", prefix, ratio, r)
		}
		if prefix == "PipeDream bs=2" && ratio < 5 {
			t.Errorf("%s: max/min %.1fx, want at least 5x", prefix, ratio)
		}
	}
}

// TestTableIContent holds the ✓ claim of EXPERIMENTS.md's Table I
// section (shares of activations, optimizer states, params+grads):
//   - "parameters+gradients are the smallest class": in the GPT-5.3B
//     row, params+grads is below both other shares, by any margin. The
//     Bert-0.64B row is a documented gap (fp32 Adam puts optimizer
//     states below params+grads there) and is not asserted.
func TestTableIContent(t *testing.T) {
	c := cells(t, capture(t, "table1"), "GPT-5.3B", 3)
	share := make([]float64, 3)
	for i := range share {
		share[i] = number(t, strings.TrimSuffix(c[i], "%"))
	}
	if act, opt, pg := share[0], share[1], share[2]; pg >= act || pg >= opt {
		t.Errorf("GPT-5.3B: params+grads %v%% is not below activations %v%% and optimizer states %v%%", pg, act, opt)
	}
}

// TestGraceContent holds the ✓ claims of EXPERIMENTS.md's Sec. V
// Grace-Hopper section:
//   - "plain pipeline OOMs ✓ (8.1×)": the plain pipeline is OOM with a
//     demand at least 8× the module's HBM;
//   - "3.5× the 64 GB/s NVLink-C2C ✓": the bandwidth that hides the swap
//     is at least 3× C2C's, printed and recomputed from the cells to
//     within 0.1×;
//   - "recompute-only wastes 25% of compute ✓ (exact)": 25%, exactly.
func TestGraceContent(t *testing.T) {
	out := capture(t, "grace")
	m := regexp.MustCompile(`OOM \(demand ([0-9.]+)x of HBM\)`).FindStringSubmatch(row(t, out, "plain pipeline"))
	if m == nil || number(t, m[1]) < 8 {
		t.Errorf("plain pipeline: %q, want OOM at 8x HBM or more", row(t, out, "plain pipeline"))
	}
	shortfall := number(t, strings.TrimSuffix(cells(t, out, "C2C shortfall", 1)[0], "x"))
	need := number(t, strings.TrimSuffix(strings.Fields(row(t, out, "bandwidth to fully hide swap"))[5], "GB/s"))
	c2c := number(t, strings.TrimSuffix(cells(t, out, "C2C bandwidth", 1)[0], "GB/s"))
	if r := need / c2c; shortfall < 3 || r < shortfall-0.1 || r > shortfall+0.1 {
		t.Errorf("C2C shortfall prints %.1fx, the cells give %.2fx; want at least 3x", shortfall, r)
	}
	if c := strings.Fields(row(t, out, "recompute-only wasted compute"))[3]; c != "25%" {
		t.Errorf("recompute-only wastes %s of compute, want 25%%", c)
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
