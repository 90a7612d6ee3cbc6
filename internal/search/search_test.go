package search

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mpress/internal/chaos"
	"mpress/internal/ckpt"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/runner"
	"mpress/internal/units"
)

func testBase(t *testing.T) runner.Config {
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

// smallSpace is the cheap-but-real space the package tests search:
// three systems, two stage counts (one the plane default alias), both
// partition strategies.
func smallSpace() Space {
	return Space{
		Systems:     []runner.System{runner.SystemMPress, runner.SystemRecompute, runner.SystemPlain},
		StageCounts: []int{0, 8, 4},
		Partitions:  []pipeline.Strategy{pipeline.ComputeBalanced, pipeline.MemoryBalanced},
	}
}

// canonical renders everything byte-comparable about a result: the
// report plus the JSON with the wall clock (the only
// nondeterministic field) zeroed.
func canonical(t *testing.T, r *Result) []byte {
	t.Helper()
	cp := *r
	cp.Wall = 0
	var buf bytes.Buffer
	WriteReport(&buf, &cp)
	js, err := json.MarshalIndent(&cp, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(js)
	return buf.Bytes()
}

// pool is a fresh runner of the given worker count: each search's
// wave size.
func pool(workers int) *runner.Runner { return runner.New(runner.Options{Workers: workers}) }

func run(t *testing.T, base runner.Config, sp Space, o Options) *Result {
	t.Helper()
	r, err := Run(context.Background(), base, sp, o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The core determinism contract: winner, counters and the whole
// rendered report are byte-identical at every worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	base := testBase(t)
	r1 := run(t, base, smallSpace(), Options{Runner: pool(1)})
	r8 := run(t, base, smallSpace(), Options{Runner: pool(8)})
	b1, b8 := canonical(t, r1), canonical(t, r8)
	if !bytes.Equal(b1, b8) {
		t.Fatalf("results differ between workers 1 and 8:\n--- w1 ---\n%s\n--- w8 ---\n%s", b1, b8)
	}
	if r1.Best() == nil {
		t.Fatal("no winner on a feasible space")
	}
	if r1.Expanded == 0 {
		t.Fatal("nothing expanded")
	}
}

// Branch-and-bound must be exhaustive-equivalent: full enumeration
// (pruning disabled) finds the same winner, and no evaluated
// candidate anywhere beats it.
func TestPruningSoundVsFullEnumeration(t *testing.T) {
	base := testBase(t)
	pruned := run(t, base, smallSpace(), Options{Runner: pool(2)})
	full := run(t, base, smallSpace(), Options{Runner: pool(2), FullEnum: true})
	if full.Pruned != 0 {
		t.Fatalf("full enumeration pruned %d", full.Pruned)
	}
	pb, fb := pruned.Best(), full.Best()
	if pb == nil || fb == nil {
		t.Fatal("missing winner")
	}
	if pb.Key != fb.Key || pb.TimeToFit != fb.TimeToFit {
		t.Fatalf("winners differ: pruned %v (%v) vs full %v (%v)",
			pb.Key, pb.TimeToFit, fb.Key, fb.TimeToFit)
	}
	for i := range full.Candidates {
		c := &full.Candidates[i]
		if c.Eval != nil && c.TimeToFit < fb.TimeToFit {
			t.Fatalf("candidate %v beats the winner: %v < %v", c.Key, c.TimeToFit, fb.TimeToFit)
		}
	}
	if pruned.Pruned == 0 {
		t.Log("note: bound pruned nothing on this space")
	}
}

// The static bound must hold for every candidate that was actually
// simulated: bound ≤ measured time-to-fit.
func TestBoundBelowMeasured(t *testing.T) {
	base := testBase(t)
	full := run(t, base, smallSpace(), Options{Runner: pool(2), FullEnum: true})
	checked := 0
	for i := range full.Candidates {
		c := &full.Candidates[i]
		if c.Outcome != OutcomeEvaluated || c.Eval.OOM {
			continue
		}
		checked++
		if c.Bound > c.TimeToFit {
			t.Errorf("unsound bound for %v: bound %v > measured %v", c.Key, c.Bound, c.TimeToFit)
		}
	}
	if checked == 0 {
		t.Fatal("no evaluated candidates to check")
	}
}

// stages=0 (plane default) must alias into the explicit plane-sized
// stage count through NewJob normalization — a transposition hit, not
// a second simulation.
func TestNormalizationAliasesMemoize(t *testing.T) {
	base := testBase(t)
	sp := Space{
		Systems:     []runner.System{runner.SystemRecompute},
		StageCounts: []int{0, 8},
	}
	r := run(t, base, sp, Options{Runner: pool(1)})
	if r.MemoHits != 1 || r.Expanded != 1 {
		t.Fatalf("expanded %d, memo hits %d; want 1 and 1", r.Expanded, r.MemoHits)
	}
	if r.Candidates[0].Fingerprint != r.Candidates[1].Fingerprint {
		t.Fatalf("aliases have different fingerprints: %q vs %q",
			r.Candidates[0].Fingerprint, r.Candidates[1].Fingerprint)
	}
}

// A warm transposition table turns every evaluation into a memo hit
// and leaves the winner unchanged.
func TestWarmTableServesEverything(t *testing.T) {
	base := testBase(t)
	table := NewMemTable()
	cold := run(t, base, smallSpace(), Options{Runner: pool(2), Table: table})
	warm := run(t, base, smallSpace(), Options{Runner: pool(2), Table: table})
	if warm.Expanded != 0 {
		t.Fatalf("warm search expanded %d", warm.Expanded)
	}
	if warm.MemoHits == 0 {
		t.Fatal("warm search hit nothing")
	}
	cb, wb := cold.Best(), warm.Best()
	if cb == nil || wb == nil || cb.Key != wb.Key || cb.TimeToFit != wb.TimeToFit {
		t.Fatalf("warm winner differs: %+v vs %+v", cb, wb)
	}
	if warm.WinnerReport == nil {
		t.Fatal("warm search must materialize the winner report")
	}
}

// Infeasible grids and partitions become typed skip reasons in the
// result — never a panic, never an aborted search.
func TestInfeasibleCandidatesSkipTyped(t *testing.T) {
	base := testBase(t)
	sp := Space{
		Systems:     []runner.System{runner.SystemMPress},
		TPDegrees:   []int{1, 3, 16}, // 3 and 16 cannot shard 8 GPUs
		StageCounts: []int{0, 64, 6}, // 64 > 24 model layers; 6 is fine
	}
	r := run(t, base, sp, Options{Runner: pool(2)})
	if r.Best() == nil {
		t.Fatal("feasible candidates exist; want a winner")
	}
	byReason := map[SkipReason]int{}
	for i := range r.Candidates {
		c := &r.Candidates[i]
		if c.Outcome == OutcomeSkipped || c.Outcome == OutcomeInfeasible {
			if c.SkipReason == "" || c.Detail == "" {
				t.Fatalf("untyped skip: %+v", c)
			}
			byReason[c.SkipReason]++
		}
	}
	if byReason[SkipGrid] == 0 {
		t.Fatalf("no grid skips: %v", byReason)
	}
	if byReason[SkipPartition] == 0 {
		t.Fatalf("no partition skips: %v", byReason)
	}
	if r.Skipped != byReason[SkipGrid]+byReason[SkipConfig]+byReason[SkipPartition]+byReason[SkipRuntime] {
		t.Fatalf("skip counter %d does not match buckets %v", r.Skipped, byReason)
	}
	var buf bytes.Buffer
	WriteReport(&buf, r)
	out := buf.String()
	for _, want := range []string{"[grid]", "[partition]", "skipped:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TP with a resilient base is a config skip (the runner rejects the
// combination), and the checkpoint axis lowers into distinct
// candidates.
func TestResilientBaseAxes(t *testing.T) {
	base := testBase(t)
	base.Faults = &chaos.Config{Seed: 7, MTBF: units.Seconds(400)}
	base.Checkpoint = &ckpt.Policy{Interval: units.Seconds(120)}
	sp := Space{
		Systems:       []runner.System{runner.SystemMPress},
		TPDegrees:     []int{1, 2},
		CheckpointsNS: []int64{CkptInherit, 0},
	}
	r := run(t, base, sp, Options{Runner: pool(2)})
	best := r.Best()
	if best == nil {
		t.Fatal("no winner")
	}
	if best.Key.CheckpointNS < 0 {
		t.Fatalf("resilient winner lost its checkpoint policy: %+v", best.Key)
	}
	cfgSkips := 0
	for i := range r.Candidates {
		if r.Candidates[i].SkipReason == SkipConfig {
			cfgSkips++
		}
	}
	if cfgSkips != 2 { // tp=2 × both checkpoint values
		t.Fatalf("config skips = %d, want 2", cfgSkips)
	}
	if r.WinnerReport == nil || r.WinnerReport.Goodput <= 0 {
		t.Fatalf("resilient winner report lacks goodput: %+v", r.WinnerReport)
	}
}

// An empty space searches exactly the base strategy.
func TestEmptySpaceIsBaseOnly(t *testing.T) {
	base := testBase(t)
	r := run(t, base, Space{}, Options{Runner: pool(1)})
	if len(r.Candidates) != 1 || r.Expanded != 1 {
		t.Fatalf("candidates %d expanded %d; want 1 and 1", len(r.Candidates), r.Expanded)
	}
	best := r.Best()
	if best == nil || best.Key.System != runner.SystemMPress || best.Key.Stages != 8 {
		t.Fatalf("winner %+v is not the defaulted base", best)
	}
}

// TestOversizeSpaceRejected: a space past the candidate bound is an
// error, never an allocation sized by its product — whether that
// product fits an int (StageCounts × Partitions of 3M each, 9×10¹²)
// or overflows one (four axes of 60,000, ~1.3×10¹⁹).
func TestOversizeSpaceRejected(t *testing.T) {
	base := testBase(t)
	axis := func(n int) []int { return make([]int, n) }
	big := Space{StageCounts: axis(3_000_000), Partitions: make([]pipeline.Strategy, 3_000_000)}
	overflow := Space{TPDegrees: axis(60_000), StageCounts: axis(60_000), Nodes: axis(60_000),
		CheckpointsNS: make([]int64, 60_000)}
	for name, sp := range map[string]Space{"9e12": big, "overflow": overflow} {
		_, err := Run(context.Background(), base, sp, Options{Runner: pool(1)})
		if err == nil || !strings.Contains(err.Error(), "over the limit") {
			t.Errorf("%s: err = %v, want the space-size limit", name, err)
		}
	}
	if got := overflow.Size(base); got != math.MaxInt {
		t.Errorf("overflowing Size = %d, want math.MaxInt", got)
	}
}
