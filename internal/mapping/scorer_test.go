package mapping

import (
	"errors"
	"maps"
	"math"
	"slices"
	"testing"

	"mpress/internal/grid"
	"mpress/internal/hw"
	"mpress/internal/units"
)

// evaluate scores one assignment of the given per-stage overflow and
// spare with a freshly built scorer.
func evaluate(topo *hw.Topology, mapping []hw.DeviceID, overflow, spareOf []units.Bytes) (units.Bytes, units.Duration, float64) {
	sc, err := newScorer(topo, nil)
	if err != nil {
		panic(err)
	}
	sc.overflow, sc.spareOf = overflow, spareOf
	return sc.score(mapping)
}

// equivalenceTopologies are the servers FuzzMappingEquivalence picks
// from: the two paper testbeds, DGX-1 degraded both ways, a TP=2
// plane of DGX-1, and a direct topology whose zero lane budget leaves
// no NVLink pair usable.
func equivalenceTopologies(t testing.TB) []*hw.Topology {
	noGPU, err := hw.DGX1().WithoutGPU(3)
	if err != nil {
		t.Fatal(err)
	}
	noLink, err := hw.DGX1().WithoutNVLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	laneless := &hw.Topology{
		Name:    "laneless",
		GPU:     hw.V100(),
		NumGPUs: 4,
		NVLinkLanes: [][]int{
			{0, 2, 1, 0},
			{2, 0, 0, 1},
			{1, 0, 0, 2},
			{0, 1, 2, 0},
		},
		NVLinkLaneBW:  units.GBps(25),
		NVLinkLatency: 10 * units.Microsecond,
		PCIeBW:        units.GBps(12),
	}
	topos := []*hw.Topology{
		hw.DGX1(), noGPU, noLink, hw.DGX2(),
		grid.MustNew(hw.DGX1(), 1, 2).Plane(),
		laneless,
	}
	for _, topo := range topos {
		if err := topo.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return topos
}

// FuzzMappingEquivalence holds Search and Identity to the brute-force
// reference: every result field but Elapsed must match exactly, errors
// included. topoSel picks the server; each byte of raw is one stage's
// demand in 1/128ths of GPU memory, so stages range from idle to
// twice the capacity.
func FuzzMappingEquivalence(f *testing.F) {
	topos := equivalenceTopologies(f)
	f.Fuzz(func(t *testing.T, topoSel uint8, raw []byte) {
		if len(raw) > 9 {
			raw = raw[:9]
		}
		topo := topos[int(topoSel)%len(topos)]
		demands := make([]units.Bytes, len(raw))
		for s, b := range raw {
			demands[s] = topo.GPU.Memory / 128 * units.Bytes(b)
		}
		want, wantErr := referenceSearch(topo, demands)
		got, err := Search(topo, demands)
		sameResult(t, "Search", got, err, want, wantErr)

		want, wantErr = referenceIdentity(topo, demands)
		got, err = Identity(topo, demands)
		sameResult(t, "Identity", got, err, want, wantErr)
	})
}

// referenceIdentity scores the identity mapping the way
// referenceSearch's no-search path does, whether or not anything
// overflows.
func referenceIdentity(topo *hw.Topology, demands []units.Bytes) (*Result, error) {
	S := len(demands)
	if S > topo.NumGPUs {
		return nil, &InfeasibleError{Stages: S, GPUs: topo.NumGPUs}
	}
	overflow := make([]units.Bytes, S)
	spareOf := make([]units.Bytes, S)
	identity := make([]hw.DeviceID, S)
	r := &Result{Mapping: identity, NoOverflow: true, Searched: 1}
	for s, d := range demands {
		identity[s] = hw.DeviceID(s)
		if cap := topo.GPU.Memory; d > cap {
			overflow[s] = d - cap
			r.NoOverflow = false
		} else if free := cap - d; free > SpareMargin {
			spareOf[s] = free - SpareMargin
		}
	}
	r.Spare = referenceSpareUnder(topo, identity, spareOf)
	r.Placed, r.MaxTime, r.Score = referenceEvaluate(topo, identity, overflow, spareOf)
	return r, nil
}

// sameResult fails t unless got matches want in every field but
// Elapsed, and the two errors match.
func sameResult(t *testing.T, what string, got *Result, err error, want *Result, wantErr error) {
	t.Helper()
	if wantErr != nil || err != nil {
		var gotInf, wantInf *InfeasibleError
		if !errors.As(err, &gotInf) || !errors.As(wantErr, &wantInf) || *gotInf != *wantInf {
			t.Fatalf("%s: err = %v, reference %v", what, err, wantErr)
		}
		return
	}
	if !slices.Equal(got.Mapping, want.Mapping) {
		t.Errorf("%s: Mapping = %v, reference %v", what, got.Mapping, want.Mapping)
	}
	if !maps.Equal(got.Spare, want.Spare) {
		t.Errorf("%s: Spare = %v, reference %v", what, got.Spare, want.Spare)
	}
	if got.Placed != want.Placed || got.MaxTime != want.MaxTime {
		t.Errorf("%s: Placed, MaxTime = %v, %v; reference %v, %v", what, got.Placed, got.MaxTime, want.Placed, want.MaxTime)
	}
	if math.Float64bits(got.Score) != math.Float64bits(want.Score) {
		t.Errorf("%s: Score = %v, reference %v", what, got.Score, want.Score)
	}
	if got.NoOverflow != want.NoOverflow || got.Searched != want.Searched {
		t.Errorf("%s: NoOverflow, Searched = %v, %d; reference %v, %d", what, got.NoOverflow, got.Searched, want.NoOverflow, want.Searched)
	}
}

// TestScorerZeroAllocs pins the hot path: scoring one assignment
// allocates nothing.
func TestScorerZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	topo := hw.DGX1()
	sc, err := newScorer(topo, demandsFor(topo, 6))
	if err != nil {
		t.Fatal(err)
	}
	perm := []hw.DeviceID{7, 2, 5, 0, 3, 6, 1, 4}
	var placed units.Bytes
	if allocs := testing.AllocsPerRun(100, func() { placed, _, _ = sc.score(perm) }); allocs != 0 {
		t.Errorf("score allocates %.1f times per call, want 0", allocs)
	}
	if placed == 0 {
		t.Error("the pinned assignment places nothing; pick one that exercises the fill")
	}
}

// benchResult keeps BenchmarkMappingSearch's call from being optimized
// away.
var benchResult *Result

// BenchmarkMappingSearch is one full 8! walk on DGX-1 with the Fig. 2
// demand shape.
func BenchmarkMappingSearch(b *testing.B) {
	topo := hw.DGX1()
	demands := demandsFor(topo, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Search(topo, demands)
		if err != nil {
			b.Fatal(err)
		}
		benchResult = r
	}
}
