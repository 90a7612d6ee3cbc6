package plan

import (
	"bytes"
	"sync"
	"testing"

	"mpress/internal/hw"
	"mpress/internal/pipeline"
)

// saved renders a plan in its canonical file format.
func saved(t *testing.T, pl *Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pl.Save(&buf, "job"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBasisKeyedByPlane: one frozen lowering planned on a DGX-1 and on
// that DGX-1 with the GPU 0–1 NVLink down (same GPU count, same name
// prefix) gets a profile and a mapping of its own on each plane, and
// each plan equals the plan of a fresh lowering. Planning both planes
// again derives nothing new, and the plans stay equal.
func TestBasisKeyedByPlane(t *testing.T) {
	build := smallJob(t, pipeline.PipeDream)
	dgx1 := topoWithCapacity(capacityBetween(t, measure(t, build, hw.DGX1())))
	cut, err := dgx1.WithoutNVLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	frozen := mustBuild(t, build)
	if err := frozen.Freeze(); err != nil {
		t.Fatal(err)
	}
	shared := func() (*pipeline.Built, error) { return frozen, nil }

	var plans [][]byte
	for _, topo := range []*hw.Topology{dgx1, cut, dgx1, cut} {
		pl, err := Compute(Options{Topo: topo, Build: shared, Allowed: AllMechanisms()})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Compute(Options{Topo: topo, Build: build, Allowed: AllMechanisms()})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := saved(t, pl), saved(t, fresh); !bytes.Equal(got, want) {
			t.Fatalf("%s: plan off the shared lowering differs from a fresh lowering's:\n%s\nwant:\n%s", topo.Name, got, want)
		}
		plans = append(plans, saved(t, pl))
	}
	if bytes.Equal(plans[0], plans[1]) {
		t.Fatal("test setup: the downed link does not change the plan, so sharing a basis across the planes would pass unseen")
	}
	if n := frozen.Memoized(); n != 2 {
		t.Errorf("%d planner bases on the lowering, want 2 (one per plane)", n)
	}
	a, err := basisOf(frozen, dgx1, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := basisOf(frozen, cut, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.profile == b.profile || a.mapping == b.mapping {
		t.Error("the planes share a profile or a mapping")
	}
}

// TestBasisSharedConcurrently: plans of different systems computed at
// once off one frozen lowering (run it under -race) share its basis and
// each equals the plan of a fresh lowering; no plan's mapping aliases
// the basis's.
func TestBasisSharedConcurrently(t *testing.T) {
	build := smallJob(t, pipeline.PipeDream)
	topo := topoWithCapacity(capacityBetween(t, measure(t, build, hw.DGX1())))
	frozen := mustBuild(t, build)
	if err := frozen.Freeze(); err != nil {
		t.Fatal(err)
	}
	systems := []Allowed{AllMechanisms(), {Recompute: true}, {HostSwap: true}, {D2D: true}, AllMechanisms()}
	got := make([]*Plan, len(systems))
	errs := make([]error, len(systems))
	var wg sync.WaitGroup
	for i, allowed := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Compute(Options{Topo: topo, Allowed: allowed, Workers: 2,
				Build: func() (*pipeline.Built, error) { return frozen, nil }})
		}()
	}
	wg.Wait()
	bs, err := basisOf(frozen, topo, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, allowed := range systems {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := Compute(Options{Topo: topo, Build: build, Allowed: allowed})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved(t, got[i]), saved(t, want)) {
			t.Errorf("%+v: concurrent plan off the shared lowering differs from a fresh lowering's", allowed)
		}
		if &got[i].Mapping[0] == &bs.mapping.Mapping[0] {
			t.Errorf("%+v: the plan's mapping aliases the shared basis", allowed)
		}
	}
	if n := frozen.Memoized(); n != 1 {
		t.Errorf("%d planner bases on the lowering, want 1", n)
	}
}
