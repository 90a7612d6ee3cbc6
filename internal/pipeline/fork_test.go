package pipeline

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"mpress/internal/graph"
	"mpress/internal/tensor"
)

// TestForkIsolation forks one frozen build from eight goroutines and
// instruments every fork differently: the base's op IDs, Deps and
// cached order must come out unchanged, and each fork must see only its
// own overlay. Under the race detector (make race) this also checks
// that forking a frozen graph only reads it.
func TestForkIsolation(t *testing.T) {
	b := smallBuild(t, PipeDream, 4, 2)
	if err := b.Graph.Freeze(); err != nil {
		t.Fatal(err)
	}
	snapshot := func(g *graph.Graph) []graph.Op {
		ops := slices.Clone(g.Ops())
		for i := range ops {
			ops[i].Deps = slices.Clone(ops[i].Deps)
		}
		return ops
	}
	wantOps := snapshot(b.Graph)
	order, err := b.Graph.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := slices.Clone(order)

	var acts []tensor.ID
	for t := 0; t < b.Graph.Tensors.Len(); t++ {
		if _, ok := b.RecomputeFLOPs(tensor.ID(t)); ok {
			acts = append(acts, tensor.ID(t))
		}
	}

	const workers = 8
	forks := make([]*Built, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := b.Fork()
			// Worker w instruments every workers-th activation from w,
			// alternating recomputation and host swap.
			for i := w; i < len(acts); i += workers {
				id := acts[i]
				k, _ := f.ActSlot(id)
				fw, bw := f.FwOp(k), f.BwOp(k)
				if (i/workers)%2 == 0 {
					flops, _ := f.RecomputeFLOPs(id)
					f.Graph.InstrumentRecompute(id, fw, bw, f.PrevOnStage(bw), flops)
				} else {
					f.Graph.InstrumentSwap(id, fw, bw, f.PrevOnStage(bw), "h2d")
				}
			}
			if err := f.Graph.Validate(); err != nil {
				errs[w] = err
				return
			}
			if _, err := f.Graph.Liveness(); err != nil {
				errs[w] = err
			}
			forks[w] = f
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("fork %d: %v", w, err)
		}
	}

	if got := snapshot(b.Graph); !reflect.DeepEqual(got, wantOps) {
		t.Fatal("instrumenting forks changed the base's ops")
	}
	if got, _ := b.Graph.TopoOrder(); !reflect.DeepEqual(got, wantOrder) {
		t.Fatal("instrumenting forks changed the base's cached order")
	}
	for w, f := range forks {
		overlay := 0
		for i := w; i < len(acts); i += workers {
			overlay += 2
		}
		if got := f.Graph.Len() - b.Graph.Len(); got != overlay {
			t.Errorf("fork %d has %d overlay ops, want %d", w, got, overlay)
		}
		for _, op := range f.Graph.Ops()[b.Graph.Len():] {
			switch op.Kind {
			case graph.Drop, graph.Recompute, graph.SwapOut, graph.SwapIn:
			default:
				t.Errorf("fork %d: unexpected overlay op %s", w, op.Name)
			}
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddOp on a frozen graph did not panic")
			}
		}()
		b.Graph.AddOp(graph.Op{Name: "late"})
	}()
}

// TestFreeRowsFollowTheirGraph: the free rows Freeze derives serve the
// graph they were derived for and its forks, and no other graph. A
// second Freeze keeps them; Freeze on a fork freezes the fork's own
// graph with rows of its own; and a fork of an unfrozen fork, which has
// no base, gets no rows and so derives its own.
func TestFreeRowsFollowTheirGraph(t *testing.T) {
	b := smallBuild(t, DAPPLE, 4, 2)
	if b.Frees() != nil {
		t.Fatal("an unfrozen build has free rows")
	}
	if err := b.Freeze(); err != nil {
		t.Fatal(err)
	}
	rows := b.Frees()
	if err := b.Freeze(); err != nil || rows == nil || b.Frees() != rows {
		t.Fatalf("refreezing: rows %p then %p (%v)", rows, b.Frees(), err)
	}
	f := b.Fork()
	if f.Frees() != rows {
		t.Fatal("a fork does not read its base's rows")
	}
	unfrozen := f.Fork()
	if unfrozen.Graph.Base() != nil || unfrozen.Frees() != nil {
		t.Fatal("a fork of an unfrozen fork reads rows derived for another graph")
	}
	if err := f.Freeze(); err != nil {
		t.Fatal(err)
	}
	if f.Fork().Graph.Base() != f.Graph {
		t.Fatal("Freeze on a fork left its graph unfrozen")
	}
	if f.Frees() == nil || f.Frees() == rows || b.Frees() != rows {
		t.Fatal("Freeze on a fork did not give it rows of its own")
	}
}
