package graph

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mpress/internal/tensor"
)

// The reference implementations below are the original map-based
// adjacency and sorted-frontier Kahn sort. The CSR adjacency, the heap
// sort and the counting-pass liveness must reproduce them exactly.

// refEdges builds every op's predecessor list with one map per op.
func refEdges(ops []Op, numTensors int) [][]OpID {
	prod := make([]OpID, numTensors)
	for i := range prod {
		prod[i] = -1
	}
	for i := range ops {
		for _, out := range ops[i].Outputs {
			prod[out] = ops[i].ID
		}
	}
	preds := make([][]OpID, len(ops))
	for i := range ops {
		op := &ops[i]
		seen := make(map[OpID]bool, len(op.Deps)+len(op.Inputs))
		add := func(p OpID) {
			if p >= 0 && p != op.ID && !seen[p] {
				seen[p] = true
				preds[i] = append(preds[i], p)
			}
		}
		for _, d := range op.Deps {
			add(d)
		}
		for _, in := range op.Inputs {
			add(prod[in])
		}
		sort.Slice(preds[i], func(a, b int) bool { return preds[i][a] < preds[i][b] })
	}
	return preds
}

// refTopoOrder is Kahn's algorithm over a sorted-slice frontier.
func refTopoOrder(ops []Op, numTensors int) ([]OpID, error) {
	preds := refEdges(ops, numTensors)
	indeg := make([]int, len(ops))
	succs := make([][]OpID, len(ops))
	for i, ps := range preds {
		indeg[i] = len(ps)
		for _, p := range ps {
			succs[p] = append(succs[p], OpID(i))
		}
	}
	var frontier []OpID
	push := func(id OpID) {
		i := sort.Search(len(frontier), func(j int) bool { return frontier[j] > id })
		frontier = append(frontier, 0)
		copy(frontier[i+1:], frontier[i:])
		frontier[i] = id
	}
	for i := range ops {
		if indeg[i] == 0 {
			frontier = append(frontier, OpID(i))
		}
	}
	order := make([]OpID, 0, len(ops))
	for len(frontier) > 0 {
		id := frontier[0]
		frontier = frontier[1:]
		order = append(order, id)
		for _, s := range succs[id] {
			indeg[s]--
			if indeg[s] == 0 {
				push(s)
			}
		}
	}
	if len(order) != len(ops) {
		var remaining []OpID
		for i, d := range indeg {
			if d > 0 {
				remaining = append(remaining, OpID(i))
			}
		}
		return nil, &CycleError{Remaining: remaining}
	}
	return order, nil
}

// refAnalyze is live-variable analysis with an explicit per-tensor sort.
func refAnalyze(ops []Op, numTensors int, order []OpID) *Liveness {
	l := &Liveness{Def: make([]int, numTensors), Uses: make([][]Use, numTensors)}
	for i := range l.Def {
		l.Def[i] = -1
	}
	for i, id := range order {
		op := &ops[id]
		for _, out := range op.Outputs {
			if l.Def[out] == -1 {
				l.Def[out] = i
			}
		}
		for _, in := range op.Inputs {
			l.Uses[in] = append(l.Uses[in], Use{Op: id, Index: i})
		}
	}
	for t := range l.Uses {
		sort.Slice(l.Uses[t], func(a, b int) bool { return l.Uses[t][a].Index < l.Uses[t][b].Index })
	}
	return l
}

// byteSource turns fuzz input into bounded choices; exhausted input
// reads as zeros, so every byte string describes a graph.
type byteSource struct {
	data []byte
	pos  int
}

func (s *byteSource) intn(n int) int {
	if n <= 1 {
		return 0
	}
	var v int
	if s.pos < len(s.data) {
		v = int(s.data[s.pos])
		s.pos++
	}
	return v % n
}

// randomDAG builds a base graph from src: deps only point to lower IDs
// (duplicates included, some duplicating a dataflow edge), inputs may
// have no producer, and besides the single-producer forwards there are
// Recompute and SwapIn re-producers. A re-producer becomes the producer
// every consumer of its tensor waits on, so a base can still be cyclic.
func randomDAG(src *byteSource) *Graph {
	g := New(nil)
	nt := 1 + src.intn(12)
	ts := make([]tensor.ID, nt)
	for i := range ts {
		ts[i] = g.Tensors.Add(tensor.Tensor{Name: "t", Class: tensor.Activation, Size: 8})
	}
	produced := make([]OpID, nt)
	for i := range produced {
		produced[i] = -1
	}
	n := 1 + src.intn(24)
	for i := 0; i < n; i++ {
		op := Op{Name: "op", Kind: Forward}
		for k := src.intn(4); k > 0 && i > 0; k-- {
			op.Deps = append(op.Deps, OpID(src.intn(i)))
		}
		for k := src.intn(4); k > 0; k-- {
			t := src.intn(nt)
			op.Inputs = append(op.Inputs, ts[t])
			if p := produced[t]; p >= 0 && src.intn(3) == 0 {
				op.Deps = append(op.Deps, p) // duplicates the dataflow edge
			}
		}
		if t := src.intn(nt + 1); t < nt {
			switch {
			case produced[t] < 0:
				op.Outputs = []tensor.ID{ts[t]}
				produced[t] = OpID(i)
			case src.intn(2) == 0:
				op.Kind = Recompute
				op.Outputs = []tensor.ID{ts[t]}
				op.Deps = append(op.Deps, produced[t])
				produced[t] = OpID(i)
			default:
				op.Kind = SwapIn
				op.Outputs = []tensor.ID{ts[t]}
				op.Deps = append(op.Deps, produced[t])
				produced[t] = OpID(i)
			}
		}
		g.AddOp(op)
	}
	return g
}

// addDeps adds arbitrary extra deps to g (which may close a cycle).
func addDeps(g *Graph, src *byteSource) {
	for k := src.intn(3); k > 0; k-- {
		a, b := OpID(src.intn(g.Len())), OpID(src.intn(g.Len()))
		if a != b {
			g.AddDep(a, b)
		}
	}
}

// assertMatchesReference compares every derived view of g against the
// reference implementations.
func assertMatchesReference(t *testing.T, g *Graph, what string) {
	t.Helper()
	ops, nt := g.Ops(), g.Tensors.Len()
	ref := refEdges(ops, nt)
	for i := range ops {
		got := g.Preds(OpID(i))
		if !slices.Equal(got, ref[i]) {
			t.Fatalf("%s: Preds(%d) = %v, reference %v", what, i, got, ref[i])
		}
	}
	// Successor rows in dispatch order: releasing ops first, each group
	// ascending.
	succs := make([][]OpID, len(ops))
	for _, releasing := range [2]bool{true, false} {
		for i := range ops {
			if (ops[i].Kind == Drop || ops[i].Kind == SwapOut) != releasing {
				continue
			}
			for _, p := range ref[i] {
				succs[p] = append(succs[p], OpID(i))
			}
		}
	}
	for p := range ops {
		if got := g.Succs(OpID(p)); len(got)+len(succs[p]) > 0 && !slices.Equal(got, succs[p]) {
			t.Fatalf("%s: Succs(%d) = %v, reference %v", what, p, got, succs[p])
		}
	}
	wantOrder, wantErr := refTopoOrder(ops, nt)
	order, err := g.TopoOrder()
	if wantErr != nil {
		var got *CycleError
		if !errors.As(err, &got) || !reflect.DeepEqual(got, wantErr) {
			t.Fatalf("%s: TopoOrder error %v, reference %v", what, err, wantErr)
		}
		return
	}
	if err != nil || !reflect.DeepEqual(order, wantOrder) {
		t.Fatalf("%s: TopoOrder = %v (%v), reference %v", what, order, err, wantOrder)
	}
	if got, want := g.Analyze(order), refAnalyze(ops, nt, wantOrder); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Analyze = %+v, reference %+v", what, got, want)
	}
	live, err := g.Liveness()
	if err != nil || !reflect.DeepEqual(live, refAnalyze(ops, nt, wantOrder)) {
		t.Fatalf("%s: Liveness differs from the reference (%v)", what, err)
	}
}

// checkEquivalence builds a random graph from data and checks it, then
// again after extra deps re-derive its cached views, and once frozen.
func checkEquivalence(t *testing.T, data []byte) {
	src := &byteSource{data: data}
	g := randomDAG(src)
	assertMatchesReference(t, g, "graph")
	addDeps(g, src)
	assertMatchesReference(t, g, "graph with extra deps")
	if err := g.Freeze(); err != nil {
		var cyc *CycleError
		if !errors.As(err, &cyc) {
			t.Fatalf("random graph is invalid: %v", err)
		}
		return // the reference check above covered the cycle
	}
	assertMatchesReference(t, g, "frozen graph")
}

// TestGraphEquivalence runs the reference comparison over many random
// graphs.
func TestGraphEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(256))
		rng.Read(data)
		checkEquivalence(t, data)
	}
}

// FuzzGraphOrder: for any byte-described graph, with extra deps and
// frozen, the CSR adjacency, heap order and liveness equal the
// reference ones.
func FuzzGraphOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 9, 3, 1, 0, 2, 7, 7, 1, 4, 2, 2, 0, 1, 3, 3, 3})
	f.Add([]byte{11, 23, 3, 0, 1, 2, 3, 0, 0, 1, 1, 2, 2, 3, 3, 0, 1, 2, 9, 9, 9, 1, 2, 1, 2, 1, 2})
	f.Fuzz(checkEquivalence)
}
