// Package graph implements the dataflow computation graph the MPress
// static pipeline operates on: typed operators connected by explicit
// dependency edges and by tensor produce/consume relations.
//
// The planner lowers a job into one such graph and freezes it. A plan's
// memory-saving operators (swap-out, swap-in, drop, recompute; paper
// Fig. 5, step 4) never enter it: they are an overlay of plain data
// the executor reads on top of the frozen graph (see exec.Overlay).
package graph

import (
	"fmt"
	"slices"

	"mpress/internal/tensor"
	"mpress/internal/units"
)

// OpKind identifies what an operator does.
type OpKind int

const (
	// Forward is a forward-pass compute operator.
	Forward OpKind = iota
	// Backward is a backward-pass compute operator.
	Backward
	// OptimizerStep applies gradients to parameters.
	OptimizerStep
	// Transfer moves a tensor between pipeline stages (activations
	// forward, gradients backward).
	Transfer
	// SwapOut evicts a tensor from GPU memory (to a peer GPU for D2D
	// swap or to host memory for GPU-CPU swap).
	SwapOut
	// SwapIn restores a previously swapped-out tensor.
	SwapIn
	// Drop releases an activation that will later be recomputed.
	Drop
	// Recompute re-runs a forward operator to regenerate a dropped
	// activation.
	Recompute
	// AllGather and ReduceScatter are the ZeRO-style collectives used
	// by the data-parallel baselines.
	AllGather
	ReduceScatter
	// Checkpoint, Failure and Recovery never appear in built graphs;
	// they label the resilience spans (snapshot transfers, injected
	// faults, rollback + restore) that internal/exec and
	// internal/runner add to traces.
	Checkpoint
	Failure
	Recovery
)

var opKindNames = [...]string{
	Forward:       "forward",
	Backward:      "backward",
	OptimizerStep: "optstep",
	Transfer:      "transfer",
	SwapOut:       "swapout",
	SwapIn:        "swapin",
	Drop:          "drop",
	Recompute:     "recompute",
	AllGather:     "allgather",
	ReduceScatter: "reducescatter",
	Checkpoint:    "checkpoint",
	Failure:       "failure",
	Recovery:      "recovery",
}

// String returns the lowercase kind name.
func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opKindNames) {
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
	return opKindNames[k]
}

// Compute reports whether the operator occupies a GPU compute stream
// (as opposed to a communication link or a pure bookkeeping action).
func (k OpKind) Compute() bool {
	switch k {
	case Forward, Backward, OptimizerStep, Recompute:
		return true
	}
	return false
}

// OpID identifies an operator within one Graph.
type OpID int

// Op is a node of the computation graph.
type Op struct {
	ID    OpID
	Name  string
	Kind  OpKind
	Stage int // pipeline stage executing the op
	Layer int // model layer index, -1 if not applicable
	// Microbatch the op belongs to, -1 for per-iteration ops
	// (optimizer step, persistent-state swaps).
	Microbatch int
	// FLOPs of compute work, zero for non-compute ops.
	FLOPs units.FLOPs
	// MoveBytes for transfer/swap ops: the amount of data moved.
	MoveBytes units.Bytes
	// Inputs and Outputs are tensors the op consumes and produces.
	Inputs  []tensor.ID
	Outputs []tensor.ID
	// Subject is the tensor a memory-saving op (SwapOut, SwapIn,
	// Drop, Recompute) acts on. It is only meaningful for those four
	// kinds, which a plan adds over a lowering (see exec.Overlay).
	Subject tensor.ID
	// Deps are explicit control dependencies in addition to dataflow.
	Deps []OpID
}

// Graph holds the operators and the tensor registry they refer to.
type Graph struct {
	Tensors *tensor.Registry
	ops     []Op

	// Derived views, each computed on first use: the adjacency (CSR
	// predecessor and successor lists), the topological order and the
	// liveness over that order. AddOp and AddDep drop all three.
	adj   *adjacency
	order []OpID
	live  *Liveness

	// frozen forbids mutation (see Freeze).
	frozen bool
}

// adjacency is the full dependency structure in compressed sparse row
// form: op i's predecessors are pred[predOff[i]:predOff[i+1]] (sorted,
// deduplicated) and its successors succ[succOff[i]:succOff[i+1]]
// (ascending).
type adjacency struct {
	predOff, succOff []int32
	pred, succ       []OpID
}

func (a *adjacency) preds(id OpID) []OpID {
	lo, hi := a.predOff[id], a.predOff[id+1]
	return a.pred[lo:hi:hi]
}

func (a *adjacency) succs(id OpID) []OpID {
	lo, hi := a.succOff[id], a.succOff[id+1]
	return a.succ[lo:hi:hi]
}

// New returns an empty graph backed by the given tensor registry. A nil
// registry is replaced by a fresh one.
func New(reg *tensor.Registry) *Graph {
	if reg == nil {
		reg = tensor.NewRegistry()
	}
	return &Graph{Tensors: reg}
}

// NewSized is New with room for ops ops, so a builder that knows its op
// count fills the op array without reallocating it.
func NewSized(reg *tensor.Registry, ops int) *Graph {
	g := New(reg)
	g.ops = make([]Op, 0, ops)
	return g
}

// mutate drops the derived views ahead of a structural change.
func (g *Graph) mutate() {
	if g.frozen {
		panic("graph: mutation of a frozen graph")
	}
	g.adj, g.order, g.live = nil, nil, nil
}

// AddOp appends op (ignoring op.ID) and returns the assigned ID. Its
// Deps are clipped, so a later AddDep reallocates them instead of
// writing into an array the caller may share (another graph's op, say).
func (g *Graph) AddOp(op Op) OpID {
	g.mutate()
	op.ID = OpID(len(g.ops))
	op.Deps = slices.Clip(op.Deps)
	g.ops = append(g.ops, op)
	return op.ID
}

// Op returns the operator with the given id.
func (g *Graph) Op(id OpID) *Op { return &g.ops[id] }

// Len returns the number of operators.
func (g *Graph) Len() int { return len(g.ops) }

// Ops returns all operators in ID order. The slice aliases internal
// storage; callers must not append to it.
func (g *Graph) Ops() []Op { return g.ops }

// AddDep records that op `after` must run after op `before`.
func (g *Graph) AddDep(after, before OpID) {
	if slices.Contains(g.ops[after].Deps, before) {
		return
	}
	g.mutate()
	g.ops[after].Deps = append(g.ops[after].Deps, before)
}

// Freeze validates g, computes every derived view (adjacency,
// topological order, liveness), and forbids further mutation: AddOp
// and AddDep panic on a frozen graph. A frozen graph is safe to read
// from many goroutines at once. Freezing an already frozen graph is a
// no-op that writes nothing, so a shared frozen graph may be handed to
// code that freezes what it is given.
func (g *Graph) Freeze() error {
	if g.frozen {
		return nil
	}
	if err := g.Validate(); err != nil {
		return err
	}
	if _, err := g.Liveness(); err != nil {
		return err
	}
	g.adjacency()
	g.frozen = true
	return nil
}

// adjacency returns the cached CSR adjacency, building it on first use.
// An op's predecessors are its explicit Deps plus the producers (the
// last op outputting each) of its input tensors, deduplicated and
// sorted; the executor counts them as unfinished dependencies. Each
// successor row lists memory-releasing ops (Drop, SwapOut) first, then
// the rest, each group ascending: the order the executor dispatches
// them in, so it reads rows in place.
func (g *Graph) adjacency() *adjacency {
	if g.adj != nil {
		return g.adj
	}
	n := len(g.ops)
	prod := make([]OpID, g.Tensors.Len())
	for i := range prod {
		prod[i] = -1
	}
	for i := range g.ops {
		for _, out := range g.ops[i].Outputs {
			prod[out] = OpID(i)
		}
	}
	a := &adjacency{predOff: make([]int32, n+1), succOff: make([]int32, n+1)}
	// seen[p] == i+1 once p is in op i's row.
	seen := make([]int32, n)
	for i := range g.ops {
		start := len(a.pred)
		op := &g.ops[i]
		stamp := int32(i + 1)
		add := func(p OpID) {
			if p >= 0 && p != op.ID && seen[p] != stamp {
				seen[p] = stamp
				a.pred = append(a.pred, p)
			}
		}
		for _, d := range op.Deps {
			add(d)
		}
		for _, in := range op.Inputs {
			add(prod[in])
		}
		slices.Sort(a.pred[start:])
		a.predOff[i+1] = int32(len(a.pred))
	}
	// Successor rows by counting sort: visiting the releasing ops, then
	// the others, each in ID order, fills every row in dispatch order.
	for _, p := range a.pred {
		a.succOff[p+1]++
	}
	for i := 0; i < n; i++ {
		a.succOff[i+1] += a.succOff[i]
	}
	a.succ = make([]OpID, len(a.pred))
	fill := slices.Clone(a.succOff[:n])
	for _, releasing := range [2]bool{true, false} {
		for i := 0; i < n; i++ {
			if g.ops[i].Kind.Releases() != releasing {
				continue
			}
			for _, p := range a.preds(OpID(i)) {
				a.succ[fill[p]] = OpID(i)
				fill[p]++
			}
		}
	}
	g.adj = a
	return a
}

// Releases reports whether the op frees GPU memory when it runs: the
// executor dispatches such successors of an op before the others.
func (k OpKind) Releases() bool { return k == Drop || k == SwapOut }

// Preds returns op id's predecessors: explicit Deps plus dataflow
// (input tensors' producers), deduplicated and sorted. The slice
// aliases the graph's cache; callers must not modify it.
func (g *Graph) Preds(id OpID) []OpID { return g.adjacency().preds(id) }

// Succs returns the ops that list id among their Preds: the releasing
// ones (Drop, SwapOut) first, then the rest, each group ascending. The
// slice aliases the graph's cache; callers must not modify it.
func (g *Graph) Succs(id OpID) []OpID { return g.adjacency().succs(id) }

// CycleError reports a dependency cycle found during topological sorting.
type CycleError struct {
	// Remaining holds the op IDs that could not be ordered.
	Remaining []OpID
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("graph: dependency cycle among %d operators (first: %v)", len(e.Remaining), e.Remaining[0])
}

// idHeap is a binary min-heap of op IDs: Kahn's ready set.
type idHeap []OpID

func (h *idHeap) push(id OpID) {
	s := append(*h, id)
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

func (h *idHeap) pop() OpID {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < last && s[l] < s[least] {
			least = l
		}
		if r < last && s[r] < s[least] {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}

// TopoOrder returns a deterministic topological ordering of the ops
// (Kahn's algorithm, ties broken by smallest op ID) or a *CycleError.
// The order is cached until the next mutation; callers must not modify
// it.
func (g *Graph) TopoOrder() ([]OpID, error) {
	if g.order != nil {
		return g.order, nil
	}
	a := g.adjacency()
	n := len(g.ops)
	indeg := make([]int32, n)
	// Zero-indegree ops in ascending order already form a valid heap.
	var ready idHeap
	for i := 0; i < n; i++ {
		indeg[i] = a.predOff[i+1] - a.predOff[i]
		if indeg[i] == 0 {
			ready = append(ready, OpID(i))
		}
	}
	order := make([]OpID, 0, n)
	for len(ready) > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, s := range a.succs(id) {
			indeg[s]--
			if indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(order) != n {
		var remaining []OpID
		for i, d := range indeg {
			if d > 0 {
				remaining = append(remaining, OpID(i))
			}
		}
		return nil, &CycleError{Remaining: remaining}
	}
	g.order = order
	return order, nil
}

// Validate checks structural invariants: tensor references in range,
// no self-dependencies, acyclicity, and single-producer tensors. It
// runs a producer scan over every op, then Kahn's sort.
func (g *Graph) Validate() error {
	nt := g.Tensors.Len()
	producer := make([]OpID, nt)
	for i := range producer {
		producer[i] = -1
	}
	for i := range g.ops {
		op := &g.ops[i]
		for _, d := range op.Deps {
			if d == op.ID {
				return fmt.Errorf("graph: op %d (%s) depends on itself", op.ID, op.Name)
			}
			if d < 0 || int(d) >= len(g.ops) {
				return fmt.Errorf("graph: op %d (%s) has out-of-range dep %d", op.ID, op.Name, d)
			}
		}
		for _, ts := range [2][]tensor.ID{op.Inputs, op.Outputs} {
			for _, tid := range ts {
				if tid < 0 || int(tid) >= nt {
					return fmt.Errorf("graph: op %d (%s) references unknown tensor %d", op.ID, op.Name, tid)
				}
			}
		}
		for _, out := range op.Outputs {
			if p := producer[out]; p >= 0 && g.ops[p].Kind != Recompute && op.Kind != Recompute && op.Kind != SwapIn {
				return fmt.Errorf("graph: tensor %d produced by both op %d and op %d", out, p, op.ID)
			}
			producer[out] = op.ID
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Use marks where in a schedule a tensor is touched.
type Use struct {
	Op    OpID
	Index int // position of Op in the topological order
}

// Liveness is the result of live-variable analysis over a topological
// order: for each tensor, where it is defined and each place it is used.
type Liveness struct {
	// Def[t] is the order index of the op producing tensor t, or -1
	// for tensors alive at graph entry (parameters, optimizer state).
	Def []int
	// Uses[t] lists consuming ops of tensor t in execution order.
	Uses [][]Use
}

// LastUse returns the order index of the final use of tensor t, or -1
// if t is never consumed.
func (l *Liveness) LastUse(t tensor.ID) int {
	us := l.Uses[t]
	if len(us) == 0 {
		return -1
	}
	return us[len(us)-1].Index
}

// Liveness returns the liveness of the graph's own topological order,
// cached until the next mutation; callers must not modify it.
func (g *Graph) Liveness() (*Liveness, error) {
	if g.live != nil {
		return g.live, nil
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	g.live = g.Analyze(order)
	return g.live, nil
}

// Analyze performs live-variable analysis (paper Sec. III-D performs
// "a live variable analysis [23] to compute the per tensor live
// intervals"). The returned indices refer to positions in order.
func (g *Graph) Analyze(order []OpID) *Liveness {
	nt := g.Tensors.Len()
	l := &Liveness{
		Def:  make([]int, nt),
		Uses: make([][]Use, nt),
	}
	for i := range l.Def {
		l.Def[i] = -1
	}
	// Every tensor's uses share one backing array, sized by a counting
	// pass; walking order appends them already sorted by Index.
	count := make([]int32, nt)
	total := 0
	for _, id := range order {
		for _, in := range g.ops[id].Inputs {
			count[in]++
			total++
		}
	}
	flat := make([]Use, total)
	off := 0
	for t, c := range count {
		if c > 0 {
			l.Uses[t] = flat[off : off : off+int(c)]
			off += int(c)
		}
	}
	for i, id := range order {
		op := &g.ops[id]
		for _, out := range op.Outputs {
			if l.Def[out] == -1 {
				l.Def[out] = i
			}
		}
		for _, in := range op.Inputs {
			l.Uses[in] = append(l.Uses[in], Use{Op: id, Index: i})
		}
	}
	return l
}
