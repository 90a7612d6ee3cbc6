// Package graph implements the dataflow computation graph the MPress
// static pipeline operates on: typed operators connected by explicit
// dependency edges and by tensor produce/consume relations.
//
// The planner's rewriter (paper Fig. 5, step 4) instruments this graph
// with memory-saving operators (swap-out, swap-in, drop, recompute)
// placed so that operator dependencies are respected; the executor then
// walks the instrumented graph. The planner lowers a job once, freezes
// that base graph, and instruments a cheap Fork of it per emulation.
package graph

import (
	"fmt"
	"slices"
	"sync/atomic"

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
	// kinds, which are always created via the Instrument helpers.
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
	// liveness over that order. AddOp and AddDep drop all three. A fork
	// starts out sharing its parent's views, which stay correct until
	// the fork's first mutation.
	adj   *adjacency
	order []OpID
	live  *Liveness

	// base is the frozen graph this one was forked from (nil for a
	// graph made by New or forked from an unfrozen graph). Rebuilding a
	// fork's adjacency copies a base op's row from it unless the
	// overlay touched that op: buf.touched[i] marks base ops that
	// gained a dep, and inputs whose producer changed are caught by
	// comparing producer tables.
	base *Graph

	// names interns the op names a frozen graph's forks' Instrument
	// primitives build; Freeze sets it.
	names nameCache

	// buf holds the arrays the graph fills itself, which Refork keeps.
	buf bufs

	// frozen forbids mutation (see Freeze); shared marks a fork still
	// reading its parent's op array (see Fork).
	frozen, shared bool
}

// bufs are the working arrays a graph owns: the op array own copies a
// fork's ops into, the arenas Instrument and AddDep carve Deps and
// Outputs slices from, the adjacency's arrays with its seen and fill
// stamps, and the touched flags. Refork resets them by length for the
// graph's next life as a fork, so recycling a fork allocates none of
// them again once they are large enough.
type bufs struct {
	ops        []Op
	deps       arena[OpID]
	outs       arena[tensor.ID]
	adj        adjacency
	seen, fill []int32
	touched    []bool
}

// arena hands out small slices carved from one backing array, so an
// instrumentation pass allocates its overlay's Deps and Outputs in a
// few chunks instead of one slice per op. Each carved slice is capped,
// so appending to it never writes into its neighbour. chunk is the
// current backing array, free its uncarved tail, and used counts the
// elements taken since the last reset.
type arena[T any] struct {
	chunk, free []T
	used        int
}

// reserve makes room for n more elements in the current chunk.
func (a *arena[T]) reserve(n int) {
	if len(a.free) < n {
		a.chunk = make([]T, n)
		a.free = a.chunk
	}
}

// take returns an empty slice with capacity c.
func (a *arena[T]) take(c int) []T {
	if len(a.free) < c {
		a.reserve(max(c, 256))
	}
	s := a.free[:0:c]
	a.free = a.free[c:]
	a.used += c
	return s
}

// reset frees the current chunk again for a recycled fork's next pass;
// every slice carved before must be dead. A pass that outgrew the
// chunk leaves one chunk sized for all it took, so a recycled arena
// settles at one chunk its largest pass fits.
func (a *arena[T]) reset() {
	if a.used > len(a.chunk) {
		a.chunk = make([]T, a.used)
	}
	a.free, a.used = a.chunk, 0
}

// nameCache interns, per tensor, the names forks of one frozen graph
// give the ops instrumenting it: the first fork to instrument a tensor
// builds them, later forks reuse them. Only instrumented tensors get
// entries. Forks on several goroutines share it without locking; each
// slot is replaced, never modified, and a lost race only rebuilds a
// name.
type nameCache []atomic.Pointer[[]opName]

// opName is one interned name: route+infix+tensor name, keyed by route
// and op kind.
type opName struct {
	route string
	kind  OpKind
	name  string
}

// adjacency is the full dependency structure in compressed sparse row
// form: op i's predecessors are pred[predOff[i]:predOff[i+1]] (sorted,
// deduplicated) and its successors succ[succOff[i]:succOff[i+1]]
// (ascending). prod maps each tensor to the last op outputting it, -1
// if none.
type adjacency struct {
	predOff, succOff []int32
	pred, succ       []OpID
	prod             []OpID
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

// mutate drops the derived views ahead of a structural change, first
// giving a fork its own op array.
func (g *Graph) mutate() {
	if g.frozen {
		panic("graph: mutation of a frozen graph (instrument a Fork instead)")
	}
	if g.shared {
		g.own(len(g.ops) / 4)
	}
	g.adj, g.order, g.live = nil, nil, nil
}

// own copies a fork's op array into its own buffer, with room for extra
// more ops, and clips every Deps slice so AddDep reallocates instead of
// writing into the parent's arrays.
func (g *Graph) own(extra int) {
	ops := slices.Grow(g.buf.ops[:0], len(g.ops)+extra)
	ops = append(ops, g.ops...)
	for i := range ops {
		ops[i].Deps = slices.Clip(ops[i].Deps)
	}
	g.ops, g.shared = ops, false
}

// Grow makes room for n more ops, so an instrumentation pass that knows
// its overlay size copies a fork's op array exactly once and carves the
// overlay's Deps (about two per op, plus the deps they add to base ops)
// and Outputs from one arena each. On a recycled fork (Refork) all
// three usually fit the buffers of its last life and nothing is
// allocated. It changes no op and keeps the derived views.
func (g *Graph) Grow(n int) {
	if g.frozen || n <= 0 {
		return
	}
	if g.shared {
		g.own(n)
	} else {
		g.ops = slices.Grow(g.ops, n)
	}
	g.buf.deps.reserve(4 * n)
	g.buf.outs.reserve(n / 2)
}

// AddOp appends op (ignoring op.ID) and returns the assigned ID. It
// panics on a fork of a frozen graph: ops reach such a fork only
// through the Instrument primitives, which consume no tensor, so the
// base's tensor uses stay the fork's.
func (g *Graph) AddOp(op Op) OpID {
	if g.base != nil {
		panic("graph: AddOp on a fork of a frozen graph (use the Instrument primitives)")
	}
	return g.add(op)
}

// add appends op, the part of AddOp the Instrument primitives share.
func (g *Graph) add(op Op) OpID {
	g.mutate()
	op.ID = OpID(len(g.ops))
	g.ops = append(g.ops, op)
	return op.ID
}

// addInstrument adds an Instrument primitive's op, with its Deps carved
// from the dep arena.
func (g *Graph) addInstrument(op Op, deps ...OpID) OpID {
	for _, d := range deps {
		g.checkDep(OpID(len(g.ops)), d)
	}
	op.Deps = append(g.buf.deps.take(len(deps)), deps...)
	return g.add(op)
}

// checkDep panics on a fork of a frozen graph unless op after may wait
// for op before: before is one of its ops, and not after itself. No
// Validate checks such a fork's deps, so they are checked as they are
// added.
func (g *Graph) checkDep(after, before OpID) {
	if g.base != nil && (before < 0 || int(before) >= len(g.ops) || before == after) {
		panic(fmt.Sprintf("graph: op %d of a %d-op fork cannot depend on op %d", after, len(g.ops), before))
	}
}

// opName returns route+infix+the tensor's name. A fork interns it on its
// frozen base, so re-instrumenting a tensor across emulations builds
// its op names once.
func (g *Graph) opName(route, infix string, kind OpKind, t tensor.ID) string {
	if g.base == nil {
		return route + infix + g.Tensors.Get(t).Name
	}
	slot := &g.base.names[t]
	for {
		old := slot.Load()
		if old != nil {
			for _, n := range *old {
				if n.route == route && n.kind == kind {
					return n.name
				}
			}
		}
		name := route + infix + g.Tensors.Get(t).Name
		next := []opName{{route, kind, name}}
		if old != nil {
			next = append(next, *old...)
		}
		if slot.CompareAndSwap(old, &next) {
			return name
		}
	}
}

// Op returns the operator with the given id.
func (g *Graph) Op(id OpID) *Op { return &g.ops[id] }

// Len returns the number of operators.
func (g *Graph) Len() int { return len(g.ops) }

// Ops returns all operators in ID order. The slice aliases internal
// storage; callers must not append to it.
func (g *Graph) Ops() []Op { return g.ops }

// AddDep records that op `after` must run after op `before`. On a fork
// of a frozen graph it panics unless before is another op of the fork.
func (g *Graph) AddDep(after, before OpID) {
	g.checkDep(after, before)
	if slices.Contains(g.ops[after].Deps, before) {
		return
	}
	g.mutate()
	op := &g.ops[after]
	if len(op.Deps) == cap(op.Deps) {
		op.Deps = append(g.buf.deps.take(max(2*len(op.Deps), 4)), op.Deps...)
	}
	op.Deps = append(op.Deps, before)
	if b := g.base; b != nil && int(after) < len(b.ops) {
		if len(g.buf.touched) != len(b.ops) {
			g.buf.touched = make([]bool, len(b.ops))
		}
		g.buf.touched[after] = true
	}
}

// Fork returns a copy of g to instrument without touching g. The fork
// reads g's op array until its first mutation, then copies it and
// clips every Deps slice, so AddDep on the fork reallocates instead of
// writing into g's arrays; the tensor registry and each op's
// Inputs/Outputs/Name stay shared, so callers must not add tensors to a
// fork nor modify ops through Op. The fork shares g's order and
// liveness, and a frozen g's adjacency, until its first mutation.
//
// A fork of a frozen g also remembers g as its base (see Base): it
// reuses g's adjacency rows for the ops its overlay left alone. Only
// the Instrument primitives and AddDep change such a fork, and each
// guards what it adds: the overlay consumes no tensor, recomputes only
// tensors g consumes, and adds only deps on other ops of the fork. So
// g's liveness names every tensor's uses in the fork too, and the
// executor reads g's free rows (pipeline.Built.Freeze) for it. Whether
// the overlay stays acyclic is the executor's to find: exec.Run reports
// a dependency cycle as the stall it is. Fork only reads g: forking a
// frozen graph from several goroutines at once is safe. A planner that
// emulates many plans recycles one fork per worker with Refork instead.
func (g *Graph) Fork() *Graph { return g.Refork(nil) }

// Refork makes old, a fork of frozen g that is no longer used, a fresh
// fork of g again and returns it; with old nil or not a fork of g it
// returns a new fork. It keeps old's buffers (see bufs), reset by
// length: the op array, the arenas, the adjacency arrays, the seen and
// fill stamps and the cleared touched flags. Everything read off old
// before (its ops, Deps, Preds and Succs rows, and any fork of it) is
// invalid afterwards. Like Fork it only reads g; old must not be in use
// on another goroutine.
func (g *Graph) Refork(old *Graph) *Graph {
	var b bufs
	if old != nil && old.base == g {
		b = old.buf
		if !old.shared {
			b.ops = old.ops // add may have outgrown the buffer own filled
		}
		b.deps.reset()
		b.outs.reset()
		clear(b.touched)
	} else {
		old = new(Graph)
	}
	// Only a frozen g's adjacency is shared: an unfrozen g rebuilds its
	// own in place after a mutation.
	*old = Graph{Tensors: g.Tensors, ops: slices.Clip(g.ops), order: g.order, live: g.live, buf: b, shared: true}
	if g.frozen {
		old.adj, old.base = g.adj, g
	}
	return old
}

// Base returns the frozen graph g was forked from, or nil.
func (g *Graph) Base() *Graph { return g.base }

// Freeze validates g, computes every derived view (adjacency,
// topological order, liveness), and forbids further mutation: AddOp
// and AddDep panic on a frozen graph. A frozen graph is safe to read
// and Fork from many goroutines at once. Freezing an already frozen
// graph is a no-op that writes nothing, so a shared frozen graph may be
// handed to code that freezes what it is given.
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
	g.names = make(nameCache, g.Tensors.Len())
	g.frozen = true
	return nil
}

// producers maps each tensor to the last op that outputs it (-1 if
// none), in g's own buffer. A fork starts from its base's table and
// scans only its overlay.
func (g *Graph) producers() []OpID {
	prod := slices.Grow(g.buf.adj.prod[:0], g.Tensors.Len())[:g.Tensors.Len()]
	from, known := 0, []OpID(nil)
	if b := g.base; b != nil {
		from, known = len(b.ops), b.adj.prod
	}
	for i := copy(prod, known); i < len(prod); i++ {
		prod[i] = -1
	}
	for i := from; i < len(g.ops); i++ {
		for _, out := range g.ops[i].Outputs {
			prod[out] = g.ops[i].ID
		}
	}
	return prod
}

// adjacency returns the cached CSR adjacency, building it on first use.
// An op's predecessors are its explicit Deps plus the producers of its
// input tensors, deduplicated and sorted; the executor counts them as
// unfinished dependencies. Each successor row lists memory-releasing
// ops (Drop, SwapOut) first, then the rest, each group ascending: the
// order the executor dispatches them in, so it reads rows in place.
// It builds into the graph's own buffers (bufs), which a recycled fork
// brings from its last life.
func (g *Graph) adjacency() *adjacency {
	if g.adj != nil {
		return g.adj
	}
	n := len(g.ops)
	a := &g.buf.adj
	a.prod = g.producers()
	a.predOff = slices.Grow(a.predOff[:0], n+1)[:n+1]
	a.predOff[0] = 0
	a.pred = a.pred[:0]
	if b := g.base; b != nil {
		a.pred = slices.Grow(a.pred, len(b.adj.pred)+2*(n-len(b.ops)))
	}
	// seen[p] == i+1 once p is in op i's row. The stamps a last build
	// left (a recycled fork's, or this graph's before a mutation) are
	// cleared first.
	if cap(g.buf.seen) < n {
		g.buf.seen = make([]int32, n)
	}
	seen := g.buf.seen[:n]
	clear(seen)
	for i := range g.ops {
		start := len(a.pred)
		if row, ok := g.baseRow(OpID(i), a.prod); ok {
			a.pred = append(a.pred, row...)
		} else {
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
				add(a.prod[in])
			}
			slices.Sort(a.pred[start:])
		}
		a.predOff[i+1] = int32(len(a.pred))
	}
	// Successor rows by counting sort: visiting the releasing ops, then
	// the others, each in ID order, fills every row in dispatch order.
	a.succOff = slices.Grow(a.succOff[:0], n+1)[:n+1]
	clear(a.succOff)
	for _, p := range a.pred {
		a.succOff[p+1]++
	}
	for i := 0; i < n; i++ {
		a.succOff[i+1] += a.succOff[i]
	}
	a.succ = slices.Grow(a.succ[:0], len(a.pred))[:len(a.pred)]
	fill := append(g.buf.fill[:0], a.succOff[:n]...)
	g.buf.fill = fill
	for _, releasing := range [2]bool{true, false} {
		for i := 0; i < n; i++ {
			if g.ops[i].Kind.releases() != releasing {
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

// releases reports whether the op frees GPU memory when it runs.
func (k OpKind) releases() bool { return k == Drop || k == SwapOut }

// baseRow returns the fork base's predecessor row for op id when it is
// still exact: id is a base op, gained no dep, and each of its inputs
// has the same producer as in the base.
func (g *Graph) baseRow(id OpID, prod []OpID) ([]OpID, bool) {
	if g.base == nil || int(id) >= len(g.base.ops) || (int(id) < len(g.buf.touched) && g.buf.touched[id]) {
		return nil, false
	}
	b := g.base.adj
	for _, in := range g.ops[id].Inputs {
		if int(in) >= len(b.prod) || prod[in] != b.prod[in] {
			return nil, false
		}
	}
	return b.preds(id), true
}

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
