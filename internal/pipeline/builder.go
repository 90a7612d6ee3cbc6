package pipeline

import (
	"fmt"

	"mpress/internal/graph"
	"mpress/internal/model"
	"mpress/internal/tensor"
	"mpress/internal/units"
)

// BuildConfig describes one training job to lower into a graph.
type BuildConfig struct {
	Model model.Config
	Prec  model.Precision
	Part  Partition
	Kind  ScheduleKind
	// MicrobatchSize is sequences per microbatch; Microbatches is
	// microbatches per minibatch; Minibatches is how many minibatches
	// the iteration graph spans (≥2 recommended so PipeDream reaches
	// steady state).
	MicrobatchSize int
	Microbatches   int
	Minibatches    int
	// TP is the tensor-parallel degree each stage is sharded across
	// (0 or 1 = off). The graph models one representative TP rank:
	// per-rank tensors and FLOPs shrink by TP (StageProfile.Shard)
	// while boundary tensors stay full-size, and TPFwAllReduce /
	// TPBwAllReduce carry the per-operator collective payloads.
	TP int
}

// TPDegree normalizes the configured tensor-parallel degree (≥ 1).
func (bc BuildConfig) TPDegree() int {
	if bc.TP > 1 {
		return bc.TP
	}
	return 1
}

// SlotKey addresses one (stage, global microbatch) cell of the
// pipeline diagram.
type SlotKey struct {
	Stage      int
	Microbatch int
}

// Built is the lowered training job: the op graph plus the side tables
// the executor and planner need.
type Built struct {
	Cfg      BuildConfig
	Graph    *graph.Graph
	Profiles []StageProfile

	// Persistent[s] lists stage s's always-resident tensors
	// (per-block params/grads/optimizer states, embedding state,
	// stashed weight versions).
	Persistent [][]tensor.ID
	// PersistentSet marks tensors the executor must not free.
	PersistentSet map[tensor.ID]bool

	// Acts[k] lists the activation tensors (one per block, plus
	// embedding/logits entries) produced by forward slot k.
	Acts map[SlotKey][]tensor.ID
	// BoundIn[k] is the retained stage-input tensor of slot k
	// (absent for stage 0).
	BoundIn map[SlotKey]tensor.ID

	// The planner's lookups, dense and indexed by ID (see FwOp, BwOp,
	// ActSlot, RecomputeFLOPs and PrevOnStage): fwOps and bwOps by
	// slot index s·TotalMicrobatches+m, actSlot and recomputeFLOPs by
	// tensor, prevOnStage by op.
	fwOps, bwOps   []graph.OpID
	actSlot        []SlotKey
	recomputeFLOPs []units.FLOPs
	prevOnStage    []graph.OpID

	// OptOps[s][q] lists stage s's optimizer-step operators for
	// minibatch q — one per parameter group (block/embedding), run in
	// sequence, so host-parked optimizer states stream through GPU
	// memory one group at a time instead of spiking all at once.
	OptOps [][][]graph.OpID

	// TPFwAllReduce / TPBwAllReduce list, per stage, the NVLink
	// all-reduce payload one forward / backward op of that stage
	// exchanges inside its TP group (Megatron's two collectives per
	// block per direction, each moving the block's boundary-sized
	// activation). Nil when TP <= 1.
	TPFwAllReduce []units.Bytes
	TPBwAllReduce []units.Bytes

	// TotalMicrobatches = Microbatches × Minibatches.
	TotalMicrobatches int
	// UsefulFLOPs is the model compute of the whole run (excludes
	// any recomputation added later), the numerator of the paper's
	// TFLOPS metric.
	UsefulFLOPs units.FLOPs
}

// NumStages returns the stage count.
func (b *Built) NumStages() int { return len(b.Profiles) }

// slot returns k's index into the slot-indexed tables, -1 when k is not
// a slot of the build.
func (b *Built) slot(k SlotKey) int {
	if k.Stage < 0 || k.Stage >= b.NumStages() || k.Microbatch < 0 || k.Microbatch >= b.TotalMicrobatches {
		return -1
	}
	return k.Stage*b.TotalMicrobatches + k.Microbatch
}

// FwOp returns slot k's forward op, -1 when k is not a slot of the
// build.
func (b *Built) FwOp(k SlotKey) graph.OpID {
	if i := b.slot(k); i >= 0 {
		return b.fwOps[i]
	}
	return -1
}

// BwOp returns slot k's backward op, -1 when k is not a slot of the
// build.
func (b *Built) BwOp(k SlotKey) graph.OpID {
	if i := b.slot(k); i >= 0 {
		return b.bwOps[i]
	}
	return -1
}

// ActSlot returns the forward slot producing activation t; ok is false
// when t is not an activation in Acts.
func (b *Built) ActSlot(t tensor.ID) (k SlotKey, ok bool) {
	if t < 0 || int(t) >= len(b.actSlot) || b.actSlot[t].Stage < 0 {
		return SlotKey{}, false
	}
	return b.actSlot[t], true
}

// RecomputeFLOPs returns the forward cost to regenerate activation t
// if dropped (the planner's cost model); ok is false when t is not a
// recomputable (per-block) activation.
func (b *Built) RecomputeFLOPs(t tensor.ID) (flops units.FLOPs, ok bool) {
	if t < 0 || int(t) >= len(b.recomputeFLOPs) || b.recomputeFLOPs[t] < 0 {
		return 0, false
	}
	return b.recomputeFLOPs[t], true
}

// PrevOnStage returns compute op id's predecessor in its stage's local
// schedule chain, -1 at the head or for an op on no chain. The planner
// uses it as the prefetch gate for swap-in/recompute instrumentation.
func (b *Built) PrevOnStage(id graph.OpID) graph.OpID {
	if id < 0 || int(id) >= len(b.prevOnStage) {
		return -1
	}
	return b.prevOnStage[id]
}

// Fork returns a shallow copy of b whose Graph is a graph.Fork of b's:
// instrumenting the fork (plan.Apply) leaves b untouched. Every other
// field is shared and must be treated as read-only.
func (b *Built) Fork() *Built {
	f := *b
	f.Graph = b.Graph.Fork()
	return &f
}

// SamplesProcessed returns the sequences consumed by the whole run.
func (b *Built) SamplesProcessed() int {
	return b.Cfg.MicrobatchSize * b.TotalMicrobatches
}

// Build lowers the training job to a dataflow graph with exact
// schedule-order dependencies (Fig. 1's timing diagram as a DAG).
func Build(bc BuildConfig) (*Built, error) {
	if err := bc.Model.Validate(); err != nil {
		return nil, err
	}
	if err := bc.Part.Validate(bc.Model); err != nil {
		return nil, err
	}
	if bc.MicrobatchSize <= 0 || bc.Microbatches <= 0 || bc.Minibatches <= 0 {
		return nil, fmt.Errorf("pipeline: batch shape %d/%d/%d must be positive",
			bc.MicrobatchSize, bc.Microbatches, bc.Minibatches)
	}

	g := graph.New(nil)
	S := bc.Part.NumStages()
	total := bc.Microbatches * bc.Minibatches
	T := bc.TPDegree()
	profiles := Profile(bc.Model, bc.Part, bc.MicrobatchSize)
	for i := range profiles {
		profiles[i] = profiles[i].Shard(T)
	}

	b := &Built{
		Cfg:               bc,
		Graph:             g,
		Profiles:          profiles,
		Persistent:        make([][]tensor.ID, S),
		PersistentSet:     make(map[tensor.ID]bool),
		Acts:              make(map[SlotKey][]tensor.ID),
		BoundIn:           make(map[SlotKey]tensor.ID),
		fwOps:             make([]graph.OpID, S*total),
		bwOps:             make([]graph.OpID, S*total),
		OptOps:            make([][][]graph.OpID, S),
		TotalMicrobatches: total,
	}
	// blockActs lists the recomputable (per-block) activations, each
	// costing blockFLOPs to regenerate.
	var blockActs []tensor.ID
	blockFLOPs := bc.Model.BlockForwardFLOPs(bc.MicrobatchSize) / units.FLOPs(T)
	if T > 1 {
		b.TPFwAllReduce = make([]units.Bytes, S)
		b.TPBwAllReduce = make([]units.Bytes, S)
		for s := 0; s < S; s++ {
			payload := units.Bytes(int64(2*bc.Part.Stages[s].NumBlocks)) * profiles[s].BoundaryBytes
			b.TPFwAllReduce[s] = payload
			b.TPBwAllReduce[s] = payload
		}
	}

	// paramT[s] lists stage s's live parameter tensors (forward
	// inputs); gradT/optT the matching gradient/optimizer tensors.
	paramT := make([][]tensor.ID, S)
	gradT := make([][]tensor.ID, S)
	optT := make([][]tensor.ID, S)

	addPersistent := func(s int, name string, class tensor.Class, layer int, size units.Bytes) tensor.ID {
		id := g.Tensors.Add(tensor.Tensor{
			Name: name, Class: class, DType: bc.Model.DType,
			Size: size, Stage: s, Layer: layer, Producer: -1,
		})
		b.Persistent[s] = append(b.Persistent[s], id)
		b.PersistentSet[id] = true
		return id
	}

	blockParams := bc.Model.ParamsPerBlock()
	if T > 1 {
		blockParams = ceilDiv64(blockParams, int64(T))
	}
	for s := 0; s < S; s++ {
		st := bc.Part.Stages[s]
		for _, blk := range st.Blocks() {
			paramT[s] = append(paramT[s], addPersistent(s,
				fmt.Sprintf("param:b%d", blk), tensor.Parameter, blk,
				units.Bytes(blockParams*bc.Prec.ParamBytes)))
			gradT[s] = append(gradT[s], addPersistent(s,
				fmt.Sprintf("grad:b%d", blk), tensor.Gradient, blk,
				units.Bytes(blockParams*bc.Prec.GradBytes)))
			optT[s] = append(optT[s], addPersistent(s,
				fmt.Sprintf("opt:b%d", blk), tensor.OptimizerState, blk,
				units.Bytes(blockParams*bc.Prec.OptBytes)))
		}
		if st.HasEmbedding {
			emb := bc.Model.EmbeddingParams()
			if T > 1 {
				emb = ceilDiv64(emb, int64(T))
			}
			paramT[s] = append(paramT[s], addPersistent(s, "param:embed", tensor.Parameter, -1,
				units.Bytes(emb*bc.Prec.ParamBytes)))
			gradT[s] = append(gradT[s], addPersistent(s, "grad:embed", tensor.Gradient, -1,
				units.Bytes(emb*bc.Prec.GradBytes)))
			optT[s] = append(optT[s], addPersistent(s, "opt:embed", tensor.OptimizerState, -1,
				units.Bytes(emb*bc.Prec.OptBytes)))
		}
		// Stashed weight versions beyond the live copy (PipeDream).
		if v := bc.Kind.WeightVersions(s, S); v > 1 {
			addPersistent(s, fmt.Sprintf("stash:x%d", v-1), tensor.Parameter, -1,
				units.Bytes(int64(v-1)*profiles[s].Params*bc.Prec.ParamBytes))
		}
	}

	// Per-slot tensors and ops. The activation handoff of slot
	// {s,m} connects stage s's boundary output to stage s+1's
	// retained input; the gradient handoff of {s,m} flows s -> s-1.
	actOut := make(map[SlotKey]tensor.ID)
	actIn := make(map[SlotKey]tensor.ID)
	gradOut := make(map[SlotKey]tensor.ID)
	gradIn := make(map[SlotKey]tensor.ID)

	for m := 0; m < total; m++ {
		for s := 0; s < S; s++ {
			k := SlotKey{Stage: s, Microbatch: m}
			sp := profiles[s]
			st := bc.Part.Stages[s]

			// Activation tensors this forward produces and retains.
			var acts []tensor.ID
			if st.HasEmbedding {
				acts = append(acts, g.Tensors.Add(tensor.Tensor{
					Name: fmt.Sprintf("act:emb:mb%d", m), Class: tensor.Activation,
					DType: bc.Model.DType, Size: sp.EmbedActBytes, Stage: s, Layer: -1,
				}))
			}
			for _, blk := range st.Blocks() {
				id := g.Tensors.Add(tensor.Tensor{
					Name: fmt.Sprintf("act:b%d:mb%d", blk, m), Class: tensor.Activation,
					DType: bc.Model.DType, Size: sp.BlockActBytes, Stage: s, Layer: blk,
				})
				acts = append(acts, id)
				blockActs = append(blockActs, id)
			}
			if st.HasHead {
				acts = append(acts, g.Tensors.Add(tensor.Tensor{
					Name: fmt.Sprintf("act:logits:mb%d", m), Class: tensor.Activation,
					DType: bc.Model.DType, Size: sp.LogitsBytes, Stage: s, Layer: bc.Model.Layers,
				}))
			}
			b.Acts[k] = acts

			fwIn := append([]tensor.ID(nil), paramT[s]...)
			if s > 0 {
				bndIn := g.Tensors.Add(tensor.Tensor{
					Name: fmt.Sprintf("bndin:s%d:mb%d", s, m), Class: tensor.Activation,
					DType: bc.Model.DType, Size: sp.BoundaryBytes, Stage: s, Layer: st.FirstBlock,
				})
				b.BoundIn[k] = bndIn
				actIn[SlotKey{s - 1, m}] = bndIn
				fwIn = append(fwIn, bndIn)
			}
			fwOut := append([]tensor.ID(nil), acts...)
			if s < S-1 {
				bndOut := g.Tensors.Add(tensor.Tensor{
					Name: fmt.Sprintf("bndout:s%d:mb%d", s, m), Class: tensor.Activation,
					DType: bc.Model.DType, Size: sp.BoundaryBytes, Stage: s, Layer: st.FirstBlock + st.NumBlocks - 1,
				})
				actOut[k] = bndOut
				fwOut = append(fwOut, bndOut)
			}
			b.fwOps[b.slot(k)] = g.AddOp(graph.Op{
				Name: fmt.Sprintf("F:s%d:mb%d", s, m), Kind: graph.Forward,
				Stage: s, Layer: -1, Microbatch: m,
				FLOPs: sp.FwFLOPs, Inputs: fwIn, Outputs: fwOut,
			})
			b.UsefulFLOPs += sp.FwFLOPs
		}
	}

	// Add the forward activation transfers now that both handoff
	// sides exist.
	for m := 0; m < total; m++ {
		for s := 0; s < S-1; s++ {
			k := SlotKey{Stage: s, Microbatch: m}
			out, okOut := actOut[k]
			in, okIn := actIn[k]
			if !okOut || !okIn {
				return nil, fmt.Errorf("pipeline: internal: missing handoff s%d mb%d", s, m)
			}
			g.AddOp(graph.Op{
				Name: fmt.Sprintf("Tact:s%d->s%d:mb%d", s, s+1, m), Kind: graph.Transfer,
				Stage: s, Layer: -1, Microbatch: m,
				MoveBytes: profiles[s].BoundaryBytes,
				Inputs:    []tensor.ID{out},
				Outputs:   []tensor.ID{in},
			})
		}
	}

	// Backward ops and gradient transfers, walked from the last stage
	// down so the grad handoff tensor exists before its consumer.
	for m := 0; m < total; m++ {
		for s := S - 1; s >= 0; s-- {
			k := SlotKey{Stage: s, Microbatch: m}
			sp := profiles[s]
			bwIn := append([]tensor.ID(nil), b.Acts[k]...)
			bwIn = append(bwIn, paramT[s]...)
			bwIn = append(bwIn, gradT[s]...)
			if id, ok := b.BoundIn[k]; ok {
				bwIn = append(bwIn, id)
			}
			if s < S-1 {
				// Gradient arriving from downstream (stage s+1 was
				// visited first in this descending loop).
				bwIn = append(bwIn, gradIn[SlotKey{s + 1, m}])
			}
			var bwOut []tensor.ID
			if s > 0 {
				gout := g.Tensors.Add(tensor.Tensor{
					Name: fmt.Sprintf("gbnd:s%d:mb%d", s, m), Class: tensor.Gradient,
					DType: bc.Model.DType, Size: sp.BoundaryBytes, Stage: s, Layer: -1,
				})
				gin := g.Tensors.Add(tensor.Tensor{
					Name: fmt.Sprintf("gin:s%d:mb%d", s-1, m), Class: tensor.Gradient,
					DType: bc.Model.DType, Size: sp.BoundaryBytes, Stage: s - 1, Layer: -1,
				})
				gradOut[k] = gout
				gradIn[k] = gin
				bwOut = append(bwOut, gout)
			}
			b.bwOps[b.slot(k)] = g.AddOp(graph.Op{
				Name: fmt.Sprintf("B:s%d:mb%d", s, m), Kind: graph.Backward,
				Stage: s, Layer: -1, Microbatch: m,
				FLOPs: sp.BwFLOPs, Inputs: bwIn, Outputs: bwOut,
			})
			b.UsefulFLOPs += sp.BwFLOPs
			if s > 0 {
				g.AddOp(graph.Op{
					Name: fmt.Sprintf("Tgrad:s%d->s%d:mb%d", s, s-1, m), Kind: graph.Transfer,
					Stage: s, Layer: -1, Microbatch: m,
					MoveBytes: sp.BoundaryBytes,
					Inputs:    []tensor.ID{gradOut[k]},
					Outputs:   []tensor.ID{gradIn[k]},
				})
			}
		}
	}

	// Optimizer steps: one operator per parameter group (block or
	// embedding) per stage per minibatch, after all the minibatch's
	// backwards on that stage. groups[i] indexes into paramT/gradT/
	// optT, which the persistent-tensor loop filled in block order
	// (embedding last on stage 0).
	for s := 0; s < S; s++ {
		b.OptOps[s] = make([][]graph.OpID, bc.Minibatches)
		groups := len(paramT[s])
		for q := 0; q < bc.Minibatches; q++ {
			var deps []graph.OpID
			for m := q * bc.Microbatches; m < (q+1)*bc.Microbatches; m++ {
				deps = append(deps, b.BwOp(SlotKey{s, m}))
			}
			for gi := 0; gi < groups; gi++ {
				groupBytes := g.Tensors.Get(paramT[s][gi]).Size +
					g.Tensors.Get(gradT[s][gi]).Size +
					g.Tensors.Get(optT[s][gi]).Size
				opDeps := deps
				if gi > 0 {
					opDeps = []graph.OpID{b.OptOps[s][q][gi-1]}
				}
				id := g.AddOp(graph.Op{
					Name: fmt.Sprintf("U:s%d:q%d:g%d", s, q, gi), Kind: graph.OptimizerStep,
					Stage: s, Layer: g.Tensors.Get(optT[s][gi]).Layer, Microbatch: -1,
					// Optimizer time is HBM-bound: the executor divides
					// MoveBytes by the GPU's memory bandwidth.
					MoveBytes: groupBytes * 2,
					Inputs:    []tensor.ID{paramT[s][gi], gradT[s][gi], optT[s][gi]},
					Deps:      opDeps,
				})
				b.OptOps[s][q] = append(b.OptOps[s][q], id)
			}
		}
	}

	// Enforce the exact per-stage schedule order (1F1B etc.) by
	// chaining each stage's slots. An OptPass slot expands to its
	// per-group operator sequence.
	b.prevOnStage = make([]graph.OpID, g.Len())
	for i := range b.prevOnStage {
		b.prevOnStage[i] = -1
	}
	for s := 0; s < S; s++ {
		var prev graph.OpID = -1
		chain := func(op graph.OpID) {
			if prev >= 0 {
				g.AddDep(op, prev)
			}
			b.prevOnStage[op] = prev
			prev = op
		}
		for _, slot := range bc.Kind.StageOrder(s, S, bc.Microbatches, bc.Minibatches) {
			switch slot.Pass {
			case FwdPass:
				chain(b.FwOp(SlotKey{s, slot.Microbatch}))
			case BwdPass:
				chain(b.BwOp(SlotKey{s, slot.Microbatch}))
			case OptPass:
				for _, op := range b.OptOps[s][slot.Microbatch] {
					chain(op)
				}
			}
		}
	}

	nt := g.Tensors.Len()
	b.actSlot = make([]SlotKey, nt)
	b.recomputeFLOPs = make([]units.FLOPs, nt)
	for t := range b.actSlot {
		b.actSlot[t] = SlotKey{-1, -1}
		b.recomputeFLOPs[t] = -1
	}
	for k, acts := range b.Acts {
		for _, id := range acts {
			b.actSlot[id] = k
		}
	}
	for _, id := range blockActs {
		b.recomputeFLOPs[id] = blockFLOPs
	}

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: built graph invalid: %w", err)
	}
	return b, nil
}
