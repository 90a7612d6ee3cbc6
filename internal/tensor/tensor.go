// Package tensor defines the metadata describing tensors flowing through
// a training computation: their size, data class, producing/consuming
// operators and (after profiling) their live intervals.
//
// The simulator never materializes tensor values — MPress's decisions
// depend only on sizes, lifetimes and placement, exactly the information
// the paper's static profiler collects (Table III).
package tensor

import (
	"fmt"

	"mpress/internal/units"
)

// Class categorizes a tensor by the role its data plays in training.
// The paper's Table I breaks GPU memory consumption down by these
// classes; compaction mechanisms apply to different subsets (e.g.
// recomputation applies only to activations).
type Class int

const (
	// Activation tensors are produced by the forward pass and held
	// until the matching backward pass consumes them.
	Activation Class = iota
	// Parameter tensors are the model weights.
	Parameter
	// Gradient tensors are produced by the backward pass.
	Gradient
	// OptimizerState tensors are the optimizer's per-parameter state
	// (for Adam: fp32 master weights, first and second moments).
	OptimizerState
	// Workspace tensors are transient scratch buffers.
	Workspace
)

var classNames = [...]string{
	Activation:     "activation",
	Parameter:      "parameter",
	Gradient:       "gradient",
	OptimizerState: "optimizer",
	Workspace:      "workspace",
}

// String returns the lowercase class name.
func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// Recomputable reports whether dropping and recomputing tensors of this
// class is meaningful. Only activations can be recovered by re-running
// the forward pass (Sec. II-D).
func (c Class) Recomputable() bool { return c == Activation }

// DType is a tensor element type.
type DType int

const (
	FP32 DType = iota
	FP16
	BF16
)

// Size returns the byte width of one element.
func (d DType) Size() units.Bytes {
	switch d {
	case FP32:
		return 4
	case FP16, BF16:
		return 2
	default:
		return 4
	}
}

// String returns the conventional lowercase dtype name.
func (d DType) String() string {
	switch d {
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	case BF16:
		return "bf16"
	default:
		return fmt.Sprintf("DType(%d)", int(d))
	}
}

// ID uniquely identifies a tensor within one Registry.
type ID int

// Tensor is the static metadata of one tensor.
type Tensor struct {
	ID    ID
	Name  string
	Class Class
	DType DType
	// Size is the total footprint in bytes.
	Size units.Bytes
	// Stage is the pipeline stage that owns the tensor (-1 if unassigned).
	Stage int
	// Layer is the model layer index the tensor belongs to (-1 if N/A).
	Layer int
	// Producer is the operator that creates the tensor (-1 for inputs
	// and persistent state created at initialization).
	Producer int
	// Consumers are the operators that read the tensor, in graph order.
	Consumers []int
}

// Registry allocates tensor IDs and stores tensor metadata for one
// model/graph instance.
type Registry struct {
	tensors []Tensor
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add registers t (ignoring t.ID) and returns its assigned ID.
func (r *Registry) Add(t Tensor) ID {
	t.ID = ID(len(r.tensors))
	if t.Producer == 0 && t.Name == "" {
		t.Producer = -1
	}
	r.tensors = append(r.tensors, t)
	return t.ID
}

// Get returns the tensor with the given id. It panics if id is out of
// range, which always indicates a programming error (IDs are only minted
// by Add).
func (r *Registry) Get(id ID) *Tensor {
	return &r.tensors[id]
}

// Len returns the number of registered tensors.
func (r *Registry) Len() int { return len(r.tensors) }

// All returns the tensors in ID order. The returned slice aliases the
// registry's storage; callers must not append to it.
func (r *Registry) All() []Tensor { return r.tensors }
