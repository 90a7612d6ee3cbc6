// Package model builds the DNN models the paper trains: Bert and GPT
// transformer variants from 0.35 to 25.5 billion parameters (paper
// Table II), described analytically — per-layer parameter counts,
// activation footprints, and forward/backward FLOPs.
//
// The simulator needs sizes and operation counts, not weights, so a
// model here is a closed-form description plus a synthetic token
// workload generator standing in for SQuAD/Wikipedia.
package model

import (
	"fmt"

	"mpress/internal/tensor"
	"mpress/internal/units"
)

// Arch is the model family.
type Arch int

const (
	// Bert is a bidirectional encoder (paper: trained with PipeDream
	// on SQuAD v1.1, microbatch size 12).
	Bert Arch = iota
	// GPT is a decoder-only LM (paper: trained with DAPPLE on
	// Wikipedia, microbatch size 2).
	GPT
)

// String returns the family name.
func (a Arch) String() string {
	switch a {
	case Bert:
		return "Bert"
	case GPT:
		return "GPT"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Config fully describes one transformer variant.
type Config struct {
	Name   string
	Arch   Arch
	Layers int // number of transformer blocks
	Hidden int // hidden dimension H
	Heads  int // attention heads
	SeqLen int // training sequence length
	Vocab  int // vocabulary size
	// DType is the compute/storage precision of activations and
	// parameters on device (optimizer states are always fp32).
	DType tensor.DType
}

// Validate checks the configuration is trainable.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("model %s: Layers = %d", c.Name, c.Layers)
	case c.Hidden <= 0:
		return fmt.Errorf("model %s: Hidden = %d", c.Name, c.Hidden)
	case c.Heads <= 0 || c.Hidden%c.Heads != 0:
		return fmt.Errorf("model %s: Heads = %d must divide Hidden = %d", c.Name, c.Heads, c.Hidden)
	case c.SeqLen <= 0:
		return fmt.Errorf("model %s: SeqLen = %d", c.Name, c.SeqLen)
	case c.Vocab <= 0:
		return fmt.Errorf("model %s: Vocab = %d", c.Name, c.Vocab)
	case c.Arch != Bert && c.Arch != GPT:
		return fmt.Errorf("model %s: unknown %v", c.Name, c.Arch)
	case c.DType < tensor.FP32 || c.DType > tensor.BF16:
		return fmt.Errorf("model %s: unknown %v", c.Name, c.DType)
	}
	return nil
}

// ParamsPerBlock returns the parameter count of one transformer block:
// QKV + attention projection (4H²+5H), the two MLP matmuls (8H²+5H),
// and the two layer norms (4H) minus small terms, totalling 12H²+13H.
func (c Config) ParamsPerBlock() int64 {
	h := int64(c.Hidden)
	return 12*h*h + 13*h
}

// EmbeddingParams returns the token + position embedding parameters
// plus the final layer norm.
func (c Config) EmbeddingParams() int64 {
	h := int64(c.Hidden)
	return (int64(c.Vocab)+int64(c.SeqLen))*h + 2*h
}

// TotalParams returns the full model parameter count. The output head
// shares weights with the token embedding (standard for both families).
func (c Config) TotalParams() int64 {
	return int64(c.Layers)*c.ParamsPerBlock() + c.EmbeddingParams()
}

// Billions formats the parameter count in units of 10^9.
func (c Config) Billions() float64 { return float64(c.TotalParams()) / 1e9 }

// activationScale converts the fp16 activation formula to the
// configured precision (fp32 activations store roughly 1.8× the
// bytes: matmul inputs double but masks/ints do not).
func (c Config) activationScale() float64 {
	if c.DType == tensor.FP32 {
		return 1.8
	}
	return 1.0
}

// BlockActivationBytes returns the activation memory one transformer
// block retains for the backward pass, per microbatch of b sequences.
// It follows the standard estimate s·b·h·(34 + 5·a·s/h) bytes for fp16
// training (Korthikanti et al., "Reducing Activation Recomputation in
// Large Transformer Models"), scaled for the configured precision.
func (c Config) BlockActivationBytes(b int) units.Bytes {
	s, h, a := float64(c.SeqLen), float64(c.Hidden), float64(c.Heads)
	bytes := s * float64(b) * h * (34 + 5*a*s/h) * c.activationScale()
	return units.Bytes(bytes)
}

// EmbeddingActivationBytes returns the activation bytes retained by
// the embedding stage per microbatch (the embedded input sequence).
func (c Config) EmbeddingActivationBytes(b int) units.Bytes {
	return units.Bytes(int64(c.SeqLen) * int64(b) * int64(c.Hidden) * int64(c.DType.Size()))
}

// BoundaryBytes returns the bytes crossing a stage boundary per
// microbatch: the s×b×h hidden-state tensor. For Bert-0.64B in fp32
// this is the "microbatch_size × 1.5 MB" the paper quotes (Sec. II-A).
func (c Config) BoundaryBytes(b int) units.Bytes {
	return units.Bytes(int64(c.SeqLen) * int64(b) * int64(c.Hidden) * int64(c.DType.Size()))
}

// BlockForwardFLOPs returns the forward FLOPs of one block for a
// microbatch of b sequences: the dense matmuls contribute 24·s·h² per
// token and attention score/context another 4·s²·h.
func (c Config) BlockForwardFLOPs(b int) units.FLOPs {
	s, h := float64(c.SeqLen), float64(c.Hidden)
	perSeq := s*(24*h*h) + 4*s*s*h
	return units.FLOPs(float64(b) * perSeq)
}

// LogitsBytes returns the activation bytes of the output logits tensor
// (b×s×V) retained by the final stage per microbatch.
func (c Config) LogitsBytes(b int) units.Bytes {
	return units.Bytes(int64(b) * int64(c.SeqLen) * int64(c.Vocab) * int64(c.DType.Size()))
}

// HeadForwardFLOPs returns the output-projection (logits) cost of the
// final stage per microbatch.
func (c Config) HeadForwardFLOPs(b int) units.FLOPs {
	return units.FLOPs(2 * float64(b) * float64(c.SeqLen) * float64(c.Hidden) * float64(c.Vocab))
}

// IterationFLOPs returns the useful (non-recomputed) FLOPs of one
// training iteration over the given number of microbatches: forward +
// backward across all blocks plus the head.
func (c Config) IterationFLOPs(microbatch, microbatches int) units.FLOPs {
	perMB := units.FLOPs(float64(c.Layers))*c.BlockForwardFLOPs(microbatch)*3 +
		c.HeadForwardFLOPs(microbatch)*3
	return perMB * units.FLOPs(microbatches)
}

// Precision describes how many bytes each parameter costs in each
// persistent state class. The paper's systems train with
// mixed-precision Adam: fp16 parameters and gradients, fp32 optimizer
// state (master copy + two moments), reproducing Table I's roughly
// 15% / 45% split between params+grads and optimizer states.
type Precision struct {
	ParamBytes int64 // per parameter
	GradBytes  int64
	OptBytes   int64
}

// MixedAdam is the default mixed-precision Adam accounting.
func MixedAdam() Precision {
	return Precision{ParamBytes: 2, GradBytes: 2, OptBytes: 12}
}

// FP32Adam is full-precision Adam (params 4, grads 4, m+v 8).
func FP32Adam() Precision {
	return Precision{ParamBytes: 4, GradBytes: 4, OptBytes: 8}
}

// StateBytesPerParam returns the total persistent bytes per parameter.
func (p Precision) StateBytesPerParam() int64 {
	return p.ParamBytes + p.GradBytes + p.OptBytes
}
