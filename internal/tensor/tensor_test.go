package tensor

import (
	"testing"

	"mpress/internal/units"
)

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		Activation:     "activation",
		Parameter:      "parameter",
		Gradient:       "gradient",
		OptimizerState: "optimizer",
		Workspace:      "workspace",
		Class(99):      "Class(99)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestClassRecomputable(t *testing.T) {
	if !Activation.Recomputable() {
		t.Error("activations must be recomputable")
	}
	for _, c := range []Class{Parameter, Gradient, OptimizerState, Workspace} {
		if c.Recomputable() {
			t.Errorf("%v must not be recomputable", c)
		}
	}
}

func TestDTypeSize(t *testing.T) {
	if FP32.Size() != 4 || FP16.Size() != 2 || BF16.Size() != 2 {
		t.Errorf("dtype sizes wrong: fp32=%d fp16=%d bf16=%d", FP32.Size(), FP16.Size(), BF16.Size())
	}
	if FP16.String() != "fp16" || FP32.String() != "fp32" || BF16.String() != "bf16" {
		t.Error("dtype names wrong")
	}
}

func TestRegistryAddGet(t *testing.T) {
	r := NewRegistry()
	id1 := r.Add(Tensor{Name: "a", Class: Activation, Size: units.MB(216), Stage: 0})
	id2 := r.Add(Tensor{Name: "b", Class: Parameter, Size: units.MB(100), Stage: 1})
	if id1 != 0 || id2 != 1 {
		t.Fatalf("ids = %d, %d; want 0, 1", id1, id2)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if got := r.Get(id1); got.Name != "a" || got.ID != id1 {
		t.Errorf("Get(%d) = %+v", id1, got)
	}
}
