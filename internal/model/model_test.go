package model

import (
	"testing"

	"mpress/internal/tensor"
	"mpress/internal/units"
)

func TestBertVariantSizes(t *testing.T) {
	// Table II: variant names must match their parameter counts
	// within 8%.
	want := map[string]float64{
		"0.35B": 0.35, "0.64B": 0.64, "1.67B": 1.67, "4.0B": 4.0, "6.2B": 6.2,
	}
	for name, b := range want {
		cfg, err := BertVariants.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		got := cfg.Billions()
		if got < b*0.92 || got > b*1.08 {
			t.Errorf("Bert-%s has %.2fB params, want ≈%.2fB", name, got, b)
		}
	}
}

func TestGPTVariantSizes(t *testing.T) {
	want := map[string]float64{
		"5.3B": 5.3, "10.3B": 10.3, "15.4B": 15.4, "20.4B": 20.4, "25.5B": 25.5,
	}
	for name, b := range want {
		cfg, err := GPTVariants.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		got := cfg.Billions()
		if got < b*0.92 || got > b*1.08 {
			t.Errorf("GPT-%s has %.2fB params, want ≈%.2fB", name, got, b)
		}
	}
}

func TestUnknownVariant(t *testing.T) {
	if _, err := BertVariants.Lookup("9000B"); err == nil {
		t.Error("unknown Bert variant must error")
	}
	if _, err := GPTVariants.Lookup("tiny"); err == nil {
		t.Error("unknown GPT variant must error")
	}
}

func TestSizesOrdering(t *testing.T) {
	for _, sizes := range [][]string{BertVariants.Names(), GPTVariants.Names()} {
		if len(sizes) != 5 {
			t.Fatalf("want 5 variants, got %v", sizes)
		}
	}
	if BertVariants.Names()[0] != "0.35B" || BertVariants.Names()[4] != "6.2B" {
		t.Errorf("Bert sizes order: %v", BertVariants.Names())
	}
	if GPTVariants.Names()[0] != "5.3B" || GPTVariants.Names()[4] != "25.5B" {
		t.Errorf("GPT sizes order: %v", GPTVariants.Names())
	}
}

func TestValidate(t *testing.T) {
	good, _ := BertVariants.Lookup("0.35B")
	bad := good
	bad.Heads = 7 // does not divide 1024
	if err := bad.Validate(); err == nil {
		t.Error("indivisible heads not caught")
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Layers = 0 },
		func(c *Config) { c.Hidden = -1 },
		func(c *Config) { c.SeqLen = 0 },
		func(c *Config) { c.Vocab = 0 },
	} {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
}

func TestBoundaryBytesMatchesPaper(t *testing.T) {
	// Sec. II-A: Bert-0.64B exchanges microbatch_size × ~1.5 MB
	// between stages. Our fp32 s×h boundary tensor is
	// 512×1280×4 = 2.5 MiB per sequence — same order.
	cfg, _ := BertVariants.Lookup("0.64B")
	per := cfg.BoundaryBytes(1)
	if per.MiBf() < 1.0 || per.MiBf() > 3.5 {
		t.Errorf("boundary bytes per sequence = %v, want ~1.5-2.5MiB", per)
	}
	// Linear in microbatch size.
	if cfg.BoundaryBytes(12) != 12*per {
		t.Error("boundary bytes must scale with microbatch")
	}
}

func TestActivationFormula(t *testing.T) {
	cfg, _ := GPTVariants.Lookup("5.3B")
	b1 := cfg.BlockActivationBytes(1)
	b2 := cfg.BlockActivationBytes(2)
	if b2 != 2*b1 {
		t.Error("activation bytes must scale with microbatch")
	}
	// For GPT-5.3B (s=512, h=4096, a=64): s·b·h·(34+5·64·512/4096)
	// = 512·4096·74 ≈ 148 MiB per sequence in fp16.
	if got := b1.MiBf(); got < 130 || got > 165 {
		t.Errorf("GPT-5.3B block activation = %v, want ≈148MiB", b1)
	}
	// fp32 must cost more than fp16.
	fp32 := cfg
	fp32.DType = tensor.FP32
	if fp32.BlockActivationBytes(1) <= b1 {
		t.Error("fp32 activations must exceed fp16")
	}
}

func TestFLOPsFormulas(t *testing.T) {
	cfg, _ := GPTVariants.Lookup("5.3B")
	fw := cfg.BlockForwardFLOPs(2)
	// Sanity: one block fw for b=2 of GPT-5.3B ≈ 2·(512·24·4096² +
	// 4·512²·4096) ≈ 0.42 TFLOPs.
	if got := fw.TFLOPs(); got < 0.35 || got > 0.52 {
		t.Errorf("block fw = %v TFLOPs, want ≈0.42", got)
	}
	if cfg.HeadForwardFLOPs(1) <= 0 {
		t.Error("head FLOPs must be positive")
	}
	// Iteration FLOPs ≈ layers × block × 3 × microbatches (fw+bw).
	it := cfg.IterationFLOPs(2, 4)
	min := 4 * 3 * 25 * float64(fw) / 1.05
	if float64(it) < min {
		t.Errorf("iteration FLOPs = %v too small", it)
	}
}

func TestPrecision(t *testing.T) {
	m := MixedAdam()
	if m.StateBytesPerParam() != 16 {
		t.Errorf("mixed Adam = %d B/param, want 16", m.StateBytesPerParam())
	}
	f := FP32Adam()
	if f.StateBytesPerParam() != 16 {
		t.Errorf("fp32 Adam = %d B/param, want 16", f.StateBytesPerParam())
	}
	// Table I: optimizer ≈ 3× params+grads under mixed precision.
	if m.OptBytes != 3*(m.ParamBytes+m.GradBytes)-0 {
		t.Errorf("mixed Adam optimizer share off: %+v", m)
	}
}

func TestTableIShares(t *testing.T) {
	// Table I reports activations ≈ 39-42%, optimizer ≈ 44-46%,
	// params+grads ≈ 14-15% for the paper's configs. Verify the
	// persistent-state split (opt vs p+g) which is workload
	// independent: 12/16 = 75% vs 4/16 = 25% of persistent bytes,
	// i.e. ≈3:1 as in the table.
	p := MixedAdam()
	ratio := float64(p.OptBytes) / float64(p.ParamBytes+p.GradBytes)
	if ratio != 3 {
		t.Errorf("opt:(p+g) ratio = %v, want 3", ratio)
	}
}

func TestGPT3Config(t *testing.T) {
	c := GPT3_175B()
	if got := c.Billions(); got < 160 || got > 190 {
		t.Errorf("GPT-3 params = %.1fB, want ≈175B", got)
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	cfg, _ := BertVariants.Lookup("0.35B")
	w1, err := NewWorkload(cfg, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := NewWorkload(cfg, 2, 42)
	b1, b2 := w1.Next(), w2.Next()
	if b1.Sequences() != 2 || len(b1.Tokens[0]) != cfg.SeqLen {
		t.Fatalf("batch shape = %d×%d", b1.Sequences(), len(b1.Tokens[0]))
	}
	for i := range b1.Tokens {
		for j := range b1.Tokens[i] {
			if b1.Tokens[i][j] != b2.Tokens[i][j] {
				t.Fatal("same seed must give same tokens")
			}
			if tok := b1.Tokens[i][j]; tok < 0 || int(tok) >= cfg.Vocab {
				t.Fatalf("token %d out of vocab", tok)
			}
		}
	}
	if w1.Next().Step != 1 || w1.Steps() != 2 {
		t.Error("step counting wrong")
	}
}

func TestWorkloadRejectsBadArgs(t *testing.T) {
	cfg, _ := BertVariants.Lookup("0.35B")
	if _, err := NewWorkload(cfg, 0, 1); err == nil {
		t.Error("batch size 0 accepted")
	}
	bad := cfg
	bad.Layers = 0
	if _, err := NewWorkload(bad, 1, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestWorkloadZeroSeed(t *testing.T) {
	cfg, _ := BertVariants.Lookup("0.35B")
	w, err := NewWorkload(cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := w.Next()
	var nonzero bool
	for _, tok := range b.Tokens[0] {
		if tok != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Error("zero seed must still produce varied tokens")
	}
}

func TestArchString(t *testing.T) {
	if Bert.String() != "Bert" || GPT.String() != "GPT" || Arch(9).String() != "Arch(9)" {
		t.Error("arch names wrong")
	}
}

func TestMemoryOrderOfMagnitude(t *testing.T) {
	// Table II: GPT-10.3B needs ≈325 GB total GPU memory at mb=2.
	// Persistent state alone is 10.3e9 × 16 B ≈ 154 GiB; activations
	// make up the rest. Check persistent accounting here (the
	// pipeline package tests the full per-stage demand).
	cfg, _ := GPTVariants.Lookup("10.3B")
	persistent := units.Bytes(cfg.TotalParams() * MixedAdam().StateBytesPerParam())
	if g := persistent.GiBf(); g < 140 || g > 170 {
		t.Errorf("GPT-10.3B persistent = %.0f GiB, want ≈154", g)
	}
}
