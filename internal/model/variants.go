package model

import (
	"mpress/internal/names"
	"mpress/internal/tensor"
)

// bertVocab and gptVocab are the standard WordPiece / BPE vocabulary
// sizes of the public Bert and GPT-2 checkpoints.
const (
	bertVocab = 30522
	gptVocab  = 50257
)

func bert(name string, layers, hidden int) Config {
	return Config{
		Name:   "Bert-" + name,
		Arch:   Bert,
		Layers: layers,
		Hidden: hidden,
		Heads:  hidden / 64,
		SeqLen: 512,
		Vocab:  bertVocab,
		// The paper's PipeDream runs Bert in full precision
		// (Sec. IV-C notes DAPPLE, not PipeDream, enables FP16).
		DType: tensor.FP32,
	}
}

func gpt(name string, layers, hidden int) Config {
	return Config{
		Name:   "GPT-" + name,
		Arch:   GPT,
		Layers: layers,
		Hidden: hidden,
		Heads:  hidden / 64,
		// 512 calibrates per-stage activation demand so that the
		// largest DAPPLE-trainable GPT lands at 5.3B as in Table II.
		SeqLen: 512,
		Vocab:  gptVocab,
		DType:  tensor.FP16,
	}
}

// BertVariants holds the paper's Bert configurations (Table II), in
// ascending size: 0.35, 0.64, 1.67, 4.0 and 6.2 billion parameters,
// built by making Bert "deeper and wider" as in the paper's Sec. IV-A.
// Each is named by its nominal size string, e.g. "1.67B".
var BertVariants = names.New[Config]("model: unknown Bert variant").
	Add("0.35B", bert("0.35B", 24, 1024)).
	Add("0.64B", bert("0.64B", 30, 1280)).
	Add("1.67B", bert("1.67B", 32, 2048)).
	Add("4.0B", bert("4.0B", 50, 2560)).
	Add("6.2B", bert("6.2B", 54, 3072))

// GPTVariants holds the paper's GPT configurations (Table II), in
// ascending size: 5.3, 10.3, 15.4, 20.4 and 25.5 billion parameters.
var GPTVariants = names.New[Config]("model: unknown GPT variant").
	Add("5.3B", gpt("5.3B", 25, 4096)).
	Add("10.3B", gpt("10.3B", 50, 4096)).
	Add("15.4B", gpt("15.4B", 48, 5120)).
	Add("20.4B", gpt("20.4B", 64, 5120)).
	Add("25.5B", gpt("25.5B", 56, 6144))

// GPT3_175B returns the GPT-3 configuration used by the Sec. V
// Grace-Hopper projection.
func GPT3_175B() Config {
	c := gpt("175B", 96, 12288)
	c.SeqLen = 2048
	return c
}
