package runner

import (
	"mpress/internal/model"
	"mpress/internal/names"
	"mpress/internal/pipeline"
)

// Systems maps the CLI names to systems, in presentation order — the
// single source the sweep/fleet tools and the capacity planner derive
// their help text and error messages from.
var Systems = names.New[System]("mpress: unknown system").
	Add("plain", SystemPlain).
	Add("swap", SystemGPUCPUSwap).
	Add("recompute", SystemRecompute).
	Add("d2d", SystemMPressD2D).
	Add("mpress", SystemMPress).
	Add("zero3", SystemZeRO3).
	Add("offload", SystemZeROOffload).
	Add("infinity", SystemZeROInfinity)

// Family is one model family of the paper's evaluation: its size
// variants and the schedule and microbatch size it runs at by default.
type Family struct {
	Variants       *names.Table[model.Config]
	Schedule       pipeline.ScheduleKind
	MicrobatchSize int
}

// Families maps the family names to their presets: Bert runs atop
// PipeDream at microbatch 12 (paper Fig. 7), GPT atop DAPPLE at
// microbatch 2 (Fig. 8).
var Families = names.New[Family]("mpress: unknown family").
	Add("bert", Family{model.BertVariants, pipeline.PipeDream, 12}).
	Add("gpt", Family{model.GPTVariants, pipeline.DAPPLE, 2})
