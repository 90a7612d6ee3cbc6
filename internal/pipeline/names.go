package pipeline

import "mpress/internal/names"

// The name tables of the pipeline enums: CLI help, -schedule lookups
// and runner.Config.WithDefaults' value gate all read them. A
// strategy's name is also its String form, which search.Key prints.

// Schedules maps the execution schedules' CLI names to their kinds, in
// declaration order.
var Schedules = names.New[ScheduleKind]("pipeline: unknown schedule").
	Add("pipedream", PipeDream).
	Add("dapple", DAPPLE).
	Add("gpipe", GPipe)

// Strategies maps the partition strategies' names to their values, in
// declaration order.
var Strategies = names.New[Strategy]("pipeline: unknown strategy").
	Add("compute-balanced", ComputeBalanced).
	Add("memory-balanced", MemoryBalanced)
