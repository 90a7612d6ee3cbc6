// Package search is the whole-strategy auto-searcher (planner v2): a
// deterministic branch-and-bound over training strategies — pipeline
// system, stage count, partition strategy, tensor-parallel degree,
// node count and checkpoint interval — that lowers each candidate to a
// runner.Config, evaluates it on the simulator through the runner's
// worker pool, prunes subtrees with a sound static lower bound on
// time-to-fit, and memoizes evaluations in a fingerprint-keyed
// transposition table. The winning strategy is byte-identical at every
// worker count: candidates are ranked in canonical enumeration order,
// evaluations are speculative, and every decision (prune, memoize,
// incumbent update) is re-applied strictly sequentially in rank order.
package search

import (
	"fmt"

	"mpress/internal/names"
	"mpress/internal/pipeline"
	"mpress/internal/runner"
	"mpress/internal/units"
)

// Key is the canonical, human-readable identity of one whole-training
// strategy after normalization: it is derived from the *defaulted*
// lowered config, so raw strategies that alias (e.g. stages=0 and
// stages=<plane default>) normalize to the same Key.
type Key struct {
	// System is the pipeline/memory system (runner.SystemPlain …).
	System runner.System `json:"system"`
	// TP is the tensor-parallel degree (1 = off).
	TP int `json:"tp"`
	// Stages is the resolved pipeline stage count.
	Stages int `json:"stages"`
	// Partition is the stage-partitioning strategy.
	Partition pipeline.Strategy `json:"partition"`
	// Nodes is the replica (node) count; 1 = single server.
	Nodes int `json:"nodes"`
	// CheckpointNS is the checkpoint interval in nanoseconds: -1 when
	// the strategy does not checkpoint, 0 for the Young–Daly optimum.
	CheckpointNS int64 `json:"ckpt_ns"`
}

// KeyOf derives the canonical Key of a defaulted config (the output of
// Config.WithDefaults / runner.NewJob).
func KeyOf(c runner.Config) Key {
	k := Key{
		System:       c.System,
		TP:           c.TP(),
		Stages:       c.Stages,
		Partition:    c.Strategy,
		Nodes:        c.Replicas(),
		CheckpointNS: -1,
	}
	if c.Checkpoint != nil {
		k.CheckpointNS = int64(c.Checkpoint.Interval)
	}
	return k
}

// String is a compact human form for reports ("sys=mpress tp=1 …").
func (k Key) String() string {
	s := fmt.Sprintf("sys=%s tp=%d stages=%d part=%s nodes=%d",
		names.NameOf(runner.Systems, k.System), k.TP, k.Stages, k.Partition, k.Nodes)
	switch {
	case k.CheckpointNS == 0:
		s += " ckpt=young-daly"
	case k.CheckpointNS > 0:
		s += " ckpt=" + units.Duration(k.CheckpointNS).String()
	}
	return s
}
