package pipeline

import (
	"fmt"
	"strings"
)

// This file is the CLI/wire name registry for the pipeline enums, the
// single source every command derives its help text and unknown-name
// errors from (mirroring runner's system registry). The names double
// as the canonical tokens of search.Key, so adding a schedule or
// strategy here automatically extends the auto-search key alphabet.

// scheduleNames lists the execution schedules in declaration order.
var scheduleNames = []struct {
	name string
	kind ScheduleKind
}{
	{"pipedream", PipeDream},
	{"dapple", DAPPLE},
	{"gpipe", GPipe},
}

// ScheduleNames lists every name LookupSchedule accepts, in
// declaration order.
func ScheduleNames() []string {
	out := make([]string, len(scheduleNames))
	for i, e := range scheduleNames {
		out[i] = e.name
	}
	return out
}

// LookupSchedule resolves a CLI name ("pipedream", "dapple", "gpipe"),
// case-insensitively. Unknown names error with the full valid list.
func LookupSchedule(name string) (ScheduleKind, error) {
	lower := strings.ToLower(strings.TrimSpace(name))
	for _, e := range scheduleNames {
		if lower == e.name {
			return e.kind, nil
		}
	}
	return 0, fmt.Errorf("pipeline: unknown schedule %q (valid names: %s)",
		name, strings.Join(ScheduleNames(), ", "))
}

// KnownSchedule reports whether k is a registered schedule — the
// validation gate behind runner.Config.WithDefaults, so an
// out-of-range value from hand-built JSON fails at config time instead
// of silently simulating as some other schedule.
func KnownSchedule(k ScheduleKind) bool {
	for _, e := range scheduleNames {
		if e.kind == k {
			return true
		}
	}
	return false
}

// strategyNames lists the partition strategies in declaration order.
var strategyNames = []struct {
	name  string
	strat Strategy
}{
	{"compute-balanced", ComputeBalanced},
	{"memory-balanced", MemoryBalanced},
}

// StrategyNames lists every name LookupStrategy accepts, in
// declaration order.
func StrategyNames() []string {
	out := make([]string, len(strategyNames))
	for i, e := range strategyNames {
		out[i] = e.name
	}
	return out
}

// LookupStrategy resolves a CLI name ("compute-balanced",
// "memory-balanced"), case-insensitively. Unknown names error with the
// full valid list.
func LookupStrategy(name string) (Strategy, error) {
	lower := strings.ToLower(strings.TrimSpace(name))
	for _, e := range strategyNames {
		if lower == e.name {
			return e.strat, nil
		}
	}
	return 0, fmt.Errorf("pipeline: unknown strategy %q (valid names: %s)",
		name, strings.Join(StrategyNames(), ", "))
}

// KnownStrategy reports whether s is a registered partition strategy
// (the Strategy counterpart of KnownSchedule).
func KnownStrategy(s Strategy) bool {
	for _, e := range strategyNames {
		if e.strat == s {
			return true
		}
	}
	return false
}

// StrategyName returns the CLI name of a strategy (the inverse of
// LookupStrategy), or its String form for unknown values.
func StrategyName(s Strategy) string {
	for _, e := range strategyNames {
		if e.strat == s {
			return e.name
		}
	}
	return s.String()
}
