package main

import (
	"context"
	"fmt"
	"io"

	"mpress/internal/runner"
	"mpress/internal/search"
)

// autoSpace is the space -auto searches: the planner-v2 default,
// with the -tp axis folded in so an explicit (possibly infeasible)
// degree shows up in the report as a typed skip instead of killing
// the search.
func autoSpace(base runner.Config, tpFlag int) search.Space {
	sp := search.DefaultSpace(base)
	if tpFlag > 1 {
		seen := false
		for _, d := range sp.TPDegrees {
			if d == tpFlag {
				seen = true
			}
		}
		if !seen {
			sp.TPDegrees = append(sp.TPDegrees, tpFlag)
		}
	}
	return sp
}

// runAuto drives one whole-strategy auto-search and renders it: the
// base job, the search report, the winning strategy and its plan.
// Everything printed except the wall clock is byte-identical at every
// worker count. It returns the result so main can persist the winner
// plan; an infeasible candidate is report data, never an error.
func runAuto(w io.Writer, base runner.Config, tpFlag, workers int) (*search.Result, error) {
	sp := autoSpace(base, tpFlag)
	fmt.Fprintf(w, "%s on %s, %v, microbatch %d\n", base.Model.Name, base.Topology.Name,
		base.Schedule, base.MicrobatchSize)
	fmt.Fprintf(w, "parameters: %.2fB   per-GPU capacity: %v\n",
		base.Model.Billions(), base.Topology.GPU.Memory)
	fmt.Fprintf(w, "searching %d strategies (%d systems × %d TP × %d stage counts × %d partitions)\n\n",
		sp.Size(base), len(sp.Systems), len(sp.TPDegrees),
		len(sp.StageCounts), len(sp.Partitions))

	res, err := search.Run(context.Background(), base, sp, search.Options{Runner: runner.New(runner.Options{Workers: workers})})
	if err != nil {
		return nil, err
	}
	search.WriteReport(w, res)
	fmt.Fprintf(w, "search wall time: %v\n", res.Wall.Round(1e6))

	if best := res.Best(); best != nil {
		fmt.Fprintf(w, "\nchosen strategy: %s\n", best.Key)
		rep := res.WinnerReport
		fmt.Fprintf(w, "throughput: %.1f TFLOPS, %.1f samples/s (simulated %v)\n",
			rep.TFLOPS, rep.SamplesPerSec, rep.Duration)
		if rep.Plan != nil {
			writePlan(w, rep.Plan)
		}
	} else {
		fmt.Fprintf(w, "\nno strategy in the space fits this job\n")
	}
	return res, nil
}
