// Command mpress-bench regenerates the paper's evaluation tables and
// figures on the simulated testbeds.
//
// Usage:
//
//	mpress-bench -list
//	mpress-bench -exp fig7
//	mpress-bench -exp all -jobs 4
//	mpress-bench            # run everything
//
// Planner cost is measured by BenchmarkRefine (`make profile` runs it
// under the CPU and heap profilers) and by the benchmark/ module.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mpress/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list available experiments and exit")
	exp := flag.String("exp", "", `run only the named experiment, or "all"; one of: `+strings.Join(experiments.Names(), ", "))
	jobs := flag.Int("jobs", 0, "concurrent training jobs per experiment (default GOMAXPROCS)")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-20s %s\n", e.Name, e.Title)
		}
		return
	}

	experiments.SetParallelism(*jobs)

	run := func(e experiments.Experiment) {
		fmt.Printf("=== %s: %s ===\n", e.Name, e.Title)
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "mpress-bench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	summary := func() {
		st := experiments.Stats()
		fmt.Fprintf(os.Stderr, "mpress-bench: %d jobs; plan cache: %d hits, %d misses\n",
			st.Jobs, st.PlanCacheHits, st.PlanCacheMisses)
	}

	if *exp != "" && *exp != "all" {
		e, ok := experiments.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "mpress-bench: unknown experiment %q (valid names: %s)\n",
				*exp, strings.Join(experiments.Names(), ", "))
			os.Exit(2)
		}
		run(e)
		summary()
		return
	}
	for _, e := range experiments.All() {
		run(e)
	}
	summary()
}
