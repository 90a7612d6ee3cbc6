// Command mpress-bench regenerates the paper's evaluation tables and
// figures on the simulated testbeds.
//
// Usage:
//
//	mpress-bench -list
//	mpress-bench -exp fig7
//	mpress-bench -exp all -jobs 4
//	mpress-bench -exp planner -cpuprofile cpu.pprof -memprofile mem.pprof
//	mpress-bench            # run everything
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mpress/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list available experiments and exit")
	exp := flag.String("exp", "", `run only the named experiment, or "all"; one of: `+strings.Join(experiments.Names(), ", "))
	jobs := flag.Int("jobs", 0, "concurrent training jobs per experiment (default GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the run, post-GC) to this file")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-20s %s\n", e.Name, e.Title)
		}
		return
	}

	fatal := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "mpress-bench: "+format+"\n", args...)
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("starting CPU profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	// Deferred so it runs on every exit path below; profiles the live
	// heap after a GC, which is what leak hunting wants.
	writeMemProfile := func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal("writing heap profile: %v", err)
		}
	}
	defer writeMemProfile()

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
