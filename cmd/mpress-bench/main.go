// Command mpress-bench regenerates the paper's evaluation tables and
// figures on the simulated testbeds.
//
// Usage:
//
//	mpress-bench -list
//	mpress-bench -exp fig7
//	mpress-bench -exp all -jobs 4
//	mpress-bench -exp scaling -perf BENCH_scaling.json
//	mpress-bench -exp planner -cpuprofile cpu.pprof -memprofile mem.pprof
//	mpress-bench            # run everything
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"

	"mpress"
	"mpress/internal/experiments"
)

// perfRecord is one training job's performance sample, emitted by
// -perf for trajectory tracking across commits. SamplesPerSec is the
// simulated throughput (zero for OOM/error jobs); WallMS is the real
// time the job occupied a worker, the cost of running the simulator
// itself.
// Planner fields break the wall time down: PlanMS is the real time the
// planner ran (zero on a plan-cache hit, flagged by PlanCacheHit),
// PlanWorkers the refinement parallelism it used, and SimEvents /
// SimEventsPerSec the executor's deterministic event count and the
// real-time rate it processed them at — the simulator's own
// throughput, not the simulated system's.
type perfRecord struct {
	Experiment      string  `json:"experiment"`
	Fingerprint     string  `json:"fingerprint"`
	System          string  `json:"system"`
	Model           string  `json:"model"`
	SamplesPerSec   float64 `json:"samples_per_sec"`
	Goodput         float64 `json:"goodput,omitempty"`
	WallMS          float64 `json:"wall_ms"`
	PlanMS          float64 `json:"plan_ms"`
	PlanWorkers     int     `json:"plan_workers,omitempty"`
	PlanCacheHit    bool    `json:"plan_cache_hit,omitempty"`
	SimEvents       int64   `json:"sim_events,omitempty"`
	SimEventsPerSec float64 `json:"sim_events_per_sec,omitempty"`
	Status          string  `json:"status"`
	// Search fields, set on the one status="search" record each
	// auto-search emits (the autosearch experiment): the branch-and-
	// bound counters and the winner strategy. Fingerprint then holds
	// the search's base fingerprint and Model the preset name; WallMS
	// is the whole search's wall time.
	SearchExpanded int `json:"search_expanded,omitempty"`
	SearchPruned   int `json:"search_pruned,omitempty"`
	SearchMemoHits int `json:"search_memo_hits,omitempty"`
	SearchSkipped  int `json:"search_skipped,omitempty"`
}

func main() {
	list := flag.Bool("list", false, "list available experiments and exit")
	exp := flag.String("exp", "", `run only the named experiment, or "all"; one of: `+strings.Join(experiments.Names(), ", "))
	jobs := flag.Int("jobs", 0, "concurrent training jobs per experiment (default GOMAXPROCS)")
	perf := flag.String("perf", "", "write per-job perf records (JSON array) to this file")
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

	// The observer runs on worker goroutines; current is only written
	// between experiments, while the pool is idle.
	var (
		mu      sync.Mutex
		records []perfRecord
		current string
	)
	if *perf != "" {
		experiments.SetObserver(func(jr mpress.JobResult) {
			rec := perfRecord{
				Experiment:   current,
				Fingerprint:  jr.Job.Fingerprint(),
				System:       jr.Job.Config.System.String(),
				Model:        jr.Job.Config.Model.Name,
				WallMS:       float64(jr.Elapsed.Microseconds()) / 1e3,
				PlanMS:       float64(jr.StageTimes["plan"].Microseconds()) / 1e3,
				PlanWorkers:  jr.Job.Config.PlanWorkers,
				PlanCacheHit: jr.PlanCacheHit,
				Status:       "ok",
			}
			switch {
			case jr.Err != nil:
				rec.Status = "error"
			case jr.Report.Failed():
				rec.Status = "oom"
			default:
				rec.SamplesPerSec = jr.Report.SamplesPerSec
				rec.Goodput = jr.Report.Goodput
				rec.SimEvents = jr.Report.SimEvents
				if d := jr.StageTimes["execute"]; d > 0 {
					rec.SimEventsPerSec = float64(rec.SimEvents) / d.Seconds()
				}
			}
			mu.Lock()
			records = append(records, rec)
			mu.Unlock()
		})
		experiments.SetSearchObserver(func(preset string, r *mpress.SearchResult) {
			rec := perfRecord{
				Experiment:     current,
				Fingerprint:    r.BaseFingerprint,
				Model:          preset,
				WallMS:         float64(r.Wall.Microseconds()) / 1e3,
				Status:         "search",
				SearchExpanded: r.Expanded,
				SearchPruned:   r.Pruned,
				SearchMemoHits: r.MemoHits,
				SearchSkipped:  r.Skipped,
			}
			if best := r.Best(); best != nil {
				rec.System = best.Key.String()
				rec.SamplesPerSec = best.Eval.EffSamplesPerSec
			}
			mu.Lock()
			records = append(records, rec)
			mu.Unlock()
		})
	}

	writePerf := func() {
		if *perf == "" {
			return
		}
		// Jobs complete in pool order; sort for a stable artifact.
		sort.Slice(records, func(i, j int) bool {
			if records[i].Experiment != records[j].Experiment {
				return records[i].Experiment < records[j].Experiment
			}
			if records[i].Fingerprint != records[j].Fingerprint {
				return records[i].Fingerprint < records[j].Fingerprint
			}
			// The planner experiment reruns one fingerprint at several
			// worker settings (not part of the config fingerprint);
			// keep those rows in a stable order too.
			return records[i].PlanWorkers < records[j].PlanWorkers
		})
		out, err := json.MarshalIndent(records, "", "  ")
		if err == nil {
			err = os.WriteFile(*perf, append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpress-bench: writing %s: %v\n", *perf, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mpress-bench: wrote %d perf records to %s\n", len(records), *perf)
	}

	run := func(e experiments.Experiment) {
		current = e.Name
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
		writePerf()
		summary()
		return
	}
	for _, e := range experiments.All() {
		run(e)
	}
	writePerf()
	summary()
}
