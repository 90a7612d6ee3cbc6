// Command mpress-sweep runs a parameter sweep over models, systems and
// batch shapes, emitting one CSV row per training job — the raw
// material behind the paper's figures, for plotting or regression
// tracking.
//
// Jobs run concurrently through the runner's worker pool (-jobs) and
// share a fingerprint-keyed plan cache, so sweep points that differ
// only in minibatch count reuse the computed plan. Rows are written in
// deterministic grid order regardless of completion order.
//
// Usage:
//
//	mpress-sweep -family bert -topo dgx1 -systems plain,swap,recompute,d2d,mpress
//	mpress-sweep -family gpt -topo dgx2 -mb 2,4 -jobs 4 > gpt_dgx2.csv
//	mpress-sweep -family gpt -sizes 5.3B -systems mpress -nodes 1,2,4,8 -fabric slow
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mpress"
	"mpress/internal/model"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mpress-sweep: "+format+"\n", args...)
	os.Exit(1)
}

func parseInts(flagName, s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			fail("bad %s value %q", flagName, f)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	family := flag.String("family", "bert", "model family to sweep: bert or gpt")
	topoName := flag.String("topo", "dgx1", "topology, one of: "+strings.Join(mpress.TopologyNames(), ", "))
	systemsFlag := flag.String("systems", "plain,swap,recompute,d2d,mpress",
		"comma-separated systems, any of: "+strings.Join(mpress.SystemNames(), ","))
	mbFlag := flag.String("mb", "", "comma-separated microbatch sizes (default per family)")
	tpFlag := flag.String("tp", "1", "comma-separated tensor-parallel degrees")
	miniFlag := flag.String("minibatches", "", "comma-separated minibatch counts (default 2)")
	sizesFlag := flag.String("sizes", "", "comma-separated variant sizes (default: all)")
	nodesFlag := flag.String("nodes", "1", "comma-separated node counts; > 1 runs hybrid data+pipeline parallelism")
	fabricFlag := flag.String("fabric", "fast", "inter-node fabric for multi-node points, one of: "+strings.Join(mpress.FabricNames(), ", "))
	mtbf := flag.Duration("mtbf", 0, "inject seeded faults with this mean time between failures (simulated; 0 disables)")
	ckptInterval := flag.Duration("ckpt-interval", 0, "checkpoint interval (simulated; with -mtbf, 0 means the Young–Daly optimum)")
	faultSeed := flag.Uint64("fault-seed", 0, "seed for the deterministic fault schedule")
	jobs := flag.Int("jobs", 0, "concurrent training jobs (default GOMAXPROCS)")
	planWorkers := flag.Int("plan-workers", 0, "concurrent candidate evaluations inside each planner refinement round (plans are byte-identical at any setting; 0 sequential)")
	cacheEntries := flag.Int("cache-entries", 0, "plan cache entry cap (0 default, negative unbounded)")
	timeout := flag.Duration("timeout", 0, "abort the whole sweep after this long (default none)")
	quiet := flag.Bool("quiet", false, "suppress the progress line and summary on stderr")
	flag.Parse()

	topo, err := mpress.LookupTopology(*topoName)
	if err != nil {
		fail("%v", err)
	}

	var sizes []string
	var variant func(string) mpress.Model
	var schedule mpress.Schedule
	var defaultMB int
	switch strings.ToLower(*family) {
	case "bert":
		sizes, variant = model.BertSizes(), mpress.MustBert
		schedule, defaultMB = mpress.PipeDream, 12
	case "gpt":
		sizes, variant = model.GPTSizes(), mpress.MustGPT
		schedule, defaultMB = mpress.DAPPLE, 2
	default:
		fail("unknown family %q", *family)
	}
	if *sizesFlag != "" {
		sizes = strings.Split(*sizesFlag, ",")
	}

	mbs := []int{defaultMB}
	if *mbFlag != "" {
		mbs = parseInts("microbatch", *mbFlag)
	}
	nodeCounts := parseInts("nodes", *nodesFlag)
	tpDegrees := parseInts("tp", *tpFlag)
	fab, err := mpress.LookupFabric(*fabricFlag)
	if err != nil {
		fail("%v", err)
	}
	minis := []int{0} // 0 means the Config default (2)
	if *miniFlag != "" {
		minis = parseInts("minibatches", *miniFlag)
	}

	// Resilience: -mtbf turns on seeded fault injection, and any
	// resilient run checkpoints (-ckpt-interval 0 lets Young–Daly pick
	// the interval from the MTBF). -ckpt-interval alone runs
	// checkpoint-only (overhead measurement, no faults).
	var faults *mpress.Faults
	var ckptPolicy *mpress.Checkpoint
	if *mtbf > 0 {
		faults = &mpress.Faults{Seed: *faultSeed, MTBF: mpress.Duration(*mtbf)}
	}
	if *mtbf > 0 || *ckptInterval > 0 {
		ckptPolicy = &mpress.Checkpoint{Interval: mpress.Duration(*ckptInterval)}
	}
	mtbfCol, ckptCol := "-", "-"
	if faults != nil {
		mtbfCol = mtbf.String()
	}
	if ckptPolicy != nil {
		if ckptPolicy.Interval == 0 {
			ckptCol = "young-daly"
		} else {
			ckptCol = ckptInterval.String()
		}
	}
	resilient := faults != nil || ckptPolicy != nil

	var systems []mpress.System
	var systemNames []string
	for _, name := range strings.Split(*systemsFlag, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		sys, err := mpress.LookupSystem(name)
		if err != nil {
			fail("%v", err)
		}
		systems = append(systems, sys)
		systemNames = append(systemNames, name)
	}

	// Build the full grid up front so the runner can overlap jobs and
	// dedup plan work; points keeps the CSV row prefix per grid point.
	type point struct {
		size   string
		params float64
		sysIdx int
		mb     int
		mini   int
		nodes  int
		tp     int
	}
	var cfgs []mpress.Config
	var points []point
	for _, size := range sizes {
		m := variant(size)
		for _, nodes := range nodeCounts {
			var clus *mpress.Cluster
			if nodes > 1 {
				if clus, err = mpress.NewCluster(nodes, topo, fab); err != nil {
					fail("%v", err)
				}
			}
			for _, mini := range minis {
				for _, mb := range mbs {
					for _, tp := range tpDegrees {
						for i, sys := range systems {
							cfgs = append(cfgs, mpress.Config{
								Topology:       topo,
								Model:          m,
								Schedule:       schedule,
								System:         sys,
								MicrobatchSize: mb,
								Minibatches:    mini,
								TPDegree:       tp,
								Cluster:        clus,
								Faults:         faults,
								Checkpoint:     ckptPolicy,
							})
							points = append(points, point{size, m.Billions(), i, mb, mini, nodes, tp})
						}
					}
				}
			}
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var done atomic.Int64
	var r *mpress.Runner
	r = mpress.NewRunner(mpress.RunnerOptions{
		Workers:          *jobs,
		PlanWorkers:      *planWorkers,
		PlanCacheEntries: *cacheEntries,
		OnJobDone: func(jr mpress.JobResult) {
			if *quiet {
				return
			}
			n := done.Add(1)
			hits := r.Stats().PlanCacheHits
			fmt.Fprintf(os.Stderr, "\rmpress-sweep: %d/%d jobs done, %d plan-cache hits ", n, len(cfgs), hits)
		},
	})
	start := time.Now()
	results := r.RunConfigs(ctx, cfgs)
	elapsed := time.Since(start)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	if err := w.Write([]string{
		"family", "size", "params_b", "topology", "system", "microbatch", "minibatches",
		"tp", "nodes", "fabric", "mtbf", "ckpt_interval",
		"status", "tflops", "samples_per_sec", "max_gpu_peak_gib", "host_peak_gib",
		"cluster_tflops", "nic_egress_gib", "tp_allreduce_gib",
		"goodput", "failures", "lost_work_s", "ckpt_gib",
	}); err != nil {
		fail("%v", err)
	}
	failed := 0
	for i, jr := range results {
		p := points[i]
		mini := p.mini
		if mini == 0 {
			mini = 2 // the default WithDefaults fills in
		}
		fabName := "-"
		if p.nodes > 1 {
			fabName = fab.Name
		}
		row := []string{
			*family, p.size, fmt.Sprintf("%.2f", p.params),
			topo.Name, systemNames[p.sysIdx], strconv.Itoa(p.mb), strconv.Itoa(mini),
			strconv.Itoa(p.tp), strconv.Itoa(p.nodes), fabName, mtbfCol, ckptCol,
		}
		rep := jr.Report
		switch {
		case jr.Err != nil:
			failed++
			row = append(row, "error", "", "", "", "", "", "", "", "", "", "", "")
		case rep.Failed():
			row = append(row, "oom", "", "", "", "", "", "", "", "", "", "", "")
		default:
			var peak mpress.Bytes
			for _, pk := range rep.PerGPUPeak {
				if pk > peak {
					peak = pk
				}
			}
			row = append(row,
				"ok",
				fmt.Sprintf("%.2f", rep.TFLOPS),
				fmt.Sprintf("%.2f", rep.SamplesPerSec),
				fmt.Sprintf("%.2f", peak.GiBf()),
				fmt.Sprintf("%.2f", rep.HostPeak.GiBf()),
				fmt.Sprintf("%.2f", rep.ClusterTFLOPS),
				fmt.Sprintf("%.2f", rep.NICBytes.GiBf()),
				fmt.Sprintf("%.2f", rep.TPAllReduceBytes.GiBf()),
			)
			if resilient {
				row = append(row,
					fmt.Sprintf("%.2f", rep.Goodput),
					strconv.Itoa(rep.Failures),
					fmt.Sprintf("%.3f", rep.LostWork.Secondsf()),
					fmt.Sprintf("%.2f", rep.CheckpointBytes.GiBf()),
				)
			} else {
				row = append(row, "-", "-", "-", "-")
			}
		}
		if err := w.Write(row); err != nil {
			fail("%v", err)
		}
	}
	w.Flush()

	if !*quiet {
		st := r.Stats()
		fmt.Fprintf(os.Stderr,
			"mpress-sweep: %d jobs in %s (%d workers); plan cache: %d hits, %d misses, %d computed, %d evicted; lowerings: %d built, %d shared; plan %s, exec %s\n",
			st.Jobs, elapsed.Round(time.Millisecond), r.Workers(),
			st.PlanCacheHits, st.PlanCacheMisses, st.PlanComputes, st.PlanCacheEvictions,
			st.LoweringBuilds, st.LoweringShared,
			st.PlanTime.Round(time.Millisecond), st.ExecTime.Round(time.Millisecond))
	}
	if err := ctx.Err(); err != nil {
		fail("sweep aborted: %v", err)
	}
	// Per-job errors are data in the CSV ("error" rows), but the
	// process must not pretend the batch succeeded: scripts and CI
	// gate on the exit code.
	if failed > 0 {
		fail("%d of %d jobs failed", failed, len(results))
	}
}
