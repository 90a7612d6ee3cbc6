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
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mpress"
	"mpress/internal/names"
	"mpress/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	family, topo, systems, mb, tp, minibatches, sizes, nodes, fabric string
	mtbf, ckptInterval, timeout                                      time.Duration
	faultSeed                                                        uint64
	jobs                                                             int
	quiet                                                            bool
}

// run is the whole command, parameterized over its arguments and
// output streams so tests can drive it; it returns the exit code: 0 on
// success, 1 on an error (a failed job included) and 2 on a malformed
// command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpress-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.family, "family", "bert", "model family to sweep: bert or gpt")
	fs.StringVar(&o.topo, "topo", "dgx1", "topology, one of: "+strings.Join(mpress.TopologyNames(), ", "))
	fs.StringVar(&o.systems, "systems", "plain,swap,recompute,d2d,mpress",
		"comma-separated systems, any of: "+strings.Join(mpress.SystemNames(), ","))
	fs.StringVar(&o.mb, "mb", "", "comma-separated microbatch sizes (default per family)")
	fs.StringVar(&o.tp, "tp", "1", "comma-separated tensor-parallel degrees")
	fs.StringVar(&o.minibatches, "minibatches", "", "comma-separated minibatch counts (default 2)")
	fs.StringVar(&o.sizes, "sizes", "", "comma-separated variant sizes (default: all)")
	fs.StringVar(&o.nodes, "nodes", "1", "comma-separated node counts; > 1 runs hybrid data+pipeline parallelism")
	fs.StringVar(&o.fabric, "fabric", "fast", "inter-node fabric for multi-node points, one of: "+strings.Join(mpress.FabricNames(), ", "))
	fs.DurationVar(&o.mtbf, "mtbf", 0, "inject seeded faults with this mean time between failures (simulated; 0 disables)")
	fs.DurationVar(&o.ckptInterval, "ckpt-interval", 0, "checkpoint interval (simulated; with -mtbf, 0 means the Young–Daly optimum)")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 0, "seed for the deterministic fault schedule")
	fs.IntVar(&o.jobs, "jobs", 0, "concurrent training jobs (default GOMAXPROCS)")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the whole sweep after this long (default none)")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress the progress line and summary on stderr")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if err := o.execute(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "mpress-sweep: %v\n", err)
		return 1
	}
	return 0
}

func parseInts(flagName, s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad %s value %q", flagName, f)
		}
		out = append(out, v)
	}
	return out, nil
}

// execute runs the sweep, writing CSV rows to stdout and progress to
// stderr.
func (o *options) execute(stdout, stderr io.Writer) error {
	topo, err := mpress.LookupTopology(o.topo)
	if err != nil {
		return err
	}
	fam, err := runner.Families.Lookup(o.family)
	if err != nil {
		return err
	}
	sizes := fam.Variants.Names()
	if o.sizes != "" {
		sizes = strings.Split(o.sizes, ",")
	}
	models := make([]mpress.Model, len(sizes))
	for i, size := range sizes {
		if models[i], err = fam.Variants.Lookup(size); err != nil {
			return err
		}
	}

	mbs := []int{fam.MicrobatchSize}
	if o.mb != "" {
		if mbs, err = parseInts("microbatch", o.mb); err != nil {
			return err
		}
	}
	nodeCounts, err := parseInts("nodes", o.nodes)
	if err != nil {
		return err
	}
	tpDegrees, err := parseInts("tp", o.tp)
	if err != nil {
		return err
	}
	fab, err := mpress.LookupFabric(o.fabric)
	if err != nil {
		return err
	}
	minis := []int{0} // 0 means the Config default (2)
	if o.minibatches != "" {
		if minis, err = parseInts("minibatches", o.minibatches); err != nil {
			return err
		}
	}

	// Resilience: -mtbf turns on seeded fault injection, and any
	// resilient run checkpoints (-ckpt-interval 0 lets Young–Daly pick
	// the interval from the MTBF). -ckpt-interval alone runs
	// checkpoint-only (overhead measurement, no faults).
	var faults *mpress.Faults
	var ckptPolicy *mpress.Checkpoint
	if o.mtbf > 0 {
		faults = &mpress.Faults{Seed: o.faultSeed, MTBF: mpress.Duration(o.mtbf)}
	}
	if o.mtbf > 0 || o.ckptInterval > 0 {
		ckptPolicy = &mpress.Checkpoint{Interval: mpress.Duration(o.ckptInterval)}
	}
	mtbfCol, ckptCol := "-", "-"
	if faults != nil {
		mtbfCol = o.mtbf.String()
	}
	if ckptPolicy != nil {
		if ckptPolicy.Interval == 0 {
			ckptCol = "young-daly"
		} else {
			ckptCol = o.ckptInterval.String()
		}
	}
	resilient := faults != nil || ckptPolicy != nil

	var systems []mpress.System
	for _, name := range strings.Split(o.systems, ",") {
		sys, err := mpress.LookupSystem(name)
		if err != nil {
			return err
		}
		systems = append(systems, sys)
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
	for _, m := range models {
		size := names.NameOf(fam.Variants, m)
		for _, nodes := range nodeCounts {
			var clus *mpress.Cluster
			if nodes > 1 {
				if clus, err = mpress.NewCluster(nodes, topo, fab); err != nil {
					return err
				}
			}
			for _, mini := range minis {
				for _, mb := range mbs {
					for _, tp := range tpDegrees {
						for i, sys := range systems {
							cfgs = append(cfgs, mpress.Config{
								Topology:       topo,
								Model:          m,
								Schedule:       fam.Schedule,
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
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	var done atomic.Int64
	var r *mpress.Runner
	r = mpress.NewRunner(mpress.RunnerOptions{
		Workers: o.jobs,
		OnJobDone: func(jr mpress.JobResult) {
			if o.quiet {
				return
			}
			n := done.Add(1)
			hits := r.Stats().PlanCacheHits
			fmt.Fprintf(stderr, "\rmpress-sweep: %d/%d jobs done, %d plan-cache hits ", n, len(cfgs), hits)
		},
	})
	start := time.Now()
	results := r.RunConfigs(ctx, cfgs)
	elapsed := time.Since(start)
	if !o.quiet {
		fmt.Fprintln(stderr)
	}

	w := csv.NewWriter(stdout)
	defer w.Flush()
	if err := w.Write([]string{
		"family", "size", "params_b", "topology", "system", "microbatch", "minibatches",
		"tp", "nodes", "fabric", "mtbf", "ckpt_interval",
		"status", "tflops", "samples_per_sec", "max_gpu_peak_gib", "host_peak_gib",
		"cluster_tflops", "nic_egress_gib", "tp_allreduce_gib",
		"goodput", "failures", "lost_work_s", "ckpt_gib",
	}); err != nil {
		return err
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
			names.NameOf(runner.Families, fam), p.size, fmt.Sprintf("%.2f", p.params),
			topo.Name, names.NameOf(runner.Systems, systems[p.sysIdx]), strconv.Itoa(p.mb), strconv.Itoa(mini),
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
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}

	if !o.quiet {
		st := r.Stats()
		fmt.Fprintf(stderr,
			"mpress-sweep: %d jobs in %s (%d workers); plan cache: %d hits, %d misses, %d computed, %d evicted; lowerings: %d built, %d shared; plan %s, exec %s\n",
			st.Jobs, elapsed.Round(time.Millisecond), r.Workers(),
			st.PlanCacheHits, st.PlanCacheMisses, st.PlanComputes, st.PlanCacheEvictions,
			st.LoweringBuilds, st.LoweringShared,
			st.PlanTime.Round(time.Millisecond), st.ExecTime.Round(time.Millisecond))
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sweep aborted: %v", err)
	}
	// Per-job errors are data in the CSV ("error" rows), but the
	// process must not pretend the batch succeeded: scripts and CI
	// gate on the exit code.
	if failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", failed, len(results))
	}
	return nil
}
