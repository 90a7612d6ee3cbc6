// Command mpress-plan computes, inspects, persists and visualizes the
// memory-compaction plan MPress produces for a training job — or, with
// -auto, searches the whole strategy space for the fastest one.
//
// Usage:
//
//	mpress-plan -model bert-1.67B -topo dgx1 -mb 12
//	mpress-plan -model gpt-10.3B -schedule dapple -gantt
//	mpress-plan -model bert-0.64B -system recompute
//	mpress-plan -model bert-1.67B -auto
//	mpress-plan -model bert-1.67B -tp 2 -save plan.json
//	mpress-plan -model bert-1.67B -tp 2 -load plan.json -trace run.trace.json
//	mpress-plan -model bert-1.67B -remote http://127.0.0.1:7323
//
// -auto runs the planner-v2 branch-and-bound over (system, stage
// count, partition strategy, TP degree), prints the winning strategy,
// its plan, and the search report (nodes expanded / pruned / memo
// hits). The winner is byte-identical at every -workers setting.
// -auto runs no single job, so it refuses -trace, -gantt, -load,
// -force and -remote; -workers needs -auto and -force needs -load.
//
// Saved plans record the job's canonical fingerprint as their label;
// loading a plan under a different job is refused unless -force is
// given; a loaded plan runs through the runner (runner.RunPlan), so
// its report and trace match the run that saved it. Systems that do
// not plan refuse -save and -load, and the analytic ZeRO models
// -trace and -gantt. With -remote, planning and simulation are
// offloaded to a running mpressd daemon (and its warm plan cache); the
// plan and trace come back over the wire.
//
// The trace file loads in chrome://tracing or https://ui.perfetto.dev.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mpress/internal/hw"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/runner"
	"mpress/internal/serve/client"
	"mpress/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	model, topo, schedule, system string
	mb, tp, workers               int
	auto, force, gantt            bool
	save, load, trace, remote     string
}

// run is the whole command, parameterized over its arguments and
// output streams so tests can drive it; it returns the exit code: 0 on
// success, 1 on an error, 2 on a malformed command line and 3 when the
// job runs out of memory (with -auto: when no strategy fits).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpress-plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.model, "model", "bert-1.67B", "model: bert-<size> or gpt-<size>")
	fs.StringVar(&o.topo, "topo", "dgx1", "topology, one of: "+strings.Join(hw.Topologies.Names(), ", "))
	fs.StringVar(&o.schedule, "schedule", "", "schedule, one of: "+strings.Join(pipeline.Schedules.Names(), ", ")+" (default by family)")
	fs.StringVar(&o.system, "system", "mpress", "training system, one of: "+strings.Join(runner.Systems.Names(), ", "))
	fs.IntVar(&o.mb, "mb", 0, "microbatch size (default 12 for Bert, 2 for GPT)")
	fs.IntVar(&o.tp, "tp", 0, "tensor-parallel degree (0 or 1: no TP)")
	fs.BoolVar(&o.auto, "auto", false, "auto-search the whole strategy space instead of planning one preset")
	fs.IntVar(&o.workers, "workers", 0, "auto-search evaluation workers (0 = GOMAXPROCS; the winner is identical at any setting)")
	fs.StringVar(&o.save, "save", "", "write the computed plan as JSON to this file")
	fs.StringVar(&o.load, "load", "", "load a previously saved plan instead of planning")
	fs.BoolVar(&o.force, "force", false, "load a plan even if its job label mismatches this job")
	fs.StringVar(&o.trace, "trace", "", "write the run's Chrome trace JSON to this file")
	fs.BoolVar(&o.gantt, "gantt", false, "render the run's pipeline diagram as ASCII art")
	fs.StringVar(&o.remote, "remote", "", "offload planning to a running mpressd at this base URL")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	code, err := o.execute(stdout)
	if err != nil {
		fmt.Fprintf(stderr, "mpress-plan: %v\n", err)
		return 1
	}
	return code
}

// config is the job as the runner sees it: its canonical fingerprint
// is the label saved plans carry and loads are checked against.
func (o *options) config() (runner.Config, error) {
	family, size, _ := strings.Cut(o.model, "-")
	fam, err := runner.Families.Lookup(family)
	if err != nil {
		return runner.Config{}, err
	}
	m, err := fam.Variants.Lookup(size)
	if err != nil {
		return runner.Config{}, err
	}
	topo, err := hw.LookupTopology(o.topo)
	if err != nil {
		return runner.Config{}, err
	}
	kind := fam.Schedule
	if o.schedule != "" {
		if kind, err = pipeline.Schedules.Lookup(o.schedule); err != nil {
			return runner.Config{}, err
		}
	}
	sys, err := runner.Systems.Lookup(o.system)
	if err != nil {
		return runner.Config{}, err
	}
	micro := o.mb
	if micro == 0 {
		micro = fam.MicrobatchSize
	}
	return runner.Config{
		Topology:       topo,
		Model:          m,
		Schedule:       kind,
		System:         sys,
		MicrobatchSize: micro,
		TPDegree:       o.tp,
	}, nil
}

// checkModes rejects flags the chosen mode would silently ignore.
func (o *options) checkModes() error {
	if o.auto && (o.trace != "" || o.gantt || o.load != "" || o.force || o.remote != "") {
		return errors.New("-auto runs no single job; -trace, -gantt, -load, -force and -remote do not apply")
	}
	if o.workers != 0 && !o.auto {
		return errors.New("-workers sizes the -auto search; it needs -auto")
	}
	if o.force && o.load == "" {
		return errors.New("-force overrides the job check of -load; it needs -load")
	}
	return nil
}

// execute runs the command against w and returns its exit code.
func (o *options) execute(w io.Writer) (int, error) {
	if err := o.checkModes(); err != nil {
		return 0, err
	}
	cfg, err := o.config()
	if err != nil {
		return 0, err
	}
	if o.auto {
		return o.executeAuto(w, cfg)
	}

	job, err := runner.NewJob(cfg)
	if err != nil {
		return 0, err
	}
	c := job.Config
	if !c.System.Planned() {
		if o.save != "" || o.load != "" {
			return 0, fmt.Errorf("-save and -load need a plan; %v does not plan", c.System)
		}
		if c.System.IsZeRO() && (o.trace != "" || o.gantt) {
			return 0, fmt.Errorf("-trace and -gantt need a simulated timeline; %v is an analytic model", c.System)
		}
	}
	if err := writeDemand(w, job); err != nil {
		return 0, err
	}
	if o.remote != "" {
		return o.executeRemote(w, job)
	}

	r := runner.New(runner.Options{Workers: 1})
	var jr runner.JobResult
	if o.load != "" {
		f, err := os.Open(o.load)
		if err != nil {
			return 0, err
		}
		pl, err := job.LoadPlan(f, o.force)
		f.Close()
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(w, "\nloaded plan from %s\n", o.load)
		jr = r.RunPlan(context.Background(), job, pl)
	} else {
		jr = r.RunKeep(context.Background(), job)
	}
	if jr.Err != nil {
		return 0, jr.Err
	}
	rep := jr.Report
	if pl := rep.Plan; pl == nil {
		fmt.Fprintf(w, "\n%v does not plan: no memory-saving plan\n", c.System)
	} else {
		if o.load == "" {
			fmt.Fprintf(w, "\nplanner emulations: %d\n", pl.Emulations)
		}
		if o.save != "" {
			if err := savePlan(w, job, pl, o.save); err != nil {
				return 0, err
			}
		}
		writePlan(w, pl)
	}
	if code := writeOutcome(w, rep); code != 0 {
		return code, nil
	}
	if !o.gantt && o.trace == "" {
		return 0, nil
	}
	tl := trace.Collect(jr.State.ExecOpts, jr.State.Exec)
	tl.LaneNames = jr.State.TraceLaneNames()
	if o.gantt {
		fmt.Fprintln(w)
		tl.WriteGantt(w)
		fmt.Fprintln(w, "\nbusy time by operator kind:")
		for _, s := range tl.Summarize() {
			fmt.Fprintf(w, "  %-14v %5d ops  %v\n", s.Kind, s.Count, s.Busy)
		}
	}
	if o.trace != "" {
		if err := writeFile(o.trace, tl.WriteChrome); err != nil {
			return 0, err
		}
		fmt.Fprintf(w, "trace written to %s\n", o.trace)
	}
	return 0, nil
}

// executeAuto runs -auto and persists the winner's plan with -save.
func (o *options) executeAuto(w io.Writer, cfg runner.Config) (int, error) {
	res, err := runAuto(w, cfg, o.tp, o.workers)
	if err != nil {
		return 0, err
	}
	if res.Best() == nil {
		return 3, nil
	}
	if o.save == "" {
		return 0, nil
	}
	if !res.WinnerConfig.System.Planned() {
		return 0, fmt.Errorf("-save: the winning strategy's system, %v, does not plan", res.WinnerConfig.System)
	}
	wj, err := runner.NewJob(*res.WinnerConfig)
	if err != nil {
		return 0, err
	}
	return 0, savePlan(w, wj, res.WinnerReport.Plan, o.save)
}

// writeDemand prints the job header and its analytic per-stage memory
// demand.
func writeDemand(w io.Writer, job *runner.Job) error {
	c := job.Config
	part, err := pipeline.PartitionModel(c.Model, c.Stages, c.Strategy, c.Schedule,
		*c.Precision, c.MicrobatchSize, c.Microbatches)
	if err != nil {
		return err
	}
	demand := pipeline.DemandTP(c.Model, *c.Precision, part, c.Schedule, c.MicrobatchSize, c.Microbatches, c.TP())
	topo := c.Topology
	fmt.Fprintf(w, "%s on %s, %v, microbatch %d\n", c.Model.Name, topo.Name, c.Schedule, c.MicrobatchSize)
	fmt.Fprintf(w, "parameters: %.2fB   per-GPU capacity: %v\n", c.Model.Billions(), topo.GPU.Memory)
	if c.TP() > 1 {
		g, err := c.Grid()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "grid: %s\n", g.Shape)
	}
	fmt.Fprintf(w, "job fingerprint: %s\n\n", job.Fingerprint())
	if c.TP() > 1 {
		fmt.Fprintln(w, "per-stage memory demand (per TP rank):")
	} else {
		fmt.Fprintln(w, "per-stage memory demand:")
	}
	for s, d := range demand {
		marker := ""
		if d > topo.GPU.Memory {
			marker = "  << overflows"
		}
		fmt.Fprintf(w, "  stage %d: %8.1f GiB%s\n", s, d.GiBf(), marker)
	}
	return nil
}

// writeOutcome prints the run's throughput and traffic, or its OOM;
// it returns the exit code, 3 on OOM.
func writeOutcome(w io.Writer, rep *runner.Report) int {
	if rep.Failed() {
		fmt.Fprintf(w, "\nresult: OOM (%v)\n", rep.OOM)
		return 3
	}
	fmt.Fprintf(w, "\nthroughput: %.1f TFLOPS, %.1f samples/s (simulated %v)\n",
		rep.TFLOPS, rep.SamplesPerSec, rep.Duration)
	fmt.Fprintf(w, "traffic: NVLink %v, PCIe %v, NVMe %v", rep.NVLinkBytes, rep.PCIeBytes, rep.NVMeBytes)
	if rep.TPAllReduceBytes > 0 {
		fmt.Fprintf(w, " (TP all-reduce %v)", rep.TPAllReduceBytes)
	}
	fmt.Fprintln(w)
	return 0
}

// executeRemote offloads the job to an mpressd daemon and renders the
// same summary from the wire response.
func (o *options) executeRemote(w io.Writer, job *runner.Job) (int, error) {
	if o.load != "" {
		return 0, errors.New("-load is local-only (the daemon always plans); drop -remote to replay a saved plan")
	}
	if o.gantt {
		return 0, errors.New("-gantt needs the local run's full timeline; drop -remote")
	}
	ctx := context.Background()
	cl := client.New(o.remote)
	resp, err := cl.PlanWait(ctx, job.Config, "")
	if err != nil {
		return 0, fmt.Errorf("remote: %w", err)
	}
	hit := ""
	if resp.PlanCacheHit {
		hit = " (plan cache hit)"
	}
	fmt.Fprintf(w, "\nplanned remotely by %s in %.0fms%s, job %s\n", o.remote, resp.ElapsedMS, hit, resp.ID)

	if !job.Config.System.Planned() {
		fmt.Fprintf(w, "%v does not plan: no memory-saving plan\n", job.Config.System)
	} else {
		// The wire plan is checked against the local job fingerprint —
		// the same check LoadPlan applies to files.
		pl, err := job.LoadPlan(strings.NewReader(string(resp.Plan)), false)
		if err != nil {
			return 0, fmt.Errorf("remote plan: %w", err)
		}
		if o.save != "" {
			// The daemon serialized the plan with the job's fingerprint
			// label; persist it in canonical plan.Save bytes (transport
			// re-indents the embedded file).
			canonical, err := resp.CanonicalPlanFile()
			if err != nil {
				return 0, fmt.Errorf("remote plan: %w", err)
			}
			if err := os.WriteFile(o.save, canonical, 0o644); err != nil {
				return 0, err
			}
			fmt.Fprintf(w, "plan saved to %s\n", o.save)
		}
		writePlan(w, pl)
	}
	if code := writeOutcome(w, resp.Report); code != 0 {
		return code, nil
	}
	if o.trace != "" {
		err := writeFile(o.trace, func(f io.Writer) error { return cl.Trace(ctx, resp.ID, f) })
		if err != nil {
			return 0, fmt.Errorf("remote trace: %w", err)
		}
		fmt.Fprintf(w, "trace written to %s\n", o.trace)
	}
	return 0, nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func savePlan(w io.Writer, job *runner.Job, pl *plan.Plan, path string) error {
	if err := writeFile(path, func(f io.Writer) error { return job.SavePlan(f, pl) }); err != nil {
		return err
	}
	fmt.Fprintf(w, "plan saved to %s\n", path)
	return nil
}

func writePlan(w io.Writer, pl *plan.Plan) {
	fmt.Fprintf(w, "device mapping (stage -> GPU): %v\n", pl.Mapping)
	fmt.Fprintln(w, "memory-saving plan:")
	for _, mech := range []plan.Mechanism{plan.MechRecompute, plan.MechHostSwap, plan.MechD2D} {
		saved := pl.SavedByMech[mech]
		r := pl.StageRange[mech]
		if r[0] < 0 {
			fmt.Fprintf(w, "  %-14v not used\n", mech)
			continue
		}
		fmt.Fprintf(w, "  %-14v stages %d-%d, saves %v\n", mech, r[0], r[1], saved)
	}
}
