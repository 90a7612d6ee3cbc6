// Command benchmark measures one planning request end to end — the
// planner's host time and memory and the simulated throughput of the
// plan it returns — on four workloads, and checks every simulated
// output against committed digests.
//
//	go run . -workload plan-cold -seed 1 -seconds 25 -trace 0
//	go run . -workload sweep -trace 1          # per-layer metrics + Chrome trace
//	go run .                                   # all four, each in its own process
//	go run . compare base.jsonl new.jsonl      # verdict per metric × workload
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end untraced, per-layer
// traced). See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string // "0" off, "1" on, anything else: on, Chrome trace to that file
	update   bool
	out      string
	smoke    bool // one op per workload, one set-up, no warm-up; set by the smoke test
}

func (o options) traced() bool { return o.trace != "0" && o.trace != "" }

// traceFile is where a traced run writes its Chrome trace.
func (o options) traceFile() string {
	if o.trace == "1" {
		return filepath.Join(".bench_build", "trace-"+o.workload+".json")
	}
	return o.trace
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "summary" {
		os.Exit(runSummary(os.Args[2:], os.Stdout))
	}
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (plan-cold, autosearch, sweep, serve-hits); empty runs all four, each in a child process")
	fs.Int64Var(&o.seed, "seed", 1, "seed for op order and the serve mix")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long the measured phase runs")
	fs.StringVar(&o.trace, "trace", "0", "0: untraced end-to-end run; 1 or a file: traced per-layer run writing a Chrome trace (1: .bench_build/trace-<workload>.json)")
	fs.BoolVar(&o.update, "update", false, "record output digests into "+expectedFile+" (run from the benchmark directory)")
	fs.StringVar(&o.out, "out", "", "append the run's record to this JSONL file (input of compare and summary)")
	fs.Parse(os.Args[1:])
	if o.workload == "" {
		os.Exit(runAll(o))
	}
	res, err := runWorkload(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as -out stores it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Host     host   `json:"host"`
	result
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

func runWorkload(o options, stdout io.Writer) (*result, error) {
	wl, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	dig, err := loadDigests(o.workload, o.update)
	if err != nil {
		return nil, err
	}
	e := &env{
		ctx:     context.Background(),
		rng:     rand.New(rand.NewSource(o.seed)),
		dig:     dig,
		smoke:   o.smoke,
		workers: runtime.GOMAXPROCS(0),
	}
	h := hostInfo()
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU)
	fmt.Fprintf(stdout, "run workload=%s seed=%d seconds=%g traced=%v\n", o.workload, o.seed, o.seconds, o.traced())

	// Set-up, several times; the last instance is measured.
	reps := setupReps
	if o.smoke {
		reps = 1
	}
	checked := newPhase(nil) // set-up and decomposition outputs
	var inst instance
	var setups []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if inst, err = wl.setup(e, checked); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	d := time.Duration(o.seconds * float64(time.Second))
	if o.smoke {
		d = 0
	}
	m := map[string]metric{}
	var measured []*phase
	if !o.traced() {
		ph := newPhase(nil)
		if err := inst.measure(ph, d); err != nil {
			return nil, err
		}
		measured = append(measured, ph)
		m["throughput_ops_per_s"] = metric{ph.throughput(), "1/s"}
		m["latency_p50_ms"] = metric{ph.latencyMS(0.5), "ms"}
		m["latency_p90_ms"] = metric{ph.latencyMS(0.9), "ms"}
		m["setup_s"] = metric{median(setups), "s"}
		m["peak_rss_mib"] = metric{peakRSSMiB(), "MiB"}
	} else {
		// An untraced half, then a traced half: their difference is the
		// tracing overhead.
		base := newPhase(nil)
		if err := inst.measure(base, d/2); err != nil {
			return nil, err
		}
		tr := &tracer{}
		ph := newPhase(tr)
		if err := inst.measure(ph, d/2); err != nil {
			return nil, err
		}
		measured = append(measured, base, ph)
		layerMetrics(m, ph, base)
		if err := decomposeAll(e, inst, tr, checked, m, stdout); err != nil {
			return nil, err
		}
		for _, lt := range tr.selfTimes() {
			fmt.Fprintf(stdout, "layer %-26s calls %6d  total %10.1f ms  self %10.1f ms\n", lt.name, lt.calls, ms(lt.total), ms(lt.self))
		}
		if err := tr.writeTraceFile(o.traceFile()); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "trace %s\n", o.traceFile())
	}

	res := &result{Metrics: m}
	for _, ph := range append(measured, checked) {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for _, msg := range ph.errs {
			fmt.Fprintf(stdout, "FAIL %s\n", msg)
		}
	}
	res.Correct = res.Failed == 0
	if o.update {
		if !res.Correct {
			return nil, fmt.Errorf("not updating digests: %d ops failed", res.Failed)
		}
		if err := dig.save(o.workload); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "updated %s for %s (%d digests)\n", expectedFile, o.workload, len(dig.got))
	}
	fmt.Fprintf(stdout, "info fail_frac %g frac\n", ratio(float64(res.Failed), float64(res.Attempted)))
	printMetrics(stdout, m)
	if o.out != "" {
		if err := appendRecord(o.out, record{Workload: o.workload, Seed: o.seed, Traced: o.traced(), Host: h, result: *res}); err != nil {
			return nil, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// printMetrics prints every metric by name with its unit, sorted.
func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			m[n] = metric{0, v.Unit}
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// layerMetrics fills the per-layer metrics of a traced phase; base is
// the untraced phase run just before it.
func layerMetrics(m map[string]metric, ph, base *phase) {
	for _, s := range stageOrder {
		m["runner."+s+"_ms"] = metric{ph.stageMS(s), "ms"}
	}
	m["runner.plan_computes"] = metric{ph.perPass(float64(ph.planComputes)), "count"}
	m["runner.plan_cache_hit_frac"] = metric{ratio(float64(ph.planHits), float64(ph.planHits+ph.planMisses)), "frac"}
	m["sim.events"] = metric{ph.perPass(float64(ph.events)), "count"}
	m["sim.events_per_s"] = metric{ratio(float64(ph.events), ph.stage["execute"].Seconds()), "1/s"}
	m["cluster.allreduces"] = metric{ph.perPass(float64(ph.allReduces)), "count"}
	m["cluster.nic_gib"] = metric{ph.perPass(float64(ph.nicBytes) / (1 << 30)), "GiB"}
	m["chaos.failures"] = metric{ph.perPass(float64(ph.chaosFailures)), "count"}
	m["ckpt.checkpoints"] = metric{ph.perPass(float64(ph.checkpoints)), "count"}
	m["search.expanded"] = metric{ph.perPass(float64(ph.expanded)), "count"}
	m["search.pruned"] = metric{ph.perPass(float64(ph.pruned)), "count"}
	m["search.memo_hits"] = metric{ph.perPass(float64(ph.memoHits)), "count"}
	m["search.skipped"] = metric{ph.perPass(float64(ph.skipped)), "count"}
	m["search.ms_per_expanded"] = metric{ratio(ms(ph.searchWall), float64(ph.expanded)), "ms"}
	m["report.sim_samples_per_s_geomean"] = metric{geomean(ph.rates), "samples/s"}

	before := ph.mem0
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	ops := float64(ph.attempted)
	m["go.alloc_mib_per_op"] = metric{ratio(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), ops), "MiB"}
	m["go.mallocs_per_op"] = metric{ratio(float64(after.Mallocs-before.Mallocs), ops), "count"}
	m["go.gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
	m["go.gc_pause_ms"] = metric{float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6, "ms"}

	// Closed loops compare throughput; the open loop's rate is fixed,
	// so it compares median latency.
	over := ratio(base.throughput(), ph.throughput()) - 1
	if ph.serve != nil {
		over = ratio(ph.latencyMS(0.5), base.latencyMS(0.5)) - 1
	}
	m["bench.trace_overhead_frac"] = metric{over, "frac"}
	serveMetrics(m, ph)
}

// serveMetrics fills the serve.* and loadgen.* metrics, which read 0
// on the workloads that do not serve.
func serveMetrics(m map[string]metric, ph *phase) {
	names := []string{"serve.handler_ms_per_req", "serve.runner_plan_ms_per_req", "serve.runner_exec_ms_per_req",
		"serve.http_ms_per_req", "serve.rejected", "serve.queue_depth_max", "serve.plan_cache_hit_frac",
		"loadgen.late_ms_p90", "loadgen.late_ms_max", "loadgen.latency_p98_ms", "loadgen.requests", "loadgen.slo_miss_frac"}
	units := []string{"ms", "ms", "ms", "ms", "count", "count", "frac", "ms", "ms", "ms", "count", "frac"}
	vals := make([]float64, len(names))
	if st := ph.serve; st != nil {
		reqs := st.delta(`mpressd_request_seconds_count{endpoint="plan"}`)
		handler := ratio(1000*st.delta(`mpressd_request_seconds_sum{endpoint="plan"}`), reqs)
		hits, misses := st.delta("mpressd_plan_cache_hits_total"), st.delta("mpressd_plan_cache_misses_total")
		vals = []float64{
			handler,
			ratio(1000*st.delta("mpressd_runner_plan_seconds_total"), reqs),
			ratio(1000*st.delta("mpressd_runner_exec_seconds_total"), reqs),
			mean(msOf(st.rtt)) - handler,
			st.delta(`mpressd_rejected_total{endpoint="plan"}`),
			float64(st.inflightMax.Load()),
			ratio(hits, hits+misses),
			quantile(msOf(st.late), 0.9),
			quantile(msOf(st.late), 1),
			ph.latencyMS(0.98),
			float64(ph.attempted),
			ratio(float64(st.sloMiss), float64(ph.attempted)),
		}
	}
	for i, n := range names {
		m[n] = metric{vals[i], units[i]}
	}
}

func mean(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return ratio(s, float64(len(vs)))
}

// decomposeAll takes every planned job of the workload apart and
// reports the per-call means as the plan/pipeline/profiler/mapping/
// graph/exec metrics.
func decomposeAll(e *env, inst instance, tr *tracer, checked *phase, m map[string]metric, w io.Writer) error {
	pjs, err := inst.planned()
	if err != nil {
		return err
	}
	var sum decomp
	n := 0.0
	for _, pj := range pjs {
		t0 := time.Now()
		d, err := decompose(e.ctx, tr, pj)
		if err != nil {
			err = fmt.Errorf("decompose %s: %w", pj.name, err)
		}
		checked.op(time.Since(t0), err)
		if err != nil {
			continue
		}
		n++
		fmt.Fprintf(w, "decompose %-30s plan.Compute %9.1f ms  %4d emulations  %4d builds %8.1f ms (%4.1f%%)  mapping %6.1f ms  apply %6.1f ms  exec %6.1f ms\n",
			d.name, ms(d.compute), d.emulations, d.buildCalls, ms(d.build),
			100*ratio(float64(d.build), float64(d.compute)), ms(d.mapping), ms(d.apply), ms(d.exec))
		sum.compute += d.compute
		sum.build += d.build
		sum.buildCalls += d.buildCalls
		sum.emulations += d.emulations
		sum.partition += d.partition
		sum.collect += d.collect
		sum.mapping += d.mapping
		sum.topo += d.topo
		sum.validate += d.validate
		sum.analyze += d.analyze
		sum.apply += d.apply
		sum.exec += d.exec
		sum.ops += d.ops
		sum.events += d.events
	}
	per := func(d time.Duration) float64 { return ratio(ms(d), n) }
	m["plan.compute_ms"] = metric{per(sum.compute), "ms"}
	m["plan.emulations"] = metric{ratio(float64(sum.emulations), n), "count"}
	m["plan.build_calls"] = metric{ratio(float64(sum.buildCalls), n), "count"}
	m["plan.build_ms"] = metric{per(sum.build), "ms"}
	m["plan.non_build_ms"] = metric{per(sum.compute - sum.build), "ms"}
	m["plan.apply_ms_per_call"] = metric{per(sum.apply), "ms"}
	m["pipeline.partition_ms"] = metric{per(sum.partition), "ms"}
	m["pipeline.build_ms_per_call"] = metric{ratio(ms(sum.build), float64(sum.buildCalls)), "ms"}
	m["profiler.collect_ms"] = metric{per(sum.collect), "ms"}
	m["mapping.search_ms"] = metric{per(sum.mapping), "ms"}
	m["graph.ops"] = metric{ratio(float64(sum.ops), n), "count"}
	m["graph.topo_order_ms_per_call"] = metric{per(sum.topo), "ms"}
	m["graph.validate_ms_per_call"] = metric{per(sum.validate), "ms"}
	m["graph.analyze_ms_per_call"] = metric{per(sum.analyze), "ms"}
	m["exec.run_ms_per_call"] = metric{per(sum.exec), "ms"}
	m["exec.events_per_call"] = metric{ratio(float64(sum.events), n), "count"}
	return nil
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own child process, so peak RSS is
// per workload, and exits non-zero if any of them fails.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	code := 0
	for _, wl := range workloads {
		args := []string{"-workload", wl.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
		trace := o.trace
		if o.traced() && trace != "1" {
			ext := filepath.Ext(trace)
			trace = strings.TrimSuffix(trace, ext) + "-" + wl.name + ext
		}
		args = append(args, "-trace", trace)
		if o.update {
			args = append(args, "-update")
		}
		if o.out != "" {
			args = append(args, "-out", o.out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
			code = 1
		}
	}
	return code
}
