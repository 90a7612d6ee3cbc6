package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"mpress/internal/exec"
	"mpress/internal/graph"
	"mpress/internal/mapping"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/profiler"
	"mpress/internal/runner"
)

// canonicalMinibatches is the minibatch count the runner plans at
// (runner's unexported constant of the same name); the decomposition
// lowers at it so its plan must equal the runner's cached one.
const canonicalMinibatches = 2

// decomp is one planned job taken apart layer by layer: plan.Compute
// with its Build calls counted and timed through the Build hook, then
// the planner's other calls timed once each on a fresh lowering.
type decomp struct {
	name                 string
	compute, build       time.Duration
	buildCalls           int
	emulations           int
	partition, collect   time.Duration
	mapping              time.Duration
	topo, validate       time.Duration
	analyze, apply, exec time.Duration
	ops                  int
	events               int64
}

// decompose re-plans pj directly through the layers and checks the
// resulting plan is byte-identical to the one the runner computed.
func decompose(ctx context.Context, tr *tracer, pj plannedJob) (decomp, error) {
	d := decomp{name: pj.name}
	c := pj.job.Config
	g, err := c.Grid()
	if err != nil {
		return d, err
	}
	plane := g.Plane()
	allowed, err := allowedFor(c.System)
	if err != nil {
		return d, err
	}
	root := tr.begin("bench.decompose", -1, 0)
	defer tr.end(root)
	timed := func(name string, f func() error) (time.Duration, error) {
		sp := tr.begin(name, root, 0)
		t0 := time.Now()
		err := f()
		el := time.Since(t0)
		tr.end(sp)
		return el, err
	}

	var part pipeline.Partition
	if d.partition, err = timed("pipeline.PartitionModel", func() (err error) {
		part, err = pipeline.PartitionModel(c.Model, c.Stages, c.Strategy, c.Schedule,
			*c.Precision, c.MicrobatchSize, c.Microbatches)
		return err
	}); err != nil {
		return d, err
	}
	bc := pipeline.BuildConfig{
		Model: c.Model, Prec: *c.Precision, Part: part, Kind: c.Schedule,
		MicrobatchSize: c.MicrobatchSize, Microbatches: c.Microbatches,
		Minibatches: canonicalMinibatches, TP: c.TPDegree,
	}

	compute := tr.begin("plan.Compute", root, 0)
	var mu sync.Mutex
	build := func() (*pipeline.Built, error) {
		sp := tr.begin("pipeline.Build", compute, 0)
		t0 := time.Now()
		b, err := pipeline.Build(bc)
		el := time.Since(t0)
		tr.end(sp)
		mu.Lock()
		d.buildCalls++
		d.build += el
		mu.Unlock()
		return b, err
	}
	t0 := time.Now()
	pl, err := plan.Compute(plan.Options{
		Topo: plane, Build: build, Allowed: allowed,
		DisableMappingSearch: c.DisableMappingSearch, DisableStriping: c.DisableStriping,
		Ctx: ctx,
	})
	d.compute = time.Since(t0)
	tr.end(compute)
	if err != nil {
		return d, err
	}
	d.emulations = pl.Emulations
	var direct, cached bytes.Buffer
	if err := pl.Save(&direct, pj.job.Fingerprint()); err != nil {
		return d, err
	}
	if err := pj.plan.Save(&cached, pj.job.Fingerprint()); err != nil {
		return d, err
	}
	if !bytes.Equal(direct.Bytes(), cached.Bytes()) {
		return d, fmt.Errorf("plan.Compute's plan differs from the runner's")
	}

	// Each call below gets a fresh lowering, built untimed: the
	// profiler, and plan.Apply, which instruments the graph in place.
	var fresh [2]*pipeline.Built
	for i := range fresh {
		if fresh[i], err = pipeline.Build(bc); err != nil {
			return d, err
		}
	}
	d.ops = fresh[0].Graph.Len()
	var prof *profiler.Profile
	if d.collect, err = timed("profiler.Collect", func() (err error) {
		prof, err = profiler.Collect(plane, fresh[0], nil)
		return err
	}); err != nil {
		return d, err
	}
	if d.mapping, err = timed("mapping.Search", func() error {
		_, err := mapping.Search(plane, prof.StagePeak)
		return err
	}); err != nil {
		return d, err
	}
	// Build leaves the graph's order cached; copies start cold, as the
	// graph is after plan.Apply instruments it.
	var order []graph.OpID
	cp := copyGraph(fresh[1].Graph)
	if d.topo, err = timed("graph.TopoOrder", func() (err error) {
		order, err = cp.TopoOrder()
		return err
	}); err != nil {
		return d, err
	}
	cp = copyGraph(fresh[1].Graph)
	if d.validate, err = timed("graph.Validate", cp.Validate); err != nil {
		return d, err
	}
	d.analyze, _ = timed("graph.Analyze", func() error {
		cp.Analyze(order)
		return nil
	})
	var opts *exec.Options
	if d.apply, err = timed("plan.Apply", func() (err error) {
		opts, err = plan.Apply(pl, fresh[1], plane)
		return err
	}); err != nil {
		return d, err
	}
	var res *exec.Result
	if d.exec, err = timed("exec.Run", func() (err error) {
		res, err = exec.Run(*opts)
		return err
	}); err != nil {
		return d, err
	}
	d.events = res.Events
	return d, nil
}

// copyGraph returns g with its ops re-added, so no order is cached.
func copyGraph(g *graph.Graph) *graph.Graph {
	cp := graph.New(g.Tensors)
	for _, op := range g.Ops() {
		cp.AddOp(op)
	}
	return cp
}

// allowedFor is the runner's system → planner mechanism mapping.
func allowedFor(s runner.System) (plan.Allowed, error) {
	switch s {
	case runner.SystemGPUCPUSwap:
		return plan.Allowed{HostSwap: true}, nil
	case runner.SystemRecompute:
		return plan.Allowed{Recompute: true}, nil
	case runner.SystemMPressD2D:
		return plan.Allowed{D2D: true}, nil
	case runner.SystemMPress:
		return plan.AllMechanisms(), nil
	}
	return plan.Allowed{}, fmt.Errorf("system %v does not plan", s)
}
