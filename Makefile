GO ?= go

.PHONY: check build test race fmt vet loc vet-onepath vet-names smoke fleet-smoke fleet-plan-smoke autosearch-smoke sweep-smoke splice-smoke sim-smoke benchmark-smoke bench benchcheck profile

# The fleet-smoke, fleet-plan-smoke, autosearch-smoke, sweep-smoke and
# splice-smoke targets are -race subsets of the tests race already runs
# (go test -race ./...), so check does not run them a second time; CI
# runs each as its own step. sim-smoke stays: its allocation half runs
# without -race.
check: fmt vet vet-onepath vet-names build race benchcheck sim-smoke benchmark-smoke

# Run every example binary end to end; each must exit 0.
smoke:
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; $(GO) run ./$$d; \
	done

# Fleet acceptance: boot a 3-peer in-process fleet, push 200 mixed
# requests through the ring-aware client, require byte-identical plans
# vs local runner.Train, every request routed to the ring owner of its
# route key (the plan key), one planner search per distinct plan key,
# exactly-once planning for a 64-request burst and for eight
# fingerprints sharing one plan key, and zero goroutine leaks on
# drain. The client's and the ring's own tests run alongside, so the
# client and the daemons provably agree on every route key's owner.
# The result-memo suite rides along under the race detector: repeated
# and concurrent identical requests must run their job once and serve
# byte-identical reports, plans and traces under fresh job IDs.
fleet-smoke:
	$(GO) test -race -run 'TestFleet|TestResultMemo|TestRing|TestGroup' -count=1 \
		./internal/serve/ ./internal/serve/client/ ./internal/fleet/

# Capacity-planner acceptance: a two-candidate catalog where the
# cheaper feasible machine must win the ranking, plus the determinism
# contract — byte-identical ranked CSV and exact plan-cache hit/miss
# counts at workers=1 vs 8 — under the race detector.
fleet-plan-smoke:
	$(GO) test -race -run 'TestFleetPlanSmoke|TestEvaluateDeterministic' -count=1 ./internal/capacity/

# Planner-v2 acceptance: over the determinism-suite model×topology
# pairs, the auto-searched strategy must meet or beat every hand
# preset on time-to-fit (cross-checked by full enumeration, so the
# lower bound's pruning is provably sound), and the winner — strategy,
# report and plan — must be byte-identical at workers=1 vs 8, under
# the race detector. A search pays its fixed per-plan cost once per
# lowering: at workers 1 and 4 it builds each distinct lowering once,
# profiles and maps each distinct (lowering, plane, mapping switch)
# once, reports identically and holds no lowering after it returns
# (normal, cancelled or oversize); a frozen lowering planned on a
# DGX-1 and on it with one NVLink down keeps a basis per plane, and
# several systems planned at once off one lowering each equal a fresh
# lowering's plan.
autosearch-smoke:
	$(GO) test -race -run 'TestAutoSearch' -count=1 .
	$(GO) test -race -run 'TestSearchPaysPerLowering|TestBasisKeyedByPlane|TestBasisSharedConcurrently' -count=1 ./internal/search/ ./internal/plan/

# Shared-lowering acceptance: a batch whose jobs share frozen
# lowerings (scale-out node counts x minibatches 8/32, a plain-system
# job, resilience cells whose GPU failure forces a re-plan) runs
# through RunAll at 1 and 4 workers under the race detector; reports,
# saved plans and Chrome traces must be byte-identical to each job run
# alone, each distinct lowering is built once, jobs are dispatched
# grouped by lowering, and the runner retains none after the batch.
# Two resilient jobs' wall-clock traces, merged only when asked for
# (State.Timeline), must keep their committed sha256 digests, and
# plan.Rebase over the lowerings' dense slot tables must deep-equal
# the map walk it replaced for every planner preset and sweep
# scale-out config at 1, 3, 8 and 32 minibatches.
sweep-smoke:
	$(GO) test -race -run 'TestSharedLoweringsMatchAlone|TestLoweringRetention|TestDispatchGroupsByLowering|TestResilientTraceGolden|TestRebaseMatchesMapWalk' -count=1 ./internal/runner/

# Overlay acceptance: every emulation of every planner preset, planned
# sequentially, at four refinement workers and at the default width
# (whose workers rebuild their overlays concurrently), and each preset's
# final job, run as an overlay on the frozen lowering, must give the
# Result, and the job the Chrome trace, of its overlay spliced into a
# plain graph that is validated, ordered, analysed and run in full; an
# emulation may stop early only when its round settled on a winner
# ranked before it. Plans must be byte-identical at every width. Both
# run at GOMAXPROCS 1, 2 and 4, so the default width takes several
# values. TestTrialIsolation, at the same GOMAXPROCS values, holds a
# refinement trial to a copy of its round's incumbent: conversions on it
# change neither the incumbent nor a sibling, and a snapshot into a
# used trial allocates nothing. TestGraphEquivalence holds the graph's
# adjacency, order and liveness to reference implementations; all under
# the race detector.
splice-smoke:
	$(GO) test -race -run 'TestSpliceDifferential|TestParallelPlannerDeterministic' -cpu 1,2,4 -count=1 .
	$(GO) test -race -run 'TestTrialIsolation' -cpu 1,2,4 -count=1 ./internal/plan/
	$(GO) test -race -run 'TestGraphEquivalence' -count=1 ./internal/graph/

# Event-loop acceptance: on the FuzzJointStriped seed corpus the
# sorted joint striped reservation books exactly the lanes, times and
# counters of the k-round reference scan, and posted events run in
# strict (time, seq) order — under the race detector. Then, without it
# (its instrumentation allocates), exec.Run's allocation count must
# stay flat as its event count doubles, on one node and as one of two
# data-parallel replicas (whose gradient all-reduce ring steps are
# events too), and planning bertxdgx2 must stay within its bytes per
# emulation (recycled wave-slot overlays and pooled executor state).
sim-smoke:
	$(GO) test -race -run 'FuzzJointStriped|TestSchedOrderingEquivalence|TestSimSchedulerEquivalence' -count=1 ./internal/sim/
	$(GO) test -run 'TestEventLoopAllocsFlat/(single-node|data-parallel)$$' -count=1 ./internal/exec/
	$(GO) test -run 'TestEmulationAllocBytes$$' -count=1 .

# Planning-request benchmark smoke: benchmark/ is a module of its own,
# so go build ./... never compiles it, yet it calls plan, graph, exec
# and pipeline directly. Build it and run every workload at one op,
# checking each simulated output against the committed digests (~7 s).
benchmark-smoke:
	cd benchmark && $(GO) test -count=1 .

# One pass of every Go benchmark, kept in BENCH_go.txt. Non-blocking
# in CI. Before/after performance evidence comes from the
# planning-request benchmark (benchmark/, see its README).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... | tee BENCH_go.txt

# Single-iteration smoke of the refinement-loop and mapping-search
# benchmarks, so check catches them compiling or asserting badly
# without paying for full benchmark runs.
benchcheck:
	$(GO) test -run '^$$' -bench '^BenchmarkRefine$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkMappingSearch$$' -benchtime 1x ./internal/mapping

# CPU and heap profiles of one BenchmarkRefine pass (the refinement
# loop plus its emulations, on every planner preset at workers 1 and
# 4); inspect with `go tool pprof cpu.pprof`. go test leaves its test
# binary behind when profiling, so it is removed.
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkRefine$$' -benchtime 1x -cpuprofile cpu.pprof -memprofile mem.pprof .
	rm -f mpress.test
	@echo "wrote cpu.pprof and mem.pprof; try: $(GO) tool pprof -top cpu.pprof"

build:
	$(GO) build ./...

# The size of the program: non-test Go lines outside benchmark/, the
# count ROADMAP.md tracks, so every change reports the same number.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -1

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# One job path: a plan reaches a graph only through the runner's Apply
# stage (and the planner's own emulations). Every other driver runs its
# jobs through internal/runner (Run, RunKeep, RunPlan), so a second
# Build -> Apply -> Run copy cannot return. benchmark/ is exempt: it
# times the layers one by one.
vet-onepath:
	@out="$$(grep -rn 'plan\.Apply(' --include='*.go' cmd internal examples *.go 2>/dev/null \
		| grep -v '_test\.go' | grep -v '^internal/runner/' | grep -v '^internal/plan/' || true)"; \
	if [ -n "$$out" ]; then \
		echo "plan.Apply called outside internal/runner and internal/plan (run jobs through runner.Runner):"; \
		echo "$$out"; exit 1; \
	fi

# One name rule: every preset name (topology, fabric, system, schedule,
# model size, experiment, ...) resolves through an internal/names
# table, which alone formats the "(valid names: ...)" list of a miss,
# so a hand-rolled lookup with its own matching rule cannot return.
# benchmark/ is exempt: it is a separate module.
vet-names:
	@out="$$(grep -rnE '\(valid (names|systems|schedules|strategies)' --include='*.go' cmd internal examples *.go 2>/dev/null \
		| grep -v '_test\.go' | grep -v '^internal/names/' || true)"; \
	if [ -n "$$out" ]; then \
		echo "valid-name list formatted outside internal/names (register the names in a names.Table):"; \
		echo "$$out"; exit 1; \
	fi
