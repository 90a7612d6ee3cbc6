// Package experiments regenerates every table and figure of the
// paper's evaluation (Sec. II and IV) on the simulated testbeds: the
// same rows and series, printed as text tables. EXPERIMENTS.md records
// the paper-vs-measured comparison for each one.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"mpress"
)

// Experiment is one runnable paper artifact.
type Experiment struct {
	// Name is the CLI identifier, e.g. "table1", "fig7".
	Name string
	// Title describes what the paper shows.
	Title string
	// Run writes the regenerated rows to w.
	Run func(w io.Writer) error
}

// registry holds all experiments in presentation order.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// parallelism is the worker count for generator batches (0 means
// GOMAXPROCS); sharedRunner carries the plan cache all generators
// share, so e.g. fig7 and table4 reuse each other's Bert plans.
var (
	parallelism  int
	observer     func(mpress.JobResult)
	sharedRunner = newSharedRunner()
)

func newSharedRunner() *mpress.Runner {
	return mpress.NewRunner(mpress.RunnerOptions{
		Workers:   parallelism,
		OnJobDone: notifyObserver,
	})
}

// notifyObserver forwards a completed job to the registered observer.
// Runners built outside the shared pool (trainWith) hang their
// OnJobDone off this so -perf records cover their jobs too.
func notifyObserver(jr mpress.JobResult) {
	if observer != nil {
		observer(jr)
	}
}

// SetParallelism rebuilds the shared runner with n workers (n <= 0
// restores the GOMAXPROCS default). Call it before running
// experiments, not concurrently with them.
func SetParallelism(n int) {
	parallelism = n
	sharedRunner = newSharedRunner()
}

// SetObserver registers fn to be called with every job the shared
// runner completes (from worker goroutines — fn must be safe for
// concurrent use). mpress-bench uses it to emit per-job perf records.
// Call it before running experiments, not concurrently with them; nil
// unregisters.
func SetObserver(fn func(mpress.JobResult)) { observer = fn }

// Stats exposes the shared runner's counters (jobs, plan-cache
// hits/misses) for the CLI's summary line.
func Stats() mpress.RunnerStats { return sharedRunner.Stats() }

// trainAll submits the configs as one batch through the shared
// runner's worker pool and returns their results in input order —
// the batched counterpart of mpress.Train.
func trainAll(cfgs []mpress.Config) []mpress.JobResult {
	return sharedRunner.RunConfigs(context.Background(), cfgs)
}

// All returns the experiments in presentation order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names lists the registered experiment names.
func Names() []string {
	var names []string
	for _, e := range registry {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// table is a minimal fixed-width text table writer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addf(format string, args ...interface{}) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}
