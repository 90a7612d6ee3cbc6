// Package experiments regenerates every table and figure of the
// paper's evaluation (Sec. II and IV) on the simulated testbeds: the
// same rows and series, printed as text tables. EXPERIMENTS.md records
// the paper-vs-measured comparison for each one.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"mpress"
	"mpress/internal/names"
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

// Registry holds all experiments in presentation order.
var Registry = names.New[Experiment]("experiments: unknown experiment")

func register(e Experiment) { Registry.Add(e.Name, e) }

// parallelism is the worker count for generator batches (0 means
// GOMAXPROCS); sharedRunner carries the plan cache all generators
// share, so e.g. fig7 and table4 reuse each other's Bert plans.
var (
	parallelism  int
	sharedRunner = newSharedRunner()
)

func newSharedRunner() *mpress.Runner {
	return mpress.NewRunner(mpress.RunnerOptions{Workers: parallelism})
}

// SetParallelism rebuilds the shared runner with n workers (n <= 0
// restores the GOMAXPROCS default). Call it before running
// experiments, not concurrently with them.
func SetParallelism(n int) {
	parallelism = n
	sharedRunner = newSharedRunner()
}

// Stats exposes the shared runner's counters (jobs, plan-cache
// hits/misses) for the CLI's summary line.
func Stats() mpress.RunnerStats { return sharedRunner.Stats() }

// trainAll submits the configs as one batch through the shared
// runner's worker pool and returns their results in input order —
// the batched counterpart of mpress.Train.
func trainAll(cfgs []mpress.Config) []mpress.JobResult {
	return sharedRunner.RunConfigs(context.Background(), cfgs)
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
