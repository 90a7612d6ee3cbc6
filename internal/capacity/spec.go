// Package capacity is the what-if engine behind mpress-fleet: given a
// job mix (a weighted distribution over model presets, pipeline
// systems and fault rates) and a goodput SLO, it enumerates candidate
// fleets — machine type × node count × tensor-parallel degree ×
// checkpoint policy, drawn from the hardware catalog — evaluates each
// through the simulator, prunes the infeasible and the dominated, and
// ranks the survivors by dollars and energy per effective sample.
//
// Evaluation reuses the whole existing stack rather than a side
// model: every (candidate × job class) pair becomes one runner.Config
// pushed through a shared Runner pool, so candidates that differ only
// in scale-out or checkpoint cadence deduplicate their planner work
// through the plan cache, and resilient classes replay the same
// deterministic fault schedule the sweep tools use. Results are
// byte-identical for a fixed spec at any worker count.
package capacity

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"mpress/internal/catalog"
	"mpress/internal/model"
	"mpress/internal/runner"
	"mpress/internal/units"
)

// JobClass is one component of the fleet's workload mix.
type JobClass struct {
	// Name labels the class in reports, e.g. "bert-pretrain".
	Name string `json:"name"`
	// Family and Size select a model preset: "bert" or "gpt" plus a
	// variant size ("1.2B", "5.3B", …).
	Family string `json:"family"`
	Size   string `json:"size"`
	// System is the training system by CLI name ("mpress", "d2d",
	// "plain", …); empty means "mpress".
	System string `json:"system,omitempty"`
	// MicrobatchSize defaults per family (12 for bert, 2 for gpt);
	// Minibatches to the runner default.
	MicrobatchSize int `json:"microbatch,omitempty"`
	Minibatches    int `json:"minibatches,omitempty"`
	// Weight is the class's share of the mix (default 1). Aggregate
	// fleet goodput is the weighted mean over classes.
	Weight float64 `json:"weight,omitempty"`
	// MTBFSeconds, when > 0, runs the class under the deterministic
	// fault model with this mean time between failures. Classes with
	// tensor parallelism are priced analytically instead (see
	// Evaluate).
	MTBFSeconds float64 `json:"mtbf_s,omitempty"`
}

// MTBF returns the class's mean time between failures (0 = fault-free).
func (c *JobClass) MTBF() units.Duration {
	return units.Duration(c.MTBFSeconds * float64(units.Second))
}

// SLO is the goodput floor a candidate must meet to be feasible.
type SLO struct {
	// GoodputFrac, when > 0, requires every class to retain at least
	// this fraction of its fault-free throughput after resilience
	// overheads (checkpoint stalls, lost work, recovery).
	GoodputFrac float64 `json:"goodput_frac,omitempty"`
	// MinSamplesPerSec, when > 0, requires the weighted aggregate
	// fleet goodput to reach this absolute floor.
	MinSamplesPerSec float64 `json:"min_samples_per_sec,omitempty"`
}

// Candidates spans the configuration space to enumerate: the cross
// product of machine types, node counts, TP degrees and checkpoint
// intervals.
type Candidates struct {
	// Machines are catalog names (default: the whole catalog).
	Machines []string `json:"machines,omitempty"`
	// Nodes are data-parallel node counts (default [1]).
	Nodes []int `json:"nodes,omitempty"`
	// TP are tensor-parallel degrees (default [1]).
	TP []int `json:"tp,omitempty"`
	// CheckpointSeconds are checkpoint intervals to try for resilient
	// classes; 0 means the Young–Daly optimum (default [0]). Ignored
	// by fault-free mixes.
	CheckpointSeconds []float64 `json:"checkpoint_s,omitempty"`
}

// Spec is a complete what-if question: a job mix, an SLO and the
// candidate space. It is the mpress-fleet input file format.
type Spec struct {
	Name string `json:"name"`
	// Seed drives every deterministic fault schedule in the
	// evaluation; a fixed seed makes the whole ranking reproducible.
	Seed       uint64     `json:"seed"`
	Jobs       []JobClass `json:"jobs"`
	SLO        SLO        `json:"slo"`
	Candidates Candidates `json:"candidates"`
}

// Parse decodes and validates a spec, filling defaults.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("capacity: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("capacity: %w", err)
	}
	return Parse(data)
}

// modelFor resolves a class's family (with its default schedule and
// microbatch size) and model preset.
func modelFor(c *JobClass) (runner.Family, model.Config, error) {
	fam, err := runner.Families.Lookup(c.Family)
	if err != nil {
		return fam, model.Config{}, fmt.Errorf("capacity: job %q: %w", c.Name, err)
	}
	m, err := fam.Variants.Lookup(c.Size)
	return fam, m, err
}

// Validate checks the spec and fills defaults in place.
func (s *Spec) Validate() error {
	if s.Name == "" {
		s.Name = "jobmix"
	}
	if len(s.Jobs) == 0 {
		return fmt.Errorf("capacity: spec %q has no job classes", s.Name)
	}
	for i := range s.Jobs {
		c := &s.Jobs[i]
		if c.Name == "" {
			c.Name = fmt.Sprintf("job%d", i)
		}
		if c.Weight < 0 {
			return fmt.Errorf("capacity: job %q has negative weight", c.Name)
		}
		if c.Weight == 0 {
			c.Weight = 1
		}
		if c.MTBFSeconds < 0 {
			return fmt.Errorf("capacity: job %q has negative mtbf_s", c.Name)
		}
		if c.System == "" {
			c.System = "mpress"
		}
		if _, err := runner.Systems.Lookup(c.System); err != nil {
			return fmt.Errorf("capacity: job %q: %w", c.Name, err)
		}
		fam, _, err := modelFor(c)
		if err != nil {
			return err
		}
		if c.MicrobatchSize == 0 {
			c.MicrobatchSize = fam.MicrobatchSize
		}
	}
	if s.SLO.GoodputFrac < 0 || s.SLO.GoodputFrac > 1 {
		return fmt.Errorf("capacity: slo.goodput_frac %g outside [0, 1]", s.SLO.GoodputFrac)
	}
	if s.SLO.MinSamplesPerSec < 0 {
		return fmt.Errorf("capacity: slo.min_samples_per_sec is negative")
	}
	cand := &s.Candidates
	if len(cand.Machines) == 0 {
		cand.Machines = catalog.MachineNames()
	}
	for _, name := range cand.Machines {
		if _, err := catalog.Lookup(name); err != nil {
			return err
		}
	}
	if len(cand.Nodes) == 0 {
		cand.Nodes = []int{1}
	}
	for _, n := range cand.Nodes {
		if n < 1 {
			return fmt.Errorf("capacity: node count %d < 1", n)
		}
	}
	if len(cand.TP) == 0 {
		cand.TP = []int{1}
	}
	for _, tp := range cand.TP {
		if tp < 1 {
			return fmt.Errorf("capacity: tp degree %d < 1", tp)
		}
	}
	if len(cand.CheckpointSeconds) == 0 {
		cand.CheckpointSeconds = []float64{0}
	}
	for _, iv := range cand.CheckpointSeconds {
		if iv < 0 {
			return fmt.Errorf("capacity: checkpoint_s %g is negative", iv)
		}
	}
	return nil
}

// resilient reports whether any class in the mix injects faults — if
// none does, the checkpoint axis collapses to a single entry.
func (s *Spec) resilient() bool {
	for i := range s.Jobs {
		if s.Jobs[i].MTBFSeconds > 0 {
			return true
		}
	}
	return false
}
