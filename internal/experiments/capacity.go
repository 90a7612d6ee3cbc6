package experiments

import (
	"context"
	"io"

	"mpress/internal/capacity"
)

func init() {
	register(Experiment{
		Name:  "capacity",
		Title: "Capacity planning: job-mix ranking over the machine catalog ($ and Wh per 1000 samples)",
		Run:   Capacity,
	})
}

// capacitySpec mirrors examples/capacity/jobmix.json — the committed
// lab-fleet mix — so the experiment's artifact and the README
// walkthrough stay the same scenario: a weighted GPT-5.3B pretrain, a
// fault-injected Bert-1.67B (2-minute MTBF) and a Bert-0.35B finetune,
// placed across the whole catalog at 1-2 nodes under a 0.7 goodput-
// fraction SLO.
func capacitySpec() *capacity.Spec {
	return &capacity.Spec{
		Name: "lab-fleet",
		Seed: 42,
		Jobs: []capacity.JobClass{
			{Name: "gpt-pretrain", Family: "gpt", Size: "5.3B", System: "mpress", Weight: 2},
			{Name: "bert-resilient", Family: "bert", Size: "1.67B", System: "swap", Minibatches: 4, MTBFSeconds: 120},
			{Name: "bert-finetune", Family: "bert", Size: "0.35B", System: "plain"},
		},
		SLO: capacity.SLO{GoodputFrac: 0.7, MinSamplesPerSec: 25},
		Candidates: capacity.Candidates{
			Nodes:             []int{1, 2},
			TP:                []int{1},
			CheckpointSeconds: []float64{0, 30},
		},
	}
}

// Capacity runs the lab-fleet mix through the what-if engine and
// emits the ranked recommendation table followed by the full
// evaluation as CSV. Like the resilience experiment the CSV is a
// determinism artifact: fixed seed, byte-identical at any worker
// count (TestCapacityContent pins the recommendation and rejection
// reasons).
func Capacity(w io.Writer) error {
	res, err := capacity.Evaluate(context.Background(), capacitySpec(),
		capacity.Options{Workers: parallelism})
	if err != nil {
		return err
	}
	capacity.WriteTable(w, res)
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	return capacity.WriteCSV(w, res)
}
