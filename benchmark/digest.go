package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"mpress/internal/runner"
)

// expectedFile is where -update rewrites the committed digests,
// relative to the benchmark's own directory.
const expectedFile = "testdata/expected.json"

// expectedJSON maps workload → op name → sha256 of the op's simulated
// output. Every output the benchmark produces is checked against it.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// digests checks one workload's outputs, or records them under
// -update.
type digests struct {
	update bool
	want   map[string]string

	mu  sync.Mutex
	got map[string]string
}

func loadDigests(workload string, update bool) (*digests, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("parse %s: %w", expectedFile, err)
	}
	return &digests{update: update, want: all[workload], got: map[string]string{}}, nil
}

// check hashes the concatenated parts and compares the sum with the
// committed digest for name.
func (d *digests) check(name string, parts ...[]byte) error {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	sum := hex.EncodeToString(h.Sum(nil))
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.update {
		if prev, ok := d.got[name]; ok && prev != sum {
			return fmt.Errorf("%s: output differs between two runs of the same op", name)
		}
		d.got[name] = sum
		return nil
	}
	want, ok := d.want[name]
	switch {
	case !ok:
		return fmt.Errorf("%s: no committed digest (regenerate with -update)", name)
	case want != sum:
		return fmt.Errorf("%s: output digest %.12s, committed %.12s", name, sum, want)
	}
	return nil
}

// save merges the recorded digests into the committed file under
// workload. It runs from the benchmark's directory.
func (d *digests) save(workload string) error {
	var all map[string]map[string]string
	data, err := os.ReadFile(expectedFile)
	if err != nil {
		return fmt.Errorf("-update runs from the benchmark directory: %w", err)
	}
	if err := json.Unmarshal(data, &all); err != nil {
		return fmt.Errorf("parse %s: %w", expectedFile, err)
	}
	if all == nil {
		all = map[string]map[string]string{}
	}
	all[workload] = d.got
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedFile, append(out, '\n'), 0o644)
}

// jobOutput is the checked output of a runner job: the report JSON and
// the plan file the job saves.
func jobOutput(j *runner.Job, rep *runner.Report) ([]byte, []byte, error) {
	js, err := json.Marshal(rep)
	if err != nil {
		return nil, nil, fmt.Errorf("marshal report: %w", err)
	}
	var pl bytes.Buffer
	if rep.Plan != nil {
		if err := j.SavePlan(&pl, rep.Plan); err != nil {
			return nil, nil, fmt.Errorf("save plan: %w", err)
		}
	}
	return js, pl.Bytes(), nil
}
