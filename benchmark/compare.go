package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords loads the JSONL records -out wrote.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series groups run values by workload, then metric, in run order.
type series map[string]map[string][]float64

func group(recs []record) (series, map[string]string) {
	s := series{}
	units := map[string]string{}
	for _, r := range recs {
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	return s, units
}

// quartiles are Python's statistics.quantiles(vs, n=4) (the
// "exclusive" method), which the benchmark's acceptance rule uses.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// benchmark runs from there or from its own directory.
func loadSpec() (*spec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

// verdict applies the acceptance rule to one metric × workload. A
// gain needs the new side to win at least nine tenths of the
// alternating pairs and its median to beat the base median by more
// than the base's own quartile spread; a regression is a median worse
// by more than the bound; a spread wider than the bound is unresolved
// unless every new run beats every base run.
func verdict(base, cand []float64, lower bool, bound float64, gated bool) (string, int, int) {
	better := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	pairs := min(len(base), len(cand))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(cand[i], base[i]) {
			wins++
		}
	}
	q1b, mb, q3b := quartiles(base)
	q1c, mc, q3c := quartiles(cand)
	gain := mc - mb
	if lower {
		gain = -gain
	}
	if pairs > 0 && 10*wins >= 9*pairs && gain > q3b-q1b {
		return "improved", wins, pairs
	}
	if !gated {
		return "-", wins, pairs
	}
	spread := math.Max(ratio(q3b-q1b, math.Abs(mb)), ratio(q3c-q1c, math.Abs(mc)))
	if spread > bound {
		if allBetter(cand, base, better) {
			return "within bound", wins, pairs
		}
		return "unresolved", wins, pairs
	}
	if -gain > bound*math.Abs(mb) {
		return "regressed", wins, pairs
	}
	return "within bound", wins, pairs
}

func allBetter(cand, base []float64, better func(a, b float64) bool) bool {
	for _, c := range cand {
		for _, b := range base {
			if !better(c, b) {
				return false
			}
		}
	}
	return true
}

// runCompare prints, per workload and metric, both sides' medians and
// quartiles, the new side's win share over the pairs, and a verdict
// against BENCHMARK.json's bounds. It exits 1 when any end-to-end
// metric regressed.
func runCompare(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare BASE.jsonl NEW.jsonl")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	type rule struct {
		lower, gated bool
		bound        float64
	}
	rules := map[string]rule{}
	for _, m := range sp.EndToEnd {
		rules[m.Name] = rule{m.Better == "lower", true, m.Bound}
	}
	for _, m := range sp.PerLayer {
		rules[m.Name] = rule{lower: m.Better == "lower"}
	}
	var sides [2]series
	units := map[string]string{}
	for i, p := range args {
		recs, err := readRecords(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		var u map[string]string
		sides[i], u = group(recs)
		for k, v := range u {
			units[k] = v
		}
	}
	code := 0
	fmt.Fprintf(w, "%-11s %-34s %-9s %30s %30s %8s %7s  %s\n",
		"workload", "metric", "unit", "base median [q1 q3]", "new median [q1 q3]", "change", "wins", "verdict")
	for _, wl := range workloads {
		base, cand := sides[0][wl.name], sides[1][wl.name]
		names := make([]string, 0, len(base))
		for n := range base {
			if _, ok := cand[n]; ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			r, ok := rules[n]
			if !ok {
				continue
			}
			v, wins, pairs := verdict(base[n], cand[n], r.lower, r.bound, r.gated)
			if v == "regressed" {
				code = 1
			}
			q1b, mb, q3b := quartiles(base[n])
			q1c, mc, q3c := quartiles(cand[n])
			fmt.Fprintf(w, "%-11s %-34s %-9s %12.5g [%7.4g %7.4g] %12.5g [%7.4g %7.4g] %+7.1f%% %3d/%-3d  %s\n",
				wl.name, n, units[n], mb, q1b, q3b, mc, q1c, q3c, 100*ratio(mc-mb, math.Abs(mb)), wins, pairs, v)
		}
	}
	return code
}

// stat summarizes one metric × workload over a set of runs.
type stat struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// IQRFrac is (q3 − q1) / median, the spread the acceptance rule
	// compares with the bound; RangeFrac is (max − min) / median.
	IQRFrac   float64 `json:"iqr_frac"`
	RangeFrac float64 `json:"range_frac"`
}

// runSummary prints the per-workload statistics of a JSONL file as
// JSON — the form baseline.json records.
func runSummary(args []string, w io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark summary RUNS.jsonl")
		return 2
	}
	recs, err := readRecords(args[0])
	if err != nil || len(recs) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: no records in %s: %v\n", args[0], err)
		return 2
	}
	s, units := group(recs)
	out := map[string]map[string]stat{}
	for wl, ms := range s {
		out[wl] = map[string]stat{}
		for n, vs := range ms {
			q1, med, q3 := quartiles(vs)
			lo, hi := vs[0], vs[0]
			for _, v := range vs {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			out[wl][n] = stat{Unit: units[n], N: len(vs), Median: med, Q1: q1, Q3: q3, Min: lo, Max: hi,
				IQRFrac: ratio(q3-q1, math.Abs(med)), RangeFrac: ratio(hi-lo, math.Abs(med))}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"host": recs[0].Host, "workloads": out}); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	return 0
}
