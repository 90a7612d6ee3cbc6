// Command mpress-load drives an mpressd planning fleet (or one
// standalone daemon) with a Zipf-skewed job mix and reports the
// latency distribution, cache behaviour and forwarding, appending
// a machine-readable record to a BENCH file for commit-over-commit
// comparison.
//
// Two load models:
//
//   - closed loop (default): -concurrency workers each keep exactly
//     one request in flight — throughput is whatever the fleet
//     sustains;
//   - open loop: -rps launches requests on a fixed schedule regardless
//     of completions, the honest way to measure tail latency under a
//     target arrival rate.
//
// Usage:
//
//	mpress-load -peers http://127.0.0.1:7323,http://127.0.0.1:7324,http://127.0.0.1:7325 \
//	    -requests 200 -concurrency 8 -zipf 1.2 -out BENCH_serve.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/runner"
	"mpress/internal/serve/api"
	"mpress/internal/serve/client"
)

func main() {
	peers := flag.String("peers", "http://127.0.0.1:7323", "comma-separated fleet peer base URLs")
	mode := flag.String("mode", "closed", "load model: closed (fixed concurrency) or open (target rps)")
	concurrency := flag.Int("concurrency", 8, "closed loop: workers with one request in flight each")
	rps := flag.Float64("rps", 10, "open loop: target request arrival rate")
	requests := flag.Int("requests", 200, "total requests to send")
	distinct := flag.Int("distinct", 12, "distinct job configs in the mix")
	zipfS := flag.Float64("zipf", 1.2, "Zipf skew of the job mix (>1; larger = more popular-job repeats)")
	seed := flag.Int64("seed", 1, "deterministic seed for the job mix")
	timeout := flag.String("timeout", "", "server-side per-request timeout (empty: daemon default)")
	waitHealthy := flag.Duration("wait-healthy", 10*time.Second, "wait up to this long for every peer's /healthz")
	verify := flag.Bool("verify", false, "recompute every distinct config locally and require byte-identical plans")
	out := flag.String("out", "", "append the run record to this JSON file (e.g. BENCH_serve.json)")
	note := flag.String("note", "", "free-form commentary stored with the record")
	flag.Parse()

	if err := run(*peers, *mode, *concurrency, *rps, *requests, *distinct, *zipfS,
		*seed, *timeout, *waitHealthy, *verify, *out, *note); err != nil {
		fmt.Fprintf(os.Stderr, "mpress-load: %v\n", err)
		os.Exit(1)
	}
}

// jobMix builds `distinct` configs deterministically: two Bert sizes
// crossed with the three planning systems and varied minibatch counts.
// Index 0 is the most popular job under the Zipf draw.
func jobMix(distinct int) ([]runner.Config, error) {
	sizes := []string{"0.35B", "0.64B"}
	systems := []runner.System{runner.SystemMPress, runner.SystemRecompute, runner.SystemGPUCPUSwap}
	var cfgs []runner.Config
	for i := 0; i < distinct; i++ {
		m, err := model.BertVariants.Lookup(sizes[i%len(sizes)])
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, runner.Config{
			Topology:       hw.DGX1(),
			Model:          m,
			Schedule:       pipeline.PipeDream,
			System:         systems[(i/len(sizes))%len(systems)],
			MicrobatchSize: 12,
			Minibatches:    2 + i/(len(sizes)*len(systems)),
		})
	}
	return cfgs, nil
}

// serverCounters are the per-peer /metrics values the report diffs
// across the run.
type serverCounters struct {
	planHits, planMisses, planComputes float64
	memoHits                           float64
	forwardsSent, forwardsReceived     float64
	forwardErrors, sfWaits             float64
}

func scrapeCounters(httpc *http.Client, base string) (serverCounters, error) {
	var c serverCounters
	res, err := httpc.Get(base + api.PathMetrics)
	if err != nil {
		return c, err
	}
	defer res.Body.Close()
	fields := map[string]*float64{
		"mpressd_plan_cache_hits_total":          &c.planHits,
		"mpressd_plan_cache_misses_total":        &c.planMisses,
		"mpressd_plan_computes_total":            &c.planComputes,
		"mpressd_result_memo_hits_total":         &c.memoHits,
		"mpressd_fleet_forwards_sent_total":      &c.forwardsSent,
		"mpressd_fleet_forwards_received_total":  &c.forwardsReceived,
		"mpressd_fleet_forward_errors_total":     &c.forwardErrors,
		"mpressd_fleet_singleflight_waits_total": &c.sfWaits,
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		return c, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		for name, dst := range fields {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %f", &v); err == nil {
				*dst = v
			}
		}
	}
	return c, nil
}

func (a serverCounters) sub(b serverCounters) serverCounters {
	return serverCounters{
		planHits: a.planHits - b.planHits, planMisses: a.planMisses - b.planMisses,
		planComputes: a.planComputes - b.planComputes, memoHits: a.memoHits - b.memoHits,
		forwardsSent: a.forwardsSent - b.forwardsSent, forwardsReceived: a.forwardsReceived - b.forwardsReceived,
		forwardErrors: a.forwardErrors - b.forwardErrors, sfWaits: a.sfWaits - b.sfWaits,
	}
}

func (a serverCounters) add(b serverCounters) serverCounters {
	return serverCounters{
		planHits: a.planHits + b.planHits, planMisses: a.planMisses + b.planMisses,
		planComputes: a.planComputes + b.planComputes, memoHits: a.memoHits + b.memoHits,
		forwardsSent: a.forwardsSent + b.forwardsSent, forwardsReceived: a.forwardsReceived + b.forwardsReceived,
		forwardErrors: a.forwardErrors + b.forwardErrors, sfWaits: a.sfWaits + b.sfWaits,
	}
}

// record is the BENCH_serve.json entry one run appends.
type record struct {
	Experiment  string  `json:"experiment"`
	Date        string  `json:"date"`
	Peers       int     `json:"peers"`
	Mode        string  `json:"mode"`
	Concurrency int     `json:"concurrency,omitempty"`
	TargetRPS   float64 `json:"target_rps,omitempty"`
	Requests    int     `json:"requests"`
	Distinct    int     `json:"distinct_jobs"`
	ZipfS       float64 `json:"zipf_s"`
	Cores       int     `json:"host_cores"`

	Errors       int     `json:"errors"`
	WallSeconds  float64 `json:"wall_seconds"`
	AchievedRPS  float64 `json:"achieved_rps"`
	P50MS        float64 `json:"p50_ms"`
	P95MS        float64 `json:"p95_ms"`
	P99MS        float64 `json:"p99_ms"`
	PlanHitRate  float64 `json:"plan_cache_hit_rate"`
	PlanComputes float64 `json:"plan_computes"`
	MemoHits     float64 `json:"result_memo_hits"`
	Forwards     float64 `json:"forwards"`
	ForwardErrs  float64 `json:"forward_errors"`
	SFWaits      float64 `json:"singleflight_waits"`
	Verified     bool    `json:"plans_verified_byte_identical,omitempty"`
	Note         string  `json:"note,omitempty"`
}

func run(peerList, mode string, concurrency int, rps float64, requests, distinct int,
	zipfS float64, seed int64, timeout string, waitHealthy time.Duration,
	verify bool, out, note string) error {
	peers := strings.Split(peerList, ",")
	fc, err := client.NewFleet(peers)
	if err != nil {
		return err
	}
	defer fc.CloseIdleConnections()

	httpc := &http.Client{Transport: &http.Transport{}}
	defer httpc.CloseIdleConnections()

	// Every peer must answer /healthz before load starts.
	deadline := time.Now().Add(waitHealthy)
	for _, p := range fc.Ring().Members() {
		for {
			err := fc.Peer(p).Healthy(context.Background())
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("peer %s never became healthy: %v", p, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	cfgs, err := jobMix(distinct)
	if err != nil {
		return err
	}
	if zipfS <= 1 {
		return fmt.Errorf("-zipf must be > 1 (got %v)", zipfS)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(distinct-1))
	picks := make([]int, requests)
	for i := range picks {
		picks[i] = int(zipf.Uint64())
	}

	before := make([]serverCounters, len(peers))
	for i, p := range fc.Ring().Members() {
		if before[i], err = scrapeCounters(httpc, p); err != nil {
			return fmt.Errorf("scrape %s: %w", p, err)
		}
	}

	lats := make([]time.Duration, requests)
	errsByCode := make(map[string]int)
	var mu sync.Mutex
	errors := 0
	oneReq := func(i int) {
		t0 := time.Now()
		_, err := fc.PlanWait(context.Background(), cfgs[picks[i]], timeout)
		d := time.Since(t0)
		mu.Lock()
		lats[i] = d
		if err != nil {
			errors++
			errsByCode[fmt.Sprintf("%.80s", err.Error())]++
		}
		mu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	switch mode {
	case "closed":
		sem := make(chan struct{}, concurrency)
		for i := 0; i < requests; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				oneReq(i)
			}(i)
		}
	case "open":
		interval := time.Duration(float64(time.Second) / rps)
		ticker := time.NewTicker(interval)
		for i := 0; i < requests; i++ {
			if i > 0 {
				<-ticker.C
			}
			wg.Add(1)
			go func(i int) { defer wg.Done(); oneReq(i) }(i)
		}
		ticker.Stop()
	default:
		return fmt.Errorf("unknown -mode %q (closed|open)", mode)
	}
	wg.Wait()
	wall := time.Since(start)

	after := make([]serverCounters, len(peers))
	for i, p := range fc.Ring().Members() {
		if after[i], err = scrapeCounters(httpc, p); err != nil {
			return fmt.Errorf("scrape %s: %w", p, err)
		}
	}
	var delta serverCounters
	for i := range peers {
		delta = delta.add(after[i].sub(before[i]))
	}

	verified := false
	if verify {
		seen := map[int]bool{}
		for _, p := range picks {
			seen[p] = true
		}
		for idx := range seen {
			if err := verifyConfig(fc, cfgs[idx], timeout); err != nil {
				return fmt.Errorf("verify config %d: %w", idx, err)
			}
		}
		verified = true
	}

	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(p int) float64 {
		idx := (len(sorted)*p)/100 - 1
		if idx < 0 {
			idx = 0
		}
		return float64(sorted[idx]) / float64(time.Millisecond)
	}
	hitRate := 0.0
	if lookups := delta.planHits + delta.planMisses; lookups > 0 {
		hitRate = delta.planHits / lookups
	}

	rec := record{
		Experiment:  "serve_load",
		Date:        time.Now().UTC().Format("2006-01-02"),
		Peers:       len(peers),
		Mode:        mode,
		Requests:    requests,
		Distinct:    distinct,
		ZipfS:       zipfS,
		Cores:       runtime.NumCPU(),
		Errors:      errors,
		WallSeconds: wall.Seconds(),
		AchievedRPS: float64(requests) / wall.Seconds(),
		P50MS:       pct(50), P95MS: pct(95), P99MS: pct(99),
		PlanHitRate:  hitRate,
		PlanComputes: delta.planComputes,
		MemoHits:     delta.memoHits,
		Forwards:     delta.forwardsSent,
		ForwardErrs:  delta.forwardErrors,
		SFWaits:      delta.sfWaits,
		Verified:     verified,
		Note:         note,
	}
	if mode == "closed" {
		rec.Concurrency = concurrency
	} else {
		rec.TargetRPS = rps
	}

	fmt.Printf("mpress-load: %d requests, %d errors, %.1fs wall (%.1f req/s) against %d peer(s)\n",
		requests, errors, wall.Seconds(), rec.AchievedRPS, len(peers))
	fmt.Printf("  latency  p50 %.1fms  p95 %.1fms  p99 %.1fms\n", rec.P50MS, rec.P95MS, rec.P99MS)
	fmt.Printf("  plan cache hit rate %.1f%% (%d computes)  result memo hits %d  singleflight waits %d\n",
		hitRate*100, int(delta.planComputes), int(delta.memoHits), int(delta.sfWaits))
	fmt.Printf("  forwards %d (errors %d)\n", int(delta.forwardsSent), int(delta.forwardErrors))
	if verified {
		fmt.Printf("  all distinct plans byte-identical to local runner.Train\n")
	}
	for msg, n := range errsByCode {
		fmt.Printf("  error ×%d: %s\n", n, msg)
	}

	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			return err
		}
		fmt.Printf("  appended record to %s\n", out)
	}
	if errors > 0 {
		return fmt.Errorf("%d/%d requests failed", errors, requests)
	}
	return nil
}

// verifyConfig plans cfg through the fleet and locally, requiring
// byte-identical canonical plan files.
func verifyConfig(fc *client.Fleet, cfg runner.Config, timeout string) error {
	resp, err := fc.PlanWait(context.Background(), cfg, timeout)
	if err != nil {
		return err
	}
	rep, err := runner.Train(cfg)
	if err != nil {
		return err
	}
	if rep.Plan == nil {
		if len(resp.Plan) != 0 {
			return fmt.Errorf("fleet returned a plan for a non-planning system")
		}
		return nil
	}
	j, err := runner.NewJob(cfg)
	if err != nil {
		return err
	}
	local := new(strings.Builder)
	if err := j.SavePlan(local, rep.Plan); err != nil {
		return err
	}
	remote, err := resp.CanonicalPlanFile()
	if err != nil {
		return err
	}
	if local.String() != string(remote) {
		return fmt.Errorf("plan mismatch: local %d bytes, fleet %d bytes", local.Len(), len(remote))
	}
	return nil
}

// appendRecord appends rec to the JSON array in path (creating it).
func appendRecord(path string, rec record) error {
	var records []json.RawMessage
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if err := json.Unmarshal(data, &records); err != nil {
			return fmt.Errorf("%s exists but is not a JSON array: %w", path, err)
		}
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	records = append(records, raw)
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
