package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpress"
	"mpress/internal/hw"
	"mpress/internal/pipeline"
	"mpress/internal/runner"
	"mpress/internal/serve"
	"mpress/internal/serve/api"
	"mpress/internal/serve/client"
)

// Open-loop load of the serve-hits workload.
const (
	serveRate  = 40.0 // requests per second
	serveZipfS = 1.2  // skew of the job mix
	sloMS      = 100  // latency limit a request must meet
)

// serveMix is mpress-load's job mix: two Bert sizes × the three
// planning systems × minibatch counts 2 and 3. Index 0 is the most
// popular job under the Zipf draw.
func serveMix() []namedConfig {
	sizes := []string{"0.35B", "0.64B"}
	systems := []runner.System{runner.SystemMPress, runner.SystemRecompute, runner.SystemGPUCPUSwap}
	var out []namedConfig
	for i := 0; i < 12; i++ {
		out = append(out, namedConfig{fmt.Sprintf("mix%02d", i), runner.Config{
			Topology:       hw.DGX1(),
			Model:          mpress.MustBert(sizes[i%len(sizes)]),
			Schedule:       pipeline.PipeDream,
			System:         systems[(i/len(sizes))%len(systems)],
			MicrobatchSize: 12,
			Minibatches:    2 + i/(len(sizes)*len(systems)),
		}})
	}
	return out
}

// serveW is an in-process mpressd on loopback with its plan cache
// filled by set-up, so every measured request is a cache read.
type serveW struct {
	e      *env
	mix    []namedJob
	srv    *serve.Server
	cancel context.CancelFunc
	done   chan error
	tr     *http.Transport
	c      *client.Client
}

func setupServe(e *env, ph *phase) (instance, error) {
	mix, err := newJobs(serveMix())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{
		Runner: runner.Options{Workers: e.workers},
		Logger: log.New(io.Discard, "", 0),
	})
	ctx, cancel := context.WithCancel(context.Background())
	w := &serveW{e: e, mix: mix, srv: srv, cancel: cancel, done: make(chan error, 1)}
	go func() { w.done <- srv.Serve(ctx, ln) }()
	// At most e.workers connections: the load comes from one process
	// with no more connections than cores.
	w.tr = &http.Transport{MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers}
	w.c = &client.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: w.tr}}
	for i := range mix {
		t0 := time.Now()
		_, err := w.plan(i)
		ph.op(time.Since(t0), err)
	}
	return w, nil
}

// plan sends one request for mix job i and checks the response.
func (w *serveW) plan(i int) (*api.PlanResponse, error) {
	nj := w.mix[i]
	resp, err := w.c.Plan(w.e.ctx, nj.cfg, "")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", nj.name, err)
	}
	pl, err := resp.CanonicalPlanFile()
	if err != nil {
		return resp, fmt.Errorf("%s: %w", nj.name, err)
	}
	js, err := json.Marshal(resp.Report)
	if err != nil {
		return resp, fmt.Errorf("%s: %w", nj.name, err)
	}
	return resp, w.e.dig.check(nj.name, pl, js)
}

// serveStats is the serve-hits share of a phase.
type serveStats struct {
	late, rtt     []time.Duration
	sloMiss       int
	inflight      atomic.Int64
	inflightMax   atomic.Int64
	before, after map[string]float64 // /metrics around the phase
}

// measure runs the open loop: n requests due at fixed intervals,
// each timed from when it was due, so a stall is charged to every
// request it delays.
func (w *serveW) measure(ph *phase, d time.Duration) error {
	n := int(serveRate * d.Seconds())
	if n < 10 {
		n = 10
	}
	zipf := rand.NewZipf(w.e.rng, serveZipfS, 1, uint64(len(w.mix)-1))
	picks := make([]int, n)
	for i := range picks {
		picks[i] = int(zipf.Uint64())
	}
	st := &serveStats{}
	ph.serve = st
	var err error
	if st.before, err = w.scrape(); err != nil {
		return err
	}
	root := ph.tr.begin("loadgen.run", -1, 0)
	interval := time.Duration(float64(time.Second) / serveRate)
	ph.start = time.Now()
	var wg sync.WaitGroup
	for i, pick := range picks {
		due := ph.start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(pick int, due time.Time) {
			defer wg.Done()
			w.request(ph, st, pick, due, root)
		}(pick, due)
	}
	wg.Wait()
	ph.elapsed = time.Since(ph.start)
	ph.passes = 1
	ph.tr.end(root)
	if st.after, err = w.scrape(); err != nil {
		return err
	}
	ph.addRunnerStats(runner.Stats{
		PlanComputes:    int64(st.delta("mpressd_plan_computes_total")),
		PlanCacheHits:   int64(st.delta("mpressd_plan_cache_hits_total")),
		PlanCacheMisses: int64(st.delta("mpressd_plan_cache_misses_total")),
	})
	return nil
}

// delta is how much a /metrics series grew over the phase.
func (st *serveStats) delta(series string) float64 { return st.after[series] - st.before[series] }

func (w *serveW) request(ph *phase, st *serveStats, pick int, due time.Time, root int) {
	op := w.e.nextOp()
	v := st.inflight.Add(1)
	for m := st.inflightMax.Load(); v > m && !st.inflightMax.CompareAndSwap(m, v); m = st.inflightMax.Load() {
	}
	sent := time.Now()
	resp, err := w.plan(pick)
	done := time.Now()
	st.inflight.Add(-1)

	lat := done.Sub(due)
	ph.op(lat, err)
	ph.mu.Lock()
	st.late = append(st.late, sent.Sub(due))
	st.rtt = append(st.rtt, done.Sub(sent))
	if err != nil || lat > sloMS*time.Millisecond {
		st.sloMiss++
	}
	ph.mu.Unlock()
	if resp == nil {
		return
	}
	stages := make(map[string]time.Duration, len(resp.StageMS))
	for name, v := range resp.StageMS {
		stages[name] = time.Duration(v * float64(time.Millisecond))
	}
	ph.addJob(stages, resp.Report)
	ph.addRate(resp.Report)
	if ph.tr != nil {
		rs := ph.tr.add("serve.request", due, done, root, op)
		ph.tr.add("loadgen.late", due, sent, rs, op)
		hs := ph.tr.add("http.roundtrip", sent, done, rs, op)
		// Only the job's duration is known, not when the daemon started
		// it; centre it in the round trip.
		el := time.Duration(resp.ElapsedMS * float64(time.Millisecond))
		end := done.Add(-(done.Sub(sent) - el) / 2)
		ph.tr.addJob(end, el, stages, hs, op)
	}
}

// scrape reads the daemon's /metrics into series → value.
func (w *serveW) scrape() (map[string]float64, error) {
	req, err := http.NewRequestWithContext(w.e.ctx, http.MethodGet, w.c.BaseURL+api.PathMetrics, nil)
	if err != nil {
		return nil, err
	}
	res, err := w.c.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer res.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

func (w *serveW) planned() ([]plannedJob, error) { return distinctPlans(w.srv.Runner(), w.mix) }

// close drains the daemon and waits for Serve to return.
func (w *serveW) close() {
	w.cancel()
	<-w.done
	w.tr.CloseIdleConnections()
}
