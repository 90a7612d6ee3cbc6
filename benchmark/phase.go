package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"mpress/internal/runner"
	"mpress/internal/search"
)

// phase accumulates one measured phase: op outcomes for the
// end-to-end metrics, and counters of the layers the ops passed
// through for the per-layer ones.
type phase struct {
	tr      *tracer // nil when untraced
	start   time.Time
	elapsed time.Duration
	passes  int
	mem0    runtime.MemStats
	// passRates are the successful ops per second of each pass.
	passRates []float64

	mu        sync.Mutex
	lat       []time.Duration
	attempted int
	failed    int
	errs      []string

	// Runner jobs the ops ran, and what they did.
	jobs          int
	stage         map[string]time.Duration
	events        int64
	allReduces    int64
	nicBytes      int64
	chaosFailures int
	checkpoints   int
	planComputes  int64
	planHits      int64
	planMisses    int64
	// rates are the simulated samples/sec of the plans the ops returned.
	rates []float64

	expanded, pruned, memoHits, skipped int
	searchWall                          time.Duration

	serve *serveStats
}

func newPhase(tr *tracer) *phase {
	ph := &phase{tr: tr, stage: map[string]time.Duration{}}
	runtime.ReadMemStats(&ph.mem0)
	return ph
}

// runPasses repeats pass, at least once, for as many whole passes as
// come closest to filling d.
func (ph *phase) runPasses(d time.Duration, pass func(span int) error) error {
	ph.start = time.Now()
	for {
		sp := ph.tr.begin("bench.pass", -1, 0)
		ok0, t0 := ph.ok(), time.Now()
		err := pass(sp)
		ph.passRates = append(ph.passRates, float64(ph.ok()-ok0)/time.Since(t0).Seconds())
		ph.tr.end(sp)
		if err != nil {
			return err
		}
		ph.passes++
		// Stop once another pass of average length would overshoot d
		// by more than stopping now falls short of it.
		ph.elapsed = time.Since(ph.start)
		if ph.elapsed+ph.elapsed/time.Duration(2*ph.passes) >= d {
			return nil
		}
	}
}

// op records one op's outcome; err is a failed run or a digest
// mismatch.
func (ph *phase) op(lat time.Duration, err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	ph.lat = append(ph.lat, lat)
	if err != nil {
		ph.failed++
		if len(ph.errs) < 8 {
			ph.errs = append(ph.errs, err.Error())
		}
	}
}

// jobDone returns a runner.Options.OnJobDone hook that folds every job
// into the phase's layer counters and traces it under parent.
func (ph *phase) jobDone(parent int, op int64) func(runner.JobResult) {
	return func(res runner.JobResult) {
		ph.tr.addJob(time.Now(), res.Elapsed, res.StageTimes, parent, op)
		ph.addJob(res.StageTimes, res.Report)
	}
}

// addJob folds one job's stage times and report into the counters.
func (ph *phase) addJob(stages map[string]time.Duration, rep *runner.Report) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.jobs++
	for name, d := range stages {
		ph.stage[name] += d
	}
	if rep == nil {
		return
	}
	ph.events += rep.SimEvents
	ph.allReduces += rep.AllReduces
	ph.nicBytes += int64(rep.NICBytes)
	ph.chaosFailures += rep.Failures
	ph.checkpoints += rep.Checkpoints
}

// addRate records the simulated throughput of a plan an op returned.
func (ph *phase) addRate(rep *runner.Report) {
	if rep == nil || rep.SamplesPerSec <= 0 {
		return
	}
	ph.mu.Lock()
	ph.rates = append(ph.rates, rep.SamplesPerSec)
	ph.mu.Unlock()
}

func (ph *phase) addRunnerStats(st runner.Stats) {
	ph.mu.Lock()
	ph.planComputes += st.PlanComputes
	ph.planHits += st.PlanCacheHits
	ph.planMisses += st.PlanCacheMisses
	ph.mu.Unlock()
}

func (ph *phase) addSearch(r *search.Result) {
	ph.mu.Lock()
	ph.expanded += r.Expanded
	ph.pruned += r.Pruned
	ph.memoHits += r.MemoHits
	ph.skipped += r.Skipped
	ph.searchWall += r.Wall
	ph.mu.Unlock()
}

// ok is the number of ops that succeeded.
func (ph *phase) ok() int {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return ph.attempted - ph.failed
}

// throughput is the median over passes of successful ops per second;
// the open loop, a single pass, divides by its whole duration.
func (ph *phase) throughput() float64 {
	if len(ph.passRates) > 0 {
		return median(ph.passRates)
	}
	return ratio(float64(ph.ok()), ph.elapsed.Seconds())
}

// latencyMS returns the p-quantile (0..1) of op latency in ms.
func (ph *phase) latencyMS(p float64) float64 {
	return quantile(msOf(ph.lat), p)
}

// stageMS is the mean time per job the runner spent in a stage.
func (ph *phase) stageMS(name string) float64 {
	return ratio(ms(ph.stage[name]), float64(ph.jobs))
}

// perPass divides a phase total by its pass count.
func (ph *phase) perPass(v float64) float64 { return ratio(v, float64(ph.passes)) }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reading 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the linearly interpolated p-quantile (0..1) of vs.
func quantile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// geomean of positive values, 0 when empty.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }
