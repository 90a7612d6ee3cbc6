// Command mpressd serves MPress planning over HTTP: clients POST a
// training-job config and receive the simulation report plus the
// memory-compaction plan in the plan.Save file format, computed
// through a shared worker pool and a bounded LRU plan cache.
//
// Usage:
//
//	mpressd -addr :7323 -workers 4 -queue 16
//
// Endpoints: POST /v1/plan, POST /v1/sweep, GET /v1/jobs,
// GET /v1/jobs/<id>/trace, GET /healthz, GET /metrics (Prometheus
// text). A full queue answers 429 with Retry-After; SIGINT/SIGTERM
// drain in-flight jobs before exit. See the README section "Running
// mpressd".
//
// Fleet mode: -peers lists every daemon of a planning fleet (including
// this one) and turns the process into one peer of a coordinated tier —
// plan and search requests route to the consistent-hash owner of their
// route key (the plan key, so every job sharing a plan lands on one
// peer), and each plan is computed once fleet-wide. All peers must run
// the identical -peers list. See the README section "Running a fleet".
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpress/internal/fleet"
	"mpress/internal/runner"
	"mpress/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7323", "listen address")
	workers := flag.Int("workers", 0, "concurrent planning jobs (default GOMAXPROCS)")
	queue := flag.Int("queue", 16, "admission queue depth (in-service + waiting requests)")
	cacheEntries := flag.Int("cache-entries", 0, "plan cache entry cap (0 default, negative unbounded)")
	retain := flag.Int("retain", 64, "completed jobs retained for the trace endpoint and the result memo (0 disables both)")
	timeout := flag.Duration("timeout", 2*time.Minute, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "cap on client-requested deadlines")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain bound")
	peers := flag.String("peers", "", "comma-separated base URLs of every fleet peer (empty: standalone)")
	self := flag.String("self", "", "this daemon's own base URL in -peers (default http://<addr>)")
	flag.Parse()

	var fl *fleet.Fleet
	if *peers != "" {
		selfURL := *self
		if selfURL == "" {
			selfURL = "http://" + *addr
		}
		var err error
		fl, err = fleet.New(selfURL, strings.Split(*peers, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpressd: %v\n", err)
			os.Exit(1)
		}
	}

	if *retain == 0 {
		*retain = -1 // Options reads 0 as "default"; the flag's 0 means off
	}
	srv := serve.New(serve.Options{
		Runner: runner.Options{
			Workers:          *workers,
			PlanCacheEntries: *cacheEntries,
		},
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		RetainJobs:     *retain,
		DrainTimeout:   *drain,
		Fleet:          fl,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpressd: %v\n", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if fl != nil {
		fmt.Fprintf(os.Stderr, "mpressd: fleet peer %s of %d\n", fl.Self(), fl.Size())
	}
	fmt.Fprintf(os.Stderr, "mpressd: listening on http://%s (workers=%d queue=%d)\n",
		ln.Addr(), srv.Runner().Workers(), *queue)
	if err := srv.Serve(ctx, ln); err != nil {
		fmt.Fprintf(os.Stderr, "mpressd: %v\n", err)
		os.Exit(1)
	}
}
