// Command rsu-serve is the batched-inference HTTP daemon: it accepts
// stereo / flow / segment / ising jobs as JSON, queues them with
// backpressure, and schedules them onto a bounded pool of persistent
// solver workers that share precomputation through the artifact cache
// (see internal/serve and DESIGN.md §10).
//
// Usage:
//
//	rsu-serve -addr :8080 -workers 4 -queue 64
//	curl -s localhost:8080/jobs -d '{"app":"stereo","dataset":"teddy","iterations":50}'
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM starts a graceful drain: readiness flips to 503, accepted
// jobs finish, and after -drain-timeout any still-running solves are
// cancelled at their next sweep boundary. With -checkpoint-dir set, jobs a
// hard drain interrupts persist their solver state there, and the next
// rsu-serve start re-enqueues them, resuming each solve bit-exactly where it
// was cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"rsu/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rsu-serve: ")
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("workers", 0, "serving workers (concurrent jobs; 0 = GOMAXPROCS)")
		queueCap      = flag.Int("queue", 64, "queued-job capacity (backpressure beyond this)")
		solverWorkers = flag.Int("solver-workers", 1, "default per-job solver tiles, as n row bands (1 = serial)")
		defTimeout    = flag.Duration("default-timeout", time.Minute, "job timeout when the spec sets none (0 = unbounded)")
		maxTimeout    = flag.Duration("max-timeout", 10*time.Minute, "upper bound on any per-job timeout (0 = no cap)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
		ckptDir       = flag.String("checkpoint-dir", "", "directory for drain checkpoints (empty = disabled); snapshots found at startup are re-enqueued and resumed")
		pairCache     = flag.Int("pair-cache", 64, "pairwise-LUT cache capacity (design points)")
		datasetCache  = flag.Int("dataset-cache", 32, "dataset cache capacity (scenes)")
		convCache     = flag.Int("conv-cache", 0, "lambda-conversion table cache capacity (0 = default)")
	)
	flag.Parse()

	svc := serve.New(serve.Config{
		Workers:        *workers,
		QueueCap:       *queueCap,
		SolverWorkers:  *solverWorkers,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		CheckpointDir:  *ckptDir,
		Cache: serve.CacheConfig{
			PairCapacity:      *pairCache,
			DatasetCapacity:   *datasetCache,
			ConverterCapacity: *convCache,
		},
	})

	if *ckptDir != "" {
		jobs, err := svc.Recover()
		if err != nil {
			log.Fatalf("recover: %v", err)
		}
		if n := len(jobs); n > 0 {
			log.Printf("recovered %d checkpointed job(s) from %s", n, *ckptDir)
		}
	}

	server := &http.Server{Addr: *addr, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	log.Printf("listening on %s (workers %d, queue %d)", *addr, *workers, *queueCap)

	select {
	case err := <-errc:
		log.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}

	log.Printf("draining (grace %s)", *drainTimeout)
	grace, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop taking connections first, then drain the job queue.
	if err := server.Shutdown(grace); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Shutdown(grace); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("drain: %v", err)
	}
	log.Printf("drained")
}
