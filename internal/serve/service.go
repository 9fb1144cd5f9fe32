package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"rsu/internal/checkpoint"
)

// ErrQueueFull is returned by Submit when the bounded queue cannot accept
// another job; the HTTP layer maps it to 429 + Retry-After.
var ErrQueueFull = errors.New("serve: queue full")

// ErrDraining is returned by Submit once Shutdown has begun; the HTTP layer
// maps it to 503.
var ErrDraining = errors.New("serve: service draining")

// Config tunes a Service. Zero values select the documented defaults.
type Config struct {
	// Workers is the number of persistent serving workers — the bound on
	// concurrently solving jobs. Default GOMAXPROCS.
	Workers int
	// QueueCap bounds the number of queued (accepted, not yet running)
	// jobs. Default 64. Submissions beyond Workers+QueueCap get
	// ErrQueueFull.
	QueueCap int
	// SolverWorkers is the default per-job tile geometry as a band count:
	// n runs n×1 row-band tiles (JobSpec.Workers overrides it). Default 1,
	// the serial one-tile plan: the service gets its throughput from
	// running jobs concurrently, not from splitting one job across cores.
	SolverWorkers int
	// DefaultTimeout applies to jobs that set no timeout_ms; 0 means no
	// default bound.
	DefaultTimeout time.Duration
	// MaxTimeout caps every per-job deadline; 0 means no cap.
	MaxTimeout time.Duration
	// CheckpointDir, when non-empty, enables drain checkpointing: a job
	// cancelled by a hard drain (Shutdown deadline expiry) persists its
	// solver state to <dir>/<jobID>-<boot>.ckpt, and Recover re-enqueues
	// every such snapshot after a restart, resuming each solve bit-exactly
	// where the drain interrupted it. Empty disables checkpointing.
	CheckpointDir string
	// Cache sizes the shared-artifact cache.
	Cache CacheConfig
}

// JobStatus is the terminal state of a job.
type JobStatus string

const (
	StatusOK      JobStatus = "ok"      // solved, result available
	StatusError   JobStatus = "error"   // solver or spec error
	StatusExpired JobStatus = "expired" // context cancelled / deadline passed
)

// Job is one accepted submission. Wait for Done(), then read Result().
type Job struct {
	ID   string
	Spec JobSpec

	ctx       context.Context
	cancel    context.CancelFunc
	stopAfter func() bool // detaches the service-shutdown cancellation hook
	accepted  time.Time

	done   chan struct{}
	result *JobResult
	status JobStatus
	err    error

	// ckpt is the pre-built checkpoint plan of a job re-enqueued by Recover;
	// nil for fresh submissions (the worker builds their plan on demand).
	ckpt *checkpoint.Plan
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the terminal state. It must only be called after Done()
// is closed; result is nil unless the status is StatusOK.
func (j *Job) Result() (*JobResult, JobStatus, error) { return j.result, j.status, j.err }

// Wait blocks until the job finishes or ctx is cancelled.
func (j *Job) Wait(ctx context.Context) (*JobResult, JobStatus, error) {
	select {
	case <-j.done:
		return j.result, j.status, j.err
	case <-ctx.Done():
		return nil, StatusExpired, ctx.Err()
	}
}

func (j *Job) finish(res *JobResult, status JobStatus, err error) {
	j.result, j.status, j.err = res, status, err
	j.cancel()
	j.stopAfter()
	close(j.done)
}

// Service is the embeddable batched-inference engine: a bounded queue in
// front of a fixed pool of persistent worker goroutines, each draining jobs
// through runJob (which drives the app's solver through apps.Solve, on the
// one-tile serial plan unless the job or Config.SolverWorkers asks for more
// workers or for shards). All
// precomputation shared between jobs lives in the ArtifactCache.
type Service struct {
	cfg     Config
	cache   *ArtifactCache
	metrics *Metrics

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	nextID   uint64

	// boot uniquifies this process's checkpoint file names: job IDs restart
	// at 1 on every boot, so a fresh job's snapshot path must never collide
	// with a not-yet-recovered file from the previous incarnation.
	boot string

	// hard cancels every job context when a drain deadline expires.
	hard       context.Context
	hardCancel context.CancelFunc
}

// New starts a Service with cfg's worker pool running.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.SolverWorkers <= 0 {
		cfg.SolverWorkers = 1
	}
	s := &Service{
		cfg:     cfg,
		cache:   NewArtifactCache(cfg.Cache),
		metrics: NewMetrics(),
		queue:   make(chan *Job, cfg.QueueCap),
	}
	if cfg.CheckpointDir != "" {
		// Best effort: a missing directory surfaces as a write error on the
		// first drain snapshot, which the solver joins onto the drain cause.
		_ = os.MkdirAll(cfg.CheckpointDir, 0o755)
		s.boot = strconv.FormatUint(uint64(time.Now().UnixNano()), 36)
	}
	s.hard, s.hardCancel = context.WithCancel(context.Background())
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Metrics exposes the service's counters and histograms.
func (s *Service) Metrics() *Metrics { return s.metrics }

// CacheStats snapshots the shared-artifact cache counters.
func (s *Service) CacheStats() CacheStats { return s.cache.Stats() }

// Draining reports whether Shutdown has begun (readiness turns false).
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// RetryAfterSeconds estimates how long a rejected client should back off
// before resubmitting: the current backlog (queued + in-flight jobs) divided
// across the worker pool, times the mean observed job duration. Before any
// job has completed there is no duration signal and the estimate falls back
// to 1s (the historical fixed hint). Clamped to [1, 60] so a pathological
// backlog cannot tell clients to vanish for hours.
func (s *Service) RetryAfterSeconds() int {
	mean, ok := s.metrics.MeanJobSeconds()
	if !ok {
		return 1
	}
	backlog := s.metrics.QueueDepth.Load() + s.metrics.InFlight.Load()
	est := int(math.Ceil(float64(backlog) / float64(s.cfg.Workers) * mean))
	if est < 1 {
		est = 1
	}
	if est > 60 {
		est = 60
	}
	return est
}

// Submit validates and enqueues a job. The job's context derives from ctx —
// cancelling the request cancels the job, queued or running — bounded by
// the spec's (clamped) timeout. Returns ErrQueueFull when the queue is at
// capacity and ErrDraining after Shutdown has begun; both leave the service
// untouched.
func (s *Service) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	jctx, cancel := context.WithCancel(ctx)
	if d := spec.timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout); d > 0 {
		jctx, cancel = context.WithTimeout(ctx, d)
	}
	// A hard drain (Shutdown deadline expiry) must cancel the job even
	// though its context chains from the request, not from the service.
	stop := context.AfterFunc(s.hard, cancel)

	j := &Job{
		Spec:      spec,
		ctx:       jctx,
		cancel:    cancel,
		stopAfter: stop,
		accepted:  time.Now(),
		done:      make(chan struct{}),
	}

	return s.enqueue(j)
}

// enqueue assigns the job its ID and places it on the bounded queue, backing
// out (cancelling the job context and detaching the drain hook) when the
// service is draining or the queue is full. Shared by Submit and Recover.
func (s *Service) enqueue(j *Job) (*Job, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		j.cancel()
		j.stopAfter()
		return nil, ErrDraining
	}
	s.nextID++
	j.ID = fmt.Sprintf("job-%d", s.nextID)
	select {
	case s.queue <- j:
		s.mu.Unlock()
		s.metrics.Submitted.Add(1)
		s.metrics.QueueDepth.Add(1)
		return j, nil
	default:
		s.mu.Unlock()
		j.cancel()
		j.stopAfter()
		s.metrics.Rejected.Add(1)
		return nil, ErrQueueFull
	}
}

// worker is one persistent serving goroutine: it drains the queue until the
// queue closes (Shutdown), finishing every job it dequeues.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.metrics.QueueDepth.Add(-1)
		queueWait := time.Since(j.accepted)
		// A job whose deadline passed (or whose submitter vanished) while
		// queued is finished without running — the solve would be wasted
		// work nobody is waiting for.
		if err := j.ctx.Err(); err != nil {
			s.metrics.Expired.Add(1)
			j.finish(nil, StatusExpired, err)
			continue
		}
		s.metrics.InFlight.Add(1)
		start := time.Now()
		res, err := runJob(j.ctx, j.ID, j.Spec, s.cache, s.metrics, s.cfg.SolverWorkers, s.checkpointPlan(j))
		elapsed := time.Since(start)
		s.metrics.InFlight.Add(-1)
		s.metrics.ObserveJob(j.Spec.withDefaults().App, elapsed.Seconds())
		switch {
		case err == nil:
			res.QueueNS = queueWait.Nanoseconds()
			res.RunNS = elapsed.Nanoseconds()
			s.metrics.Completed.Add(1)
			j.finish(res, StatusOK, nil)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			s.metrics.Expired.Add(1)
			j.finish(nil, StatusExpired, err)
		default:
			s.metrics.Failed.Add(1)
			j.finish(nil, StatusError, err)
		}
	}
}

// Shutdown drains the service: no new submissions are accepted, every
// already-accepted job (queued or in flight) runs to completion, and the
// worker pool exits. If ctx expires first, all remaining job contexts are
// hard-cancelled — in-flight solves abort at their next sweep boundary with
// the context error — and Shutdown still waits for the workers to exit
// before returning ctx's error. Safe to call once.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("serve: Shutdown called twice")
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.hardCancel()
		return nil
	case <-ctx.Done():
		s.hardCancel()
		<-done
		return ctx.Err()
	}
}
