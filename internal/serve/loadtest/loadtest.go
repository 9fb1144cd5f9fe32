// Package loadtest drives a serve.Service with concurrent mixed-app
// traffic and reports what happened: completions, rejections (backpressure),
// expiries, latency, and the shared-artifact cache hit rates. It is a test
// harness: the package's own race-enabled acceptance test
// (TestAcceptanceMixedLoad) is its only caller, and no command exposes it.
package loadtest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rsu/internal/serve"
)

// Options shapes a load-test run. Zero values select the defaults.
type Options struct {
	// Jobs is the total number of submissions (default 64).
	Jobs int
	// Concurrency is the number of submitting clients (default 16).
	Concurrency int
	// Specs is the job mix, assigned round-robin across submissions.
	// Default: DefaultMix(2) — all four apps at 2 sweeps each.
	Specs []serve.JobSpec
	// Retry429 resubmits a rejected job after RetryDelay until the context
	// expires, modeling a well-behaved client honoring Retry-After.
	Retry429 bool
	// RetryDelay is the backoff after a 429 (default 10ms).
	RetryDelay time.Duration
}

// DefaultMix returns one spec per app, `iters` sweeps each — small enough
// that a 64-job run finishes in seconds even under the race detector.
func DefaultMix(iters int) []serve.JobSpec {
	return []serve.JobSpec{
		{App: serve.AppStereo, Dataset: "teddy", Iterations: iters},
		{App: serve.AppFlow, Dataset: "venus", Iterations: iters},
		{App: serve.AppSegment, Dataset: "bsd00", Iterations: iters},
		{App: serve.AppIsing, N: 16, Burn: 1, Measure: iters},
	}
}

// Report summarizes a run.
type Report struct {
	Jobs      int           `json:"jobs"`
	Completed int           `json:"completed"`
	Failed    int           `json:"failed"`
	Expired   int           `json:"expired"`
	Rejected  int           `json:"rejected"` // 429 responses observed (pre-retry)
	Elapsed   time.Duration `json:"elapsed"`
	// PairLUTHits counts completed jobs whose pairwise LUT came from the
	// cache; PairHitRate is the cache-level rate including misses.
	PairLUTHits int              `json:"pair_lut_hits"`
	Cache       serve.CacheStats `json:"cache"`
	Errors      []string         `json:"errors,omitempty"`
}

// String renders the report for terminal output.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadtest: %d jobs in %v (%d completed, %d failed, %d expired, %d rejections observed)\n",
		r.Jobs, r.Elapsed.Round(time.Millisecond), r.Completed, r.Failed, r.Expired, r.Rejected)
	fmt.Fprintf(&b, "  pair-LUT cache: %.1f%% hit rate (%d hits / %d misses), %d jobs served from cache\n",
		100*r.Cache.PairHitRate(), r.Cache.PairHits, r.Cache.PairMisses, r.PairLUTHits)
	fmt.Fprintf(&b, "  dataset cache: %d hits / %d misses; conversion tables: %d hits / %d misses\n",
		r.Cache.DatasetHits, r.Cache.DatasetMisses, r.Cache.ConvHits, r.Cache.ConvMisses)
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "  error: %s\n", e)
	}
	return b.String()
}

// Run submits opts.Jobs jobs to svc from opts.Concurrency concurrent
// clients and waits for every accepted job to finish. The context bounds
// the whole run; on expiry, outstanding submissions are abandoned (their
// jobs expire through the same context).
func Run(ctx context.Context, svc *serve.Service, opts Options) Report {
	if opts.Jobs <= 0 {
		opts.Jobs = 64
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 16
	}
	if len(opts.Specs) == 0 {
		opts.Specs = DefaultMix(2)
	}
	if opts.RetryDelay <= 0 {
		opts.RetryDelay = 10 * time.Millisecond
	}

	var (
		completed, failed, expired, rejected, pairHits atomic.Int64
		errMu                                          sync.Mutex
		errs                                           []string
		work                                           = make(chan int)
		wg                                             sync.WaitGroup
	)
	recordErr := func(err error) {
		errMu.Lock()
		if len(errs) < 8 {
			errs = append(errs, err.Error())
		}
		errMu.Unlock()
	}

	start := time.Now()
	wg.Add(opts.Concurrency)
	for c := 0; c < opts.Concurrency; c++ {
		go func() {
			defer wg.Done()
			for i := range work {
				spec := opts.Specs[i%len(opts.Specs)]
				var job *serve.Job
				var err error
				for {
					job, err = svc.Submit(ctx, spec)
					if errors.Is(err, serve.ErrQueueFull) {
						rejected.Add(1)
						if opts.Retry429 && ctx.Err() == nil {
							select {
							case <-time.After(opts.RetryDelay):
								continue
							case <-ctx.Done():
							}
						}
					}
					break
				}
				if err != nil {
					if !errors.Is(err, serve.ErrQueueFull) {
						recordErr(err)
						failed.Add(1)
					}
					continue
				}
				res, status, err := job.Wait(ctx)
				switch status {
				case serve.StatusOK:
					completed.Add(1)
					if res.PairLUTHit {
						pairHits.Add(1)
					}
				case serve.StatusExpired:
					expired.Add(1)
				default:
					recordErr(err)
					failed.Add(1)
				}
			}
		}()
	}
	for i := 0; i < opts.Jobs; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			i = opts.Jobs // stop submitting; fallthrough to close
		}
	}
	close(work)
	wg.Wait()

	return Report{
		Jobs:        opts.Jobs,
		Completed:   int(completed.Load()),
		Failed:      int(failed.Load()),
		Expired:     int(expired.Load()),
		Rejected:    int(rejected.Load()),
		Elapsed:     time.Since(start),
		PairLUTHits: int(pairHits.Load()),
		Cache:       svc.CacheStats(),
		Errors:      errs,
	}
}
