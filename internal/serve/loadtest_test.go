package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAcceptanceMixedLoad pushes 64 mixed-app jobs from 16 concurrent
// clients through a deliberately tight service (one worker, one queue slot)
// so that backpressure demonstrably fires. Clients honour a 429 by retrying
// after 10ms. Every job must complete, with zero goroutine leaks and a
// pair-LUT cache hit rate above 90%.
func TestAcceptanceMixedLoad(t *testing.T) {
	const jobs, clients = 64, 16
	mix := []JobSpec{
		{App: AppStereo, Dataset: "teddy", Iterations: 2},
		{App: AppFlow, Dataset: "venus", Iterations: 2},
		{App: AppSegment, Dataset: "bsd00", Iterations: 2},
		{App: AppIsing, N: 16, Burn: 1, Measure: 2},
	}
	baseline := runtime.NumGoroutine()
	svc := New(Config{Workers: 1, QueueCap: 1})

	// Pin the single worker so the 16 clients contend for one queue slot —
	// 429s are then guaranteed, not timing-dependent.
	blockCtx, cancelBlock := context.WithCancel(context.Background())
	if _, err := svc.Submit(blockCtx, blockerSpec()); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitInFlight(t, svc, 1)
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancelBlock()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var (
		completed, rejected atomic.Int64
		mu                  sync.Mutex
		errs                []string
		work                = make(chan int)
		wg                  sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err.Error())
		mu.Unlock()
	}
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for i := range work {
				job, err := svc.Submit(ctx, mix[i%len(mix)])
				for errors.Is(err, ErrQueueFull) {
					rejected.Add(1)
					select {
					case <-time.After(10 * time.Millisecond):
						job, err = svc.Submit(ctx, mix[i%len(mix)])
					case <-ctx.Done():
						err = ctx.Err()
					}
				}
				if err != nil {
					fail(err)
					continue
				}
				if _, status, err := job.Wait(ctx); status != StatusOK {
					fail(fmt.Errorf("job %d %s: %v", i, status, err))
					continue
				}
				completed.Add(1)
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		work <- i
	}
	close(work)
	wg.Wait()

	if n := completed.Load(); n != jobs || len(errs) != 0 {
		t.Fatalf("completed = %d, want %d with no failed or expired jobs (errors %v)", n, jobs, errs)
	}
	if rejected.Load() == 0 {
		t.Fatal("no 429 rejections observed; backpressure never fired")
	}
	// Four design points across 65 pair-LUT requests (64 jobs + blocker):
	// at most 4 misses, so the hit rate must clear 90% with margin.
	cache := svc.CacheStats()
	if rate := cache.PairHitRate(); rate <= 0.90 {
		t.Fatalf("pair-LUT cache hit rate = %.3f, want > 0.90 (hits %d, misses %d)",
			rate, cache.PairHits, cache.PairMisses)
	}
	if cache.PairMisses > 4 {
		t.Fatalf("pair-LUT misses = %d, want <= 4 (one per design point)", cache.PairMisses)
	}

	shutdownOrFail(t, svc)
	waitForGoroutines(t, baseline)
}
