package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// quickSpec is a job small enough to finish in milliseconds even under the
// race detector.
func quickSpec() JobSpec {
	return JobSpec{App: AppIsing, N: 8, Burn: 1, Measure: 2}
}

// blockerSpec runs long enough to pin a worker until its context is
// cancelled (the solver checks the context between sweeps, and one 8x8
// sweep is microseconds, so cancellation is prompt).
func blockerSpec() JobSpec {
	return JobSpec{App: AppIsing, N: 8, Burn: 0, Measure: 1 << 30}
}

// waitInFlight polls until n jobs are running.
func waitInFlight(t *testing.T, svc *Service, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Metrics().InFlight.Load() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("in-flight jobs never reached %d", n)
}

// waitForGoroutines mirrors the runtime_test.go leak check: the count must
// return to the baseline once the service is drained.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

func shutdownOrFail(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"stereo defaults", JobSpec{App: AppStereo}, true},
		{"ising defaults", JobSpec{App: AppIsing}, true},
		{"unknown app", JobSpec{App: "sudoku"}, false},
		{"unknown sampler", JobSpec{App: AppStereo, Sampler: "quantum"}, false},
		{"negative iterations", JobSpec{App: AppFlow, Iterations: -1}, false},
		{"scale too large", JobSpec{App: AppStereo, Scale: 99}, false},
		{"segment count out of range", JobSpec{App: AppSegment, Segments: 1}, false},
		{"ising lattice too small", JobSpec{App: AppIsing, N: 2}, false},
		{"negative timeout", JobSpec{App: AppStereo, TimeoutMS: -5}, false},
		{"sharded ising", JobSpec{App: AppIsing, Shards: "2x2"}, true},
		{"malformed shards", JobSpec{App: AppStereo, Shards: "2by2"}, false},
		{"non-positive shards", JobSpec{App: AppStereo, Shards: "0x2"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

func TestUnknownDatasetFailsJob(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCap: 4})
	defer shutdownOrFail(t, svc)
	// Other spellings of a valid segment index are unknown names too, not
	// aliases of a real scene under their own dataset-cache keys.
	for _, spec := range []JobSpec{
		{App: AppStereo, Dataset: "nonesuch"},
		{App: AppFlow, Dataset: "teddy"},
		{App: AppSegment, Dataset: "bsd30"},
		{App: AppSegment, Dataset: "bsd5"},
		{App: AppSegment, Dataset: "bsd005"},
		{App: AppSegment, Dataset: "bsd+5"},
		{App: AppSegment, Dataset: "bsd-0"},
	} {
		job, err := svc.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("Submit(%s %q): %v", spec.App, spec.Dataset, err)
		}
		_, status, jerr := job.Wait(context.Background())
		want := fmt.Sprintf("unknown %s dataset %q", spec.App, spec.Dataset)
		if status != StatusError || jerr == nil || !strings.Contains(jerr.Error(), want) {
			t.Fatalf("%s %q: status = %v, err = %v; want StatusError naming %s", spec.App, spec.Dataset, status, jerr, want)
		}
	}
	if st := svc.cache.Stats(); st.DatasetEntries != 0 || st.DatasetMisses != 0 {
		t.Fatalf("unknown datasets reached the dataset cache: %+v", st)
	}
}

func TestBackpressureQueueFull(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCap: 2})
	blockCtx, cancelBlock := context.WithCancel(context.Background())
	blocker, err := svc.Submit(blockCtx, blockerSpec())
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitInFlight(t, svc, 1)

	// Fill the queue to capacity, then one more must bounce.
	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := svc.Submit(context.Background(), quickSpec())
		if err != nil {
			t.Fatalf("Submit queued %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	if _, err := svc.Submit(context.Background(), quickSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit over capacity = %v, want ErrQueueFull", err)
	}
	if got := svc.Metrics().Rejected.Load(); got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}

	// Release the worker; the queued jobs must complete.
	cancelBlock()
	if _, status, _ := blocker.Wait(context.Background()); status != StatusExpired {
		t.Fatalf("blocker status = %v, want StatusExpired", status)
	}
	for i, j := range queued {
		if _, status, err := j.Wait(context.Background()); status != StatusOK {
			t.Fatalf("queued job %d: status %v err %v, want StatusOK", i, status, err)
		}
	}
	shutdownOrFail(t, svc)
}

func TestDeadlineExpiryWhileQueued(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCap: 4})
	blockCtx, cancelBlock := context.WithCancel(context.Background())
	if _, err := svc.Submit(blockCtx, blockerSpec()); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitInFlight(t, svc, 1)

	doomed, err := svc.Submit(context.Background(), func() JobSpec {
		s := quickSpec()
		s.TimeoutMS = 20
		return s
	}())
	if err != nil {
		t.Fatalf("Submit doomed: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // let the deadline pass while queued
	cancelBlock()

	res, status, jerr := doomed.Wait(context.Background())
	if status != StatusExpired || !errors.Is(jerr, context.DeadlineExceeded) {
		t.Fatalf("doomed: status %v err %v, want StatusExpired/DeadlineExceeded", status, jerr)
	}
	if res != nil {
		t.Fatalf("expired-in-queue job must not produce a result, got %+v", res)
	}
	if got := svc.Metrics().Expired.Load(); got < 1 {
		t.Fatalf("Expired = %d, want >= 1", got)
	}
	shutdownOrFail(t, svc)
}

func TestSubmitCancelledWhileQueuedIsDropped(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCap: 4})
	blockCtx, cancelBlock := context.WithCancel(context.Background())
	if _, err := svc.Submit(blockCtx, blockerSpec()); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitInFlight(t, svc, 1)

	reqCtx, cancelReq := context.WithCancel(context.Background())
	queued, err := svc.Submit(reqCtx, quickSpec())
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	cancelReq() // client walks away before the job runs
	cancelBlock()
	_, status, jerr := queued.Wait(context.Background())
	if status != StatusExpired || !errors.Is(jerr, context.Canceled) {
		t.Fatalf("status %v err %v, want StatusExpired/Canceled", status, jerr)
	}
	shutdownOrFail(t, svc)
}

func TestDrainCompletesInFlightAndQueued(t *testing.T) {
	baseline := runtime.NumGoroutine()
	svc := New(Config{Workers: 2, QueueCap: 8})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := svc.Submit(context.Background(), quickSpec())
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	shutdownOrFail(t, svc)
	for i, j := range jobs {
		if _, status, err := j.Result(); status != StatusOK {
			t.Fatalf("job %d after drain: status %v err %v, want StatusOK", i, status, err)
		}
	}
	if _, err := svc.Submit(context.Background(), quickSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Shutdown = %v, want ErrDraining", err)
	}
	waitForGoroutines(t, baseline)
}

func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()
	svc := New(Config{Workers: 1, QueueCap: 2})
	blocker, err := svc.Submit(context.Background(), blockerSpec())
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitInFlight(t, svc, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	// The hard drain must have cancelled the in-flight solve.
	if _, status, _ := blocker.Wait(context.Background()); status != StatusExpired {
		t.Fatalf("blocker status = %v, want StatusExpired", status)
	}
	waitForGoroutines(t, baseline)
}

func TestCacheHitMissAccounting(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCap: 4})
	defer shutdownOrFail(t, svc)

	run := func() *JobResult {
		t.Helper()
		spec := JobSpec{App: AppStereo, Dataset: "teddy", Iterations: 2, Sampler: "new"}
		job, err := svc.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		res, status, jerr := job.Wait(context.Background())
		if status != StatusOK {
			t.Fatalf("status %v err %v, want StatusOK", status, jerr)
		}
		return res
	}

	first := run()
	if first.PairLUTHit || first.DatasetHit {
		t.Fatalf("first job must miss both caches, got pair=%v dataset=%v", first.PairLUTHit, first.DatasetHit)
	}
	second := run()
	if !second.PairLUTHit || !second.DatasetHit {
		t.Fatalf("second job must hit both caches, got pair=%v dataset=%v", second.PairLUTHit, second.DatasetHit)
	}

	stats := svc.CacheStats()
	if stats.PairHits != 1 || stats.PairMisses != 1 {
		t.Fatalf("pair cache hits/misses = %d/%d, want 1/1", stats.PairHits, stats.PairMisses)
	}
	if stats.DatasetHits != 1 || stats.DatasetMisses != 1 {
		t.Fatalf("dataset cache hits/misses = %d/%d, want 1/1", stats.DatasetHits, stats.DatasetMisses)
	}
	// Both jobs replay the same 2-sweep annealing ladder at the same design
	// point, so the second job's conversion tables must all be hits.
	if stats.ConvHits == 0 {
		t.Fatalf("conversion-table cache recorded no hits: %+v", stats)
	}
}

func TestRunLogCapture(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCap: 4})
	defer shutdownOrFail(t, svc)
	spec := JobSpec{App: AppSegment, Dataset: "bsd01", Iterations: 3, CaptureLog: true}
	job, err := svc.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, status, jerr := job.Wait(context.Background())
	if status != StatusOK {
		t.Fatalf("status %v err %v", status, jerr)
	}
	if res.Sweeps != 3 || len(res.RunLog) != 3 {
		t.Fatalf("sweeps %d, run-log lines %d; want 3 and 3", res.Sweeps, len(res.RunLog))
	}
	for _, line := range res.RunLog {
		if !strings.Contains(line, `"sweep"`) || !strings.Contains(line, `"energy"`) {
			t.Fatalf("run-log line missing SolveStats fields: %s", line)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(body string) (int, string, map[string][]string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /jobs: %v", err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 1<<16)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, string(buf[:n]), resp.Header
	}

	if code, body, _ := post(`{"app":"ising","n":8,"burn":1,"measure":2}`); code != 200 {
		t.Fatalf("valid job: status %d body %s", code, body)
	} else if !strings.Contains(body, `"magnetization"`) {
		t.Fatalf("ising result missing magnetization: %s", body)
	}
	if code, body, _ := post(`{"app":"nope"}`); code != 400 {
		t.Fatalf("bad app: status %d body %s", code, body)
	}
	if code, body, _ := post(`{"app":"stereo","bogus_field":1}`); code != 400 {
		t.Fatalf("unknown field: status %d body %s", code, body)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 1<<16)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, string(buf[:n])
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz: %d, want 200", code)
	}
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "rsu_serve_jobs_completed_total") ||
		!strings.Contains(body, "rsu_serve_cache_pair_hits_total") ||
		!strings.Contains(body, "rsu_serve_job_seconds_bucket") {
		t.Fatalf("/metrics incomplete: %d\n%s", code, body)
	}

	shutdownOrFail(t, svc)
	if code, _ := get("/readyz"); code != 503 {
		t.Fatalf("/readyz while drained: %d, want 503", code)
	}
	if code, _, _ := post(`{"app":"ising"}`); code != 503 {
		t.Fatalf("POST while drained: %d, want 503", code)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCap: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	blockCtx, cancelBlock := context.WithCancel(context.Background())
	if _, err := svc.Submit(blockCtx, blockerSpec()); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitInFlight(t, svc, 1)
	if _, err := svc.Submit(context.Background(), quickSpec()); err != nil {
		t.Fatalf("fill queue: %v", err)
	}

	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"app":"ising","n":8,"burn":1,"measure":2}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After %q must parse to an integer in [1, 60]", ra)
	}
	cancelBlock()
	shutdownOrFail(t, svc)
}

func TestShardedJobRunsAndCounts(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCap: 4})
	defer shutdownOrFail(t, svc)
	job, err := svc.Submit(context.Background(), JobSpec{App: AppIsing, N: 8, Burn: 1, Measure: 2, Shards: "2x2"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, status, jerr := job.Wait(context.Background())
	if status != StatusOK || jerr != nil {
		t.Fatalf("status = %v, err = %v; want StatusOK", status, jerr)
	}
	if res.Metrics["magnetization"] < 0 || res.Metrics["magnetization"] > 1 {
		t.Fatalf("magnetization %v out of [0,1]", res.Metrics["magnetization"])
	}
	if got := svc.Metrics().ShardedJobs.Load(); got != 1 {
		t.Fatalf("ShardedJobs = %d, want 1", got)
	}
	if !strings.Contains(svc.Metrics().Render(svc.CacheStats()), "rsu_serve_sharded_jobs_total 1") {
		t.Fatal("rendered metrics missing rsu_serve_sharded_jobs_total 1")
	}
}
