package mrf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/rng"
)

// blockingSampler parks every Sample call until released, letting tests pin
// the solver mid-sweep and cancel it.
type blockingSampler struct {
	inner   core.LabelSampler
	entered chan struct{} // receives once when the first Sample call parks
	release chan struct{}
	once    bool
}

func (b *blockingSampler) SetTemperature(T float64) error { return b.inner.SetTemperature(T) }

func (b *blockingSampler) Sample(energies []float64, current int) (int, error) {
	if !b.once {
		b.once = true
		b.entered <- struct{}{}
		<-b.release
	}
	return b.inner.Sample(energies, current)
}

// failingSampler errors after n successful Sample calls.
type failingSampler struct {
	inner core.LabelSampler
	n     int
}

func (f *failingSampler) SetTemperature(T float64) error { return f.inner.SetTemperature(T) }

func (f *failingSampler) Sample(energies []float64, current int) (int, error) {
	if f.n <= 0 {
		return current, fmt.Errorf("injected sampler failure")
	}
	f.n--
	return f.inner.Sample(energies, current)
}

// panickySampler panics after n successful Sample calls.
type panickySampler struct {
	inner core.LabelSampler
	n     int
}

func (p *panickySampler) SetTemperature(T float64) error { return p.inner.SetTemperature(T) }

func (p *panickySampler) Sample(energies []float64, current int) (int, error) {
	if p.n <= 0 {
		panic("injected sampler panic")
	}
	p.n--
	return p.inner.Sample(energies, current)
}

// TestSolveCtxCancelReturnsPartialLabels cancels a serial solve partway and
// checks it stops within one sweep, returning the partial labeling and the
// context's error. TestSolveParallelCtxCancelStopsPool runs the same check
// on the tile engines, and also the goroutine-leak check: the tile engine's
// executor goroutines must all have exited afterwards.
func TestSolveCtxCancelReturnsPartialLabels(t *testing.T) { checkCtxCancel(t, serialEngines) }

func TestSolveParallelCtxCancelStopsPool(t *testing.T) { checkCtxCancel(t, tileEngines) }

func checkCtxCancel(t *testing.T, engines []engineCase) {
	p := twoRegionProblem(12, 10)
	for _, e := range engines {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		sweeps := 0
		lab, err := e.solve(ctx, p, sfactory(21), Schedule{T0: 4, Alpha: 0.9, Iterations: 10000}, SolveOptions{
			OnSweep: func(iter int, lab *img.Labels, st SolveStats) {
				sweeps++
				if iter == 2 {
					cancel()
				}
			},
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", e.name, err)
		}
		if lab == nil {
			t.Fatalf("%s: cancelled solve must return the partial labeling", e.name)
		}
		if sweeps != 3 {
			t.Fatalf("%s: solver ran %d sweeps after a cancel at sweep 2, want exactly 3", e.name, sweeps)
		}
		waitForGoroutines(t, baseline)
	}
}

// TestSolveParallelNoGoroutineLeak runs complete and erroring worker solves
// and requires the goroutine count back at baseline afterwards: the pool's
// stop path must run on every exit.
func TestSolveParallelNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := twoRegionProblem(10, 8)
	sched := Schedule{T0: 2, Alpha: 0.9, Iterations: 5}
	if _, err := solveSamplers(context.Background(), p, mkSamplers(6, 31), sched, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	// Erroring run: a failing sampler aborts the solve mid-schedule.
	samplers := mkSamplers(3, 32)
	samplers[1] = &failingSampler{inner: samplers[1], n: 10}
	if _, err := solveSamplers(context.Background(), p, samplers, sched, SolveOptions{}); err == nil {
		t.Fatal("failing sampler must abort the solve")
	}
	waitForGoroutines(t, baseline)
}

// waitForGoroutines polls until the goroutine count returns to the baseline
// (workers need a moment to drain after stop()).
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

// TestSolveCtxDeadline checks deadline expiry surfaces as DeadlineExceeded.
func TestSolveCtxDeadline(t *testing.T) {
	p := twoRegionProblem(16, 12)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := SolveCtx(ctx, p, core.NewSoftwareSampler(rng.NewXoshiro256(2)),
		Schedule{T0: 4, Alpha: 0.999999, Iterations: 10_000_000}, SolveOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSolveSamplerErrorAborts checks a sampler error stops the serial solve
// with a wrapped, located error and the partial labeling.
func TestSolveSamplerErrorAborts(t *testing.T) {
	p := twoRegionProblem(8, 6)
	s := &failingSampler{inner: core.NewSoftwareSampler(rng.NewXoshiro256(3)), n: 5}
	lab, err := Solve(p, s, Schedule{T0: 2, Alpha: 0.9, Iterations: 10}, SolveOptions{})
	if err == nil || !strings.Contains(err.Error(), "injected sampler failure") {
		t.Fatalf("err = %v, want wrapped injected failure", err)
	}
	if !strings.Contains(err.Error(), "pixel") {
		t.Fatalf("err = %v, want pixel location in message", err)
	}
	if lab == nil {
		t.Fatal("erroring solve must return the partial labeling")
	}
}

// TestSolveParallelWorkerPanicBecomesError is the panic-to-error hardening
// check on every engine: a sampler that panics mid-sweep must fail the solve
// with an error locating it (the tile, or the serial engine's sweep and row)
// — not crash the process — return the partial labeling and leak no
// goroutines.
func TestSolveParallelWorkerPanicBecomesError(t *testing.T) {
	p := twoRegionProblem(10, 8)
	for _, e := range engineCases {
		baseline := runtime.NumGoroutine()
		last := e.streams() - 1
		factory := func(i int) core.LabelSampler {
			s := sfactory(41)(i)
			if i == last {
				s = &panickySampler{inner: s, n: 7}
			}
			return s
		}
		where := fmt.Sprintf("tile %d", last)
		if e.shards.IsZero() {
			where = "sweep 0 row 0" // the 8th draw is pixel (7,0)
		}
		lab, err := e.solve(context.Background(), p, factory, Schedule{T0: 2, Alpha: 0.9, Iterations: 10}, SolveOptions{})
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%s: err = %v, want the sampler panic surfaced as an error", e.name, err)
		}
		if !strings.Contains(err.Error(), where) {
			t.Fatalf("%s: err = %v, want the panic located at %q", e.name, err, where)
		}
		if lab == nil {
			t.Fatalf("%s: panicking solve must still return the partial labeling", e.name)
		}
		waitForGoroutines(t, baseline)
	}
}

// TestSolveStatsRecords checks the SolveStats fields against independently
// computed values on both the serial and parallel paths.
func TestSolveStatsRecords(t *testing.T) {
	p := twoRegionProblem(9, 7)
	sched := Schedule{T0: 4, Alpha: 0.5, Iterations: 6}
	for _, workers := range []int{1, 3} {
		var stats []SolveStats
		var energies []float64
		factory := func(w int) core.LabelSampler {
			return core.NewSoftwareSampler(rng.NewXoshiro256(uint64(50 + w)))
		}
		_, err := SolveAuto(p, factory, sched, SolveOptions{
			Workers: workers,
			OnSweep: func(iter int, lab *img.Labels, st SolveStats) {
				stats = append(stats, st)
				energies = append(energies, p.TotalEnergy(lab))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != sched.Iterations {
			t.Fatalf("workers %d: %d records, want %d", workers, len(stats), sched.Iterations)
		}
		for i, st := range stats {
			if st.Sweep != i {
				t.Errorf("workers %d record %d: Sweep = %d", workers, i, st.Sweep)
			}
			if want := sched.Temperature(i); st.T != want {
				t.Errorf("workers %d sweep %d: T = %v, want %v", workers, i, st.T, want)
			}
			// Energy is tracked incrementally (init + per-flip deltas), so it
			// matches the recomputed total only up to float accumulation
			// error — 1e-9 relative is the documented invariant.
			if diff := math.Abs(st.Energy - energies[i]); diff > 1e-9*math.Abs(energies[i]) {
				t.Errorf("workers %d sweep %d: Energy = %v, want %v (recomputed)", workers, i, st.Energy, energies[i])
			}
			if st.Flips < 0 || st.Flips > p.W*p.H {
				t.Errorf("workers %d sweep %d: Flips = %d out of range", workers, i, st.Flips)
			}
			if st.Elapsed <= 0 {
				t.Errorf("workers %d sweep %d: Elapsed = %v", workers, i, st.Elapsed)
			}
		}
	}
}

// TestOnSweepLabelsBufferIsReused is the documented retention contract: the
// labels pointer passed to OnSweep is the solver's working buffer, so a
// retained pointer observes later sweeps' mutations while a Clone taken
// inside the hook does not.
func TestOnSweepLabelsBufferIsReused(t *testing.T) {
	p := twoRegionProblem(10, 8)
	var retained *img.Labels
	var firstCopy *img.Labels
	var firstSnapshot []int
	_, err := Solve(p, core.NewSoftwareSampler(rng.NewXoshiro256(6)),
		Schedule{T0: 6, Alpha: 0.9, Iterations: 12}, SolveOptions{
			OnSweep: func(iter int, lab *img.Labels, st SolveStats) {
				if iter == 0 {
					retained = lab
					firstCopy = lab.Clone()
					firstSnapshot = append([]int(nil), lab.L...)
				}
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := range retained.L {
		if retained.L[i] != firstSnapshot[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("retained OnSweep pointer never observed later mutations — either the buffer is no longer reused (update the doc) or the chain froze")
	}
	for i := range firstCopy.L {
		if firstCopy.L[i] != firstSnapshot[i] {
			t.Fatal("Clone taken inside the hook must be immutable")
		}
	}
}

// TestScheduleTFloorReachable checks a custom floor replaces the default and
// that the default stays exactly 1e-4.
func TestScheduleTFloorReachable(t *testing.T) {
	s := Schedule{T0: 8, Alpha: 0.5, Iterations: 10, TFloor: 0.5}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Temperature(30); got != 0.5 {
		t.Fatalf("custom floor: Temperature(30) = %v, want 0.5", got)
	}
	def := Schedule{T0: 8, Alpha: 0.5, Iterations: 10}
	if got := def.Temperature(100); got != DefaultTFloor {
		t.Fatalf("default floor: Temperature(100) = %v, want %v", got, DefaultTFloor)
	}
	if DefaultTFloor != 1e-4 {
		t.Fatalf("DefaultTFloor = %v, historical value is 1e-4", DefaultTFloor)
	}
	// A floor below the default must also take effect (deep anneals).
	deep := Schedule{T0: 1, Alpha: 0.1, Iterations: 100, TFloor: 1e-9}
	if got := deep.Temperature(50); got != 1e-9 {
		t.Fatalf("deep floor: Temperature(50) = %v, want 1e-9", got)
	}
}

// TestSolveParallelCtxCancelMidSweepUnblocks pins a worker mid-sweep, cancels,
// releases the worker, and checks the solve unwinds within one sweep.
func TestSolveParallelCtxCancelMidSweepUnblocks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := twoRegionProblem(8, 6)
	ctx, cancel := context.WithCancel(context.Background())
	bs := &blockingSampler{
		inner:   core.NewSoftwareSampler(rng.NewXoshiro256(61)),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	samplers := []core.LabelSampler{bs, core.NewSoftwareSampler(rng.NewXoshiro256(62))}
	done := make(chan error, 1)
	go func() {
		_, err := solveSamplers(ctx, p, samplers,
			Schedule{T0: 2, Alpha: 0.9, Iterations: 100000}, SolveOptions{})
		done <- err
	}()
	<-bs.entered // worker 0 is parked inside its first Sample
	cancel()
	close(bs.release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled solve did not return within 5s of the worker unblocking")
	}
	waitForGoroutines(t, baseline)
}
