package mrf

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/rng"
	"rsu/internal/shard"
)

// barrierWant is the hash barrierRun reports for the reference solve. It was
// computed on the tile engine before the epoch barrier and the gather
// minimum existed (command channels, a WaitGroup and SampleBatch), so every
// barrier test below also checks that neither change moved a label or a
// stream state.
const barrierWant = 0xb13f3460ec61b510

// barrierSched is the reference solve's schedule: long enough that the cut
// shrinks to a few labels, short enough for -race -count=3.
var barrierSched = Schedule{T0: 16, Alpha: 0.85, Iterations: 10}

// barrierRun solves shardTestProblem(30, 22, 6) on 2x2 tiles with RSU-G
// units, which take the gather-minimum path, and returns an FNV-1a hash of
// the labels and of every stream's captured state (RNG words and counters).
// wrap, when non-nil, may replace tile i's unit.
func barrierRun(t *testing.T, ctx context.Context, opts SolveOptions, wrap func(i int, u *core.Unit) core.LabelSampler) (uint64, *img.Labels, error) {
	t.Helper()
	units := make([]*core.Unit, 4)
	factory := func(i int) core.LabelSampler {
		units[i] = core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(core.StreamSeed(77, i)), true)
		if wrap != nil {
			return wrap(i, units[i])
		}
		return units[i]
	}
	opts.Shards = shard.Geometry{Rows: 2, Cols: 2}
	lab, err := Solve(ctx, shardTestProblem(30, 22, 6), factory, barrierSched, opts)
	if err != nil {
		return 0, lab, err
	}
	h := fnv.New64a()
	for _, l := range lab.L {
		binary.Write(h, binary.LittleEndian, int64(l))
	}
	for i, u := range units {
		st, err := u.CaptureState()
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		binary.Write(h, binary.LittleEndian, st.RNG)
		s := st.Stats
		for _, v := range []int{s.Evaluations, s.LabelEvals, s.Cutoffs, s.Truncated, s.NoFire, s.Ties} {
			binary.Write(h, binary.LittleEndian, int64(v))
		}
	}
	return h.Sum64(), lab, nil
}

// parkedIn counts the goroutines whose stack runs through fn and is parked
// in sync.Cond.Wait (park) or, with park false, is anywhere inside fn.
func parkedIn(fn string, park bool) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, fn) && (!park || strings.Contains(g, "sync.(*Cond).Wait")) {
			n++
		}
	}
	return n
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting until %s", what)
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stallUnit is a Unit whose first SampleBatchMin call of each sweep runs
// stall first. sweep is the sweep the driver is running.
type stallUnit struct {
	*core.Unit
	stalled int64 // the last sweep stalled, plus one
	sweep   *atomic.Int64
	stall   func()
}

func (s *stallUnit) SampleBatchMin(energies, mins []float64, stride int, currents, out []int) error {
	if k := s.sweep.Load(); s.stalled != k+1 {
		s.stalled = k + 1
		s.stall()
	}
	return s.Unit.SampleBatchMin(energies, mins, stride, currents, out)
}

// TestBarrierParksPastSpinBudget forces both park paths of the epoch
// barrier on every sweep: OnSweep holds the driver until the three
// executors have parked for the next epoch, and tile 3 holds its executor
// until the driver has parked waiting for it. Labels and stream states must
// equal the reference solve's, and no goroutine may outlive the solve.
func TestBarrierParksPastSpinBudget(t *testing.T) {
	want, _, err := barrierRun(t, context.Background(), SolveOptions{executors: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want != barrierWant {
		t.Fatalf("reference solve hash %#x, want %#x", want, uint64(barrierWant))
	}
	baseline := runtime.NumGoroutine()
	var sweep atomic.Int64
	opts := SolveOptions{
		executors: 4,
		OnSweep: func(k int, _ *img.Labels, _ SolveStats) {
			waitUntil(t, "three executors park for the next epoch", func() bool {
				return parkedIn("(*shardPool).awaitEpoch", true) == 3
			})
			sweep.Store(int64(k + 1))
		},
	}
	got, _, err := barrierRun(t, context.Background(), opts, func(i int, u *core.Unit) core.LabelSampler {
		if i != 3 {
			return u
		}
		return &stallUnit{Unit: u, sweep: &sweep, stall: func() {
			waitUntil(t, "the driver parks for tile 3", func() bool {
				return parkedIn("(*shardPool).awaitExecutors", true) == 1
			})
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("parked solve hash %#x, want %#x", got, want)
	}
	waitForGoroutines(t, baseline)
}

// TestBarrierGOMAXPROCS1 runs four executors on four tiles with one P: a
// spinning waiter must yield, or the executor it waits for never runs.
func TestBarrierGOMAXPROCS1(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got, _, err := barrierRun(t, context.Background(), SolveOptions{executors: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != barrierWant {
		t.Fatalf("GOMAXPROCS 1, executors 4: hash %#x, want %#x", got, uint64(barrierWant))
	}
}

// TestBarrierCancelWhileParked cancels the solve while every executor is
// parked between sweeps: the solve must stop after that sweep with the
// partial labeling and context.Canceled, and stop() must wake and join the
// parked executors.
func TestBarrierCancelWhileParked(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sweeps := 0
	_, lab, err := barrierRun(t, ctx, SolveOptions{
		executors: 4,
		OnSweep: func(k int, _ *img.Labels, _ SolveStats) {
			sweeps++
			if k == 1 {
				waitUntil(t, "three executors park for the next epoch", func() bool {
					return parkedIn("(*shardPool).awaitEpoch", true) == 3
				})
				cancel()
			}
		},
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lab == nil || sweeps != 2 {
		t.Fatalf("cancelled after sweep 1: labels %v, %d sweeps; want the partial labeling after 2", lab != nil, sweeps)
	}
	waitForGoroutines(t, baseline)
}

// countUnit is a Unit that counts its SampleBatchMin calls in done.
type countUnit struct {
	*core.Unit
	done *atomic.Int64
}

func (c *countUnit) SampleBatchMin(energies, mins []float64, stride int, currents, out []int) error {
	err := c.Unit.SampleBatchMin(energies, mins, stride, currents, out)
	c.done.Add(1)
	return err
}

// panicUnit is a Unit that, on SampleBatchMin call after+1, runs release and
// panics.
type panicUnit struct {
	*core.Unit
	calls, after int
	release      func()
}

func (p *panicUnit) SampleBatchMin(energies, mins []float64, stride int, currents, out []int) error {
	if p.calls++; p.calls > p.after {
		p.release()
		panic("injected tile panic")
	}
	return p.Unit.SampleBatchMin(energies, mins, stride, currents, out)
}

// TestBarrierTilePanicWhileSpinning panics in tile 0, which the driver runs
// itself, in sweep 1's first stage once tiles 1-3 have finished that stage
// and their executors wait for the next epoch. The panic must become the
// solve's error, the barrier must still complete, and every executor must
// exit.
func TestBarrierTilePanicWhileSpinning(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// Each owned row of a tile at least two cells wide is one segment, one
	// SampleBatchMin call, per stage.
	plan, err := shard.NewPlan(shard.Geometry{Rows: 2, Cols: 2}, 30, 22)
	if err != nil {
		t.Fatal(err)
	}
	others := 0
	for _, tile := range plan.Tiles[1:] {
		others += tile.H()
	}
	var done atomic.Int64
	_, lab, err := barrierRun(t, context.Background(), SolveOptions{executors: 4}, func(i int, u *core.Unit) core.LabelSampler {
		if i != 0 {
			return &countUnit{Unit: u, done: &done}
		}
		return &panicUnit{Unit: u, after: 2 * plan.Tiles[0].H(), release: func() {
			waitUntil(t, "tiles 1-3 finish sweep 1's first stage and wait", func() bool {
				return done.Load() == 3*int64(others) && parkedIn("(*shardPool).awaitEpoch", false) == 3
			})
		}}
	})
	if err == nil || !strings.Contains(err.Error(), "tile 0 panicked") {
		t.Fatalf("err = %v, want the tile 0 panic", err)
	}
	if lab == nil {
		t.Fatal("a panicking solve must return the partial labeling")
	}
	waitForGoroutines(t, baseline)
}
