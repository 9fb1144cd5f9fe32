package mrf_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rsu/internal/checkpoint"
	"rsu/internal/core"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/shard"
)

// defaultRun is everything a solve hands out: final labels, every stream's
// state after the solve, and the encoded bytes of every periodic snapshot.
type defaultRun struct {
	labels []int
	states []string
	snaps  [][]byte
}

// solveDefault solves p with the options left at their defaults (Workers 0)
// plus a snapshot after every sweep.
func solveDefault(t *testing.T, p *mrf.Problem, sched mrf.Schedule) defaultRun {
	t.Helper()
	var run defaultRun
	var samplers []core.LabelSampler
	factory := func(stream int) core.LabelSampler {
		s := core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(core.StreamSeed(5, stream)), true)
		samplers = append(samplers, s)
		return s
	}
	lab, err := mrf.Solve(context.Background(), p, factory, sched, mrf.SolveOptions{
		CheckpointEvery: 1,
		OnCheckpoint: func(st *mrf.SolverState) error {
			if g := (shard.Geometry{Rows: st.ShardRows, Cols: st.ShardCols}); g != shard.Auto(p.W, p.H) {
				return fmt.Errorf("snapshot on %s tiles, want shard.Auto's %s", g, shard.Auto(p.W, p.H))
			}
			run.snaps = append(run.snaps, checkpoint.Encode(&checkpoint.Snapshot{App: "host", Sampler: "new", Seed: 5, Schedule: sched, State: *st}))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	run.labels = lab.L
	for i, s := range samplers {
		ss, err := s.(core.Checkpointable).CaptureState()
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		run.states = append(run.states, fmt.Sprint(ss))
	}
	return run
}

// TestSolveDefaultGeometryIgnoresHost pins that the default geometry is a
// pure function of the grid: Workers 0 at GOMAXPROCS 1 and at GOMAXPROCS 2
// gives identical labels, stream states and snapshot bytes, from a two-pixel
// grid up to one that shard.Auto tiles 2x3.
func TestSolveDefaultGeometryIgnoresHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range []struct{ w, h, sweeps int }{
		{1, 2, 6}, {9, 1, 6}, {64, 48, 6}, {300, 300, 3}, {640, 480, 3},
	} {
		const labels = 4
		r := rand.New(rand.NewSource(int64(g.w*1000 + g.h)))
		singles := make([]float64, g.w*g.h*labels)
		for i := range singles {
			singles[i] = r.Float64() * 8
		}
		p := &mrf.Problem{
			W: g.w, H: g.h, Labels: labels,
			Singleton:  func(x, y, l int) float64 { return singles[(y*g.w+x)*labels+l] },
			PairWeight: 1.2,
			Dist:       mrf.Absolute,
		}
		sched := mrf.Schedule{T0: 4, Alpha: 0.8, Iterations: g.sweeps}
		runtime.GOMAXPROCS(1)
		one := solveDefault(t, p, sched)
		runtime.GOMAXPROCS(2)
		two := solveDefault(t, p, sched)
		name := fmt.Sprintf("%dx%d", g.w, g.h)
		if !slices.Equal(one.labels, two.labels) {
			t.Errorf("%s: labels differ between GOMAXPROCS 1 and 2", name)
		}
		if !slices.Equal(one.states, two.states) {
			t.Errorf("%s: stream states differ between GOMAXPROCS 1 and 2:\n%v\n%v", name, one.states, two.states)
		}
		if len(one.snaps) != g.sweeps-1 || !slices.EqualFunc(one.snaps, two.snaps, bytes.Equal) {
			t.Errorf("%s: %d and %d snapshots (want %d), or their bytes differ", name, len(one.snaps), len(two.snaps), g.sweeps-1)
		}
	}
}
