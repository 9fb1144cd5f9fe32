package mrf

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/rng"
	"rsu/internal/shard"
)

// argminSampler deterministically picks the lowest-energy label (lowest index
// on ties) and draws no randomness — under it, the sharded solver and the
// monolithic checkerboard reference must agree exactly iff every pixel sees
// exactly the neighbor labels it should at each phase.
type argminSampler struct{}

func (argminSampler) SetTemperature(float64) error { return nil }

func (argminSampler) Sample(energies []float64, current int) (int, error) {
	best := 0
	for l := 1; l < len(energies); l++ {
		if energies[l] < energies[best] {
			best = l
		}
	}
	return best, nil
}

// randomProblem builds a random MRF whose singleton table is a fixed function
// of the test RNG, so sharded and reference runs see identical energies.
func randomShardProblem(r *rand.Rand, w, h, labels int) *Problem {
	singles := make([]float64, w*h*labels)
	for i := range singles {
		singles[i] = r.Float64() * 10
	}
	kinds := []DistanceKind{Squared, Absolute, Binary}
	return &Problem{
		W: w, H: h, Labels: labels,
		Singleton:  func(x, y, l int) float64 { return singles[(y*w+x)*labels+l] },
		PairWeight: r.Float64() * 3,
		Dist:       kinds[r.Intn(len(kinds))],
	}
}

// referenceCheckerboard runs the monolithic checkerboard chain under the
// argmin sampler, invoking observe after each color phase — the ground truth
// the sharded solver's phase hook is compared against. Within a color phase
// no cell's neighbors change (they are all the other color), so sequential
// raster order here equals any parallel order.
func referenceCheckerboard(p *Problem, init *img.Labels, sweeps int, observe func(sweep, color int, lab *img.Labels)) {
	tab := p.BuildTables()
	lab := init.Clone()
	vec := make([]float64, p.Labels)
	for k := 0; k < sweeps; k++ {
		for color := 0; color < 2; color++ {
			for y := 0; y < p.H; y++ {
				for x := (y + color) % 2; x < p.W; x += 2 {
					tab.LabelEnergies(vec, lab, x, y)
					best := 0
					for l := 1; l < p.Labels; l++ {
						if vec[l] < vec[best] {
							best = l
						}
					}
					lab.Set(x, y, best)
				}
			}
			observe(k, color, lab)
		}
	}
}

// TestShardedMatchesCheckerboardAtEveryBarrier is the halo-exchange property
// test: over random grids, label counts and tile geometries, the sharded
// solver's labeling after every color-phase exchange must equal the
// monolithic checkerboard reference — i.e. every pixel saw exactly the
// neighbor labels the monolithic chain would have shown it. Run under -race
// this also exercises the exchange barriers for data races.
func TestShardedMatchesCheckerboardAtEveryBarrier(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	for iter := 0; iter < 40; iter++ {
		w, h := 2+r.Intn(28), 2+r.Intn(22)
		labels := 2 + r.Intn(4)
		geom := shard.Geometry{Rows: 1 + r.Intn(min(h, 4)), Cols: 1 + r.Intn(min(w, 4))}
		if geom.Tiles() == 1 {
			geom.Cols = min(w, 2) // force the multi-tile path when possible
		}
		p := randomShardProblem(r, w, h, labels)
		init := img.NewLabels(w, h)
		for i := range init.L {
			init.L[i] = r.Intn(labels)
		}
		const sweeps = 3
		type snap struct {
			sweep, color int
			labels       []int
		}
		var want []snap
		referenceCheckerboard(p, init, sweeps, func(sweep, color int, lab *img.Labels) {
			want = append(want, snap{sweep, color, append([]int(nil), lab.L...)})
		})
		got := 0
		_, err := solveSharded(p, func(int) core.LabelSampler { return argminSampler{} },
			Schedule{T0: 1, Alpha: 1, Iterations: sweeps},
			SolveOptions{
				Init:      init,
				Shards:    geom,
				executors: 1 + r.Intn(4),
				shardPhaseHook: func(sweep, color int, lab *img.Labels) {
					if got >= len(want) {
						t.Fatalf("iter %d: more phases than the reference produced", iter)
					}
					ref := want[got]
					if ref.sweep != sweep || ref.color != color {
						t.Fatalf("iter %d: phase order (%d,%d), want (%d,%d)", iter, sweep, color, ref.sweep, ref.color)
					}
					for i := range lab.L {
						if lab.L[i] != ref.labels[i] {
							t.Fatalf("iter %d (%dx%d labels %d, tiles %s): sweep %d color %d pixel (%d,%d) = %d, reference %d",
								iter, w, h, labels, geom, sweep, color, i%w, i/w, lab.L[i], ref.labels[i])
						}
					}
					got++
				},
			})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if geom.Tiles() > 1 && got != len(want) {
			t.Fatalf("iter %d: observed %d phases, want %d", iter, got, len(want))
		}
	}
}

// solveSharded runs the engine opts.Shards selects (1×1 is the serial
// engine).
func solveSharded(p *Problem, factory func(int) core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	return Solve(context.Background(), p, factory, sched, opts)
}

func rsugFactory(seed uint64) func(int) core.LabelSampler {
	return core.StreamFactory(seed, func(src rng.Source) core.LabelSampler {
		return core.MustUnit(core.NewRSUG(), src, true)
	})
}

func shardTestProblem(w, h, labels int) *Problem {
	return &Problem{
		W: w, H: h, Labels: labels,
		Singleton: func(x, y, l int) float64 {
			return float64((x*7+y*13+l*5)%11) * 0.6
		},
		PairWeight: 1.5,
		Dist:       Absolute,
	}
}

// TestShardedExecutorInvariance pins the executor-count bit-invariance of the
// sharded solver: with real RSU-G samplers and a fixed geometry/seed, every
// executor count must produce byte-identical labels and the identical energy
// trace. Executor counts above the tile count exercise the clamp.
func TestShardedExecutorInvariance(t *testing.T) {
	p := shardTestProblem(30, 22, 6)
	sched := Schedule{T0: 8, Alpha: 0.9, Iterations: 6}
	geom := shard.Geometry{Rows: 2, Cols: 3}
	run := func(executors int) ([]int, []float64) {
		var energies []float64
		lab, err := solveSharded(p, rsugFactory(99), sched, SolveOptions{
			Shards:    geom,
			executors: executors,
			OnSweep: func(iter int, lab *img.Labels, st SolveStats) {
				energies = append(energies, st.Energy)
			},
		})
		if err != nil {
			t.Fatalf("executors=%d: %v", executors, err)
		}
		return lab.L, energies
	}
	wantLabels, wantEnergy := run(1)
	for _, e := range []int{2, 3, 5, 9} {
		gotLabels, gotEnergy := run(e)
		for i := range wantLabels {
			if gotLabels[i] != wantLabels[i] {
				t.Fatalf("executors=%d: label %d differs (%d vs %d)", e, i, gotLabels[i], wantLabels[i])
			}
		}
		for i := range wantEnergy {
			if gotEnergy[i] != wantEnergy[i] {
				t.Fatalf("executors=%d: sweep %d energy %v, want %v", e, i, gotEnergy[i], wantEnergy[i])
			}
		}
	}
}

// TestSharded1x1MatchesSerial pins the delegation contract: a 1×1 geometry is
// the serial solver, byte for byte.
func TestSharded1x1MatchesSerial(t *testing.T) {
	p := shardTestProblem(17, 11, 4)
	sched := Schedule{T0: 6, Alpha: 0.92, Iterations: 8}
	want, err := solveOne(p, rsugFactory(7)(0), sched, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := solveSharded(p, rsugFactory(7), sched, SolveOptions{Shards: shard.Geometry{Rows: 1, Cols: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeLabels(got), encodeLabels(want)) {
		t.Fatal("1x1-sharded labels differ from the serial solver")
	}
}

func encodeLabels(l *img.Labels) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%dx%d:%v", l.W, l.H, l.L)
	return b.Bytes()
}

// TestShardedReproducible pins per-seed reproducibility at a fixed geometry.
func TestShardedReproducible(t *testing.T) {
	p := shardTestProblem(24, 18, 5)
	sched := Schedule{T0: 8, Alpha: 0.9, Iterations: 5}
	opts := SolveOptions{Shards: shard.Geometry{Rows: 2, Cols: 2}}
	a, err := solveSharded(p, rsugFactory(5), sched, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := solveSharded(p, rsugFactory(5), sched, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeLabels(a), encodeLabels(b)) {
		t.Fatal("same seed and geometry produced different labelings")
	}
}

// TestSolveAutoShardDispatch covers the dispatch rules: an explicit geometry
// selects the tile engine regardless of Workers, so every Workers value
// yields the labeling of the geometry alone.
func TestSolveAutoShardDispatch(t *testing.T) {
	p := shardTestProblem(20, 14, 4)
	sched := Schedule{T0: 6, Alpha: 0.9, Iterations: 4}
	geom := shard.Geometry{Rows: 2, Cols: 2}
	want, err := solveSharded(p, rsugFactory(11), sched, SolveOptions{Shards: geom})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3} {
		got, err := Solve(context.Background(), p, rsugFactory(11), sched, SolveOptions{Shards: geom, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(encodeLabels(got), encodeLabels(want)) {
			t.Fatalf("workers=%d: Solve with Shards diverges from the tile engine", workers)
		}
	}
}

// TestShardedCheckpointResume interrupts a sharded solve mid-run and resumes
// it from the captured state (including halos); the spliced energy trace and
// final labels must be byte-identical to the uninterrupted run. It also
// proves Solve routes a sharded snapshot back to the sharded solver.
func TestShardedCheckpointResume(t *testing.T) {
	p := shardTestProblem(22, 16, 5)
	sched := Schedule{T0: 8, Alpha: 0.9, Iterations: 8}
	geom := shard.Geometry{Rows: 2, Cols: 2}

	var refEnergy []float64
	want, err := solveSharded(p, rsugFactory(3), sched, SolveOptions{
		Shards: geom,
		OnSweep: func(iter int, lab *img.Labels, st SolveStats) {
			refEnergy = append(refEnergy, st.Energy)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const mid = 4
	var snap *SolverState
	var headEnergy []float64
	_, err = solveSharded(p, rsugFactory(3), sched, SolveOptions{
		Shards:          geom,
		CheckpointEvery: mid,
		OnCheckpoint: func(st *SolverState) error {
			if snap == nil {
				snap = st
			}
			return nil
		},
		OnSweep: func(iter int, lab *img.Labels, st SolveStats) {
			headEnergy = append(headEnergy, st.Energy)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.NextSweep != mid {
		t.Fatalf("no midpoint snapshot captured: %+v", snap)
	}
	if snap.ShardRows != geom.Rows || snap.ShardCols != geom.Cols {
		t.Fatalf("snapshot geometry %dx%d, want %s", snap.ShardRows, snap.ShardCols, geom)
	}
	if len(snap.Halos) != geom.Tiles() {
		t.Fatalf("snapshot has %d halo buffers, want %d", len(snap.Halos), geom.Tiles())
	}

	tailEnergy := append([]float64(nil), headEnergy[:mid]...)
	// Resume through Solve with Shards unset: the snapshot's geometry
	// must route the run back to the sharded solver.
	got, err := Solve(context.Background(), p, rsugFactory(3), sched, SolveOptions{
		Resume: snap,
		OnSweep: func(iter int, lab *img.Labels, st SolveStats) {
			tailEnergy = append(tailEnergy, st.Energy)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeLabels(got), encodeLabels(want)) {
		t.Fatal("resumed sharded labels differ from the uninterrupted run")
	}
	if len(tailEnergy) != len(refEnergy) {
		t.Fatalf("spliced trace has %d sweeps, want %d", len(tailEnergy), len(refEnergy))
	}
	for i := range refEnergy {
		if tailEnergy[i] != refEnergy[i] {
			t.Fatalf("sweep %d: spliced energy %v, want %v", i, tailEnergy[i], refEnergy[i])
		}
	}
}

// TestResumeShardMismatch pins the cross-mode rejections: sharded snapshots
// cannot resume on the serial engine, on a different lattice or from a
// single sampler, and serial snapshots cannot resume sharded.
func TestResumeShardMismatch(t *testing.T) {
	p := shardTestProblem(16, 12, 4)
	sched := Schedule{T0: 8, Alpha: 0.9, Iterations: 6}
	geom := shard.Geometry{Rows: 2, Cols: 2}
	var shardSnap, serialSnap *SolverState
	if _, err := solveSharded(p, rsugFactory(1), sched, SolveOptions{
		Shards: geom, CheckpointEvery: 3,
		OnCheckpoint: func(st *SolverState) error { shardSnap = st; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := solveOne(p, rsugFactory(1)(0), sched, SolveOptions{
		CheckpointEvery: 3,
		OnCheckpoint:    func(st *SolverState) error { serialSnap = st; return nil },
	}); err != nil {
		t.Fatal(err)
	}

	// A 2×2-sharded snapshot says Workers=4; resuming it on the 4×1 lattice
	// of Workers=4 must still be rejected — the draw sequences differ.
	if _, err := solveSharded(p, rsugFactory(1), sched, SolveOptions{
		Shards: workerGeometry(4, p.W, p.H), Resume: shardSnap,
	}); err == nil {
		t.Fatal("4x1 tiles accepted a 2x2 snapshot")
	}
	if _, err := solveSharded(p, rsugFactory(1), sched, SolveOptions{
		Shards: shard.Geometry{Rows: 1, Cols: 1}, Resume: shardSnap,
	}); err == nil || !strings.Contains(err.Error(), "serial engine") {
		t.Fatalf("serial engine resumed a sharded snapshot: err = %v", err)
	}
	// The snapshot routes a single-sampler resume onto its four tiles, which
	// would share the one sampler.
	if _, err := solveOne(p, rsugFactory(1)(0), sched, SolveOptions{Resume: shardSnap}); err == nil {
		t.Fatal("a single sampler resumed a sharded snapshot")
	}
	if _, err := solveSharded(p, rsugFactory(1), sched, SolveOptions{Shards: geom, Resume: serialSnap}); err == nil {
		t.Fatal("sharded solver accepted an unsharded snapshot")
	}
	if _, err := solveSharded(p, rsugFactory(1), sched, SolveOptions{
		Shards: shard.Geometry{Rows: 2, Cols: 3}, Resume: shardSnap,
	}); err == nil {
		t.Fatal("sharded solver accepted a snapshot with a different geometry")
	}
}

// TestShardsRejectedWithoutFactory pins the guard on the single-sampler call
// (one sampler, Workers 1): a multi-tile geometry without a per-tile factory
// is an error naming the streams that would share the sampler, not a silent
// fallback — and an invalid geometry is an error too.
func TestShardsRejectedWithoutFactory(t *testing.T) {
	p := shardTestProblem(10, 8, 3)
	sched := Schedule{T0: 4, Alpha: 1, Iterations: 2}
	geom := shard.Geometry{Rows: 2, Cols: 2}
	if _, err := solveOne(p, rsugFactory(1)(0), sched, SolveOptions{Shards: geom}); err == nil || !strings.Contains(err.Error(), "streams 0 and 1") {
		t.Fatalf("a single sampler ran a multi-tile geometry: err = %v", err)
	}
	if _, err := solveSharded(p, rsugFactory(1), sched, SolveOptions{Shards: shard.Geometry{Rows: 20, Cols: 1}}); err == nil {
		t.Fatal("the tile engine accepted a geometry with more tile rows than grid rows")
	}
}

// tempFailSampler fails its SetTemperature call for sweep failAt (counting
// from 0); every other call passes through.
type tempFailSampler struct {
	core.LabelSampler
	failAt, calls int
}

func (f *tempFailSampler) SetTemperature(T float64) error {
	f.calls++
	if f.calls-1 == f.failAt {
		return fmt.Errorf("injected SetTemperature failure")
	}
	return f.LabelSampler.SetTemperature(T)
}

// TestSetTemperatureFailureReturnsPartialLabels pins Solve's partial-label
// contract on the tile engine, for a worker count and an explicit lattice: a sampler
// that fails SetTemperature at sweep 3 aborts the solve with the labeling of
// the three completed sweeps — gathered from the tiles, not a stale
// observer copy.
func TestSetTemperatureFailureReturnsPartialLabels(t *testing.T) {
	p := shardTestProblem(14, 10, 4)
	sched := Schedule{T0: 8, Alpha: 0.9, Iterations: 8}
	factory := func(failAt int) func(int) core.LabelSampler {
		return func(w int) core.LabelSampler {
			f := &tempFailSampler{LabelSampler: rsugFactory(17)(w), failAt: -1}
			if w == 0 {
				f.failAt = failAt
			}
			return f
		}
	}
	for _, opts := range []SolveOptions{{Workers: 2}, {Shards: shard.Geometry{Rows: 2, Cols: 2}}} {
		// The reference is the labeling an OnSweep hook sees after sweep 2
		// of an unfailing run, so it does not depend on the return path.
		var want *img.Labels
		ref := opts
		ref.OnSweep = func(iter int, lab *img.Labels, _ SolveStats) {
			if iter == 2 {
				want = lab.Clone()
			}
		}
		if _, err := Solve(context.Background(), p, factory(-1), sched, ref); err != nil {
			t.Fatal(err)
		}
		got, err := Solve(context.Background(), p, factory(3), sched, opts)
		if err == nil || !strings.Contains(err.Error(), "injected SetTemperature failure") {
			t.Fatalf("workers %d shards %s: err = %v, want the injected SetTemperature failure", opts.Workers, opts.Shards, err)
		}
		if !bytes.Equal(encodeLabels(got), encodeLabels(want)) {
			t.Fatalf("workers %d shards %s: aborted solve did not return the labels of its three completed sweeps", opts.Workers, opts.Shards)
		}
	}
}
