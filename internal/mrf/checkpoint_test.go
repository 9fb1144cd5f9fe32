package mrf

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"rsu/internal/core"
	"rsu/internal/fault"
	"rsu/internal/img"
	"rsu/internal/rng"
	"rsu/internal/shard"
	"rsu/internal/uq"
)

// sweepRec is one OnSweep observation; exact float equality across runs is
// the "byte-identical run logs" half of the resume guarantee.
type sweepRec struct {
	Sweep  int
	T      float64
	Energy float64
	Flips  int
}

func recordInto(recs *[]sweepRec) func(int, *img.Labels, SolveStats) {
	return func(iter int, lab *img.Labels, st SolveStats) {
		*recs = append(*recs, sweepRec{Sweep: st.Sweep, T: st.T, Energy: st.Energy, Flips: st.Flips})
	}
}

func ckptLabelsEqual(t *testing.T, what string, a, b *img.Labels) {
	t.Helper()
	if a.W != b.W || a.H != b.H {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, a.W, a.H, b.W, b.H)
	}
	for i := range a.L {
		if a.L[i] != b.L[i] {
			t.Fatalf("%s: labels differ first at %d: %d vs %d", what, i, a.L[i], b.L[i])
		}
	}
}

func recsEqual(t *testing.T, what string, a, b []sweepRec) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d sweep records", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: sweep record %d differs: %+v vs %+v", what, i, a[i], b[i])
		}
	}
}

// TestCheckpointResumeBitExactSerial checkpoints runs mid-flight on the
// serial engine, and TestCheckpointResumeBitExactParallel on the tile
// engines, and verify the resumed runs' final labels and per-sweep records
// are identical to an uninterrupted run's: twenty random software-sampler
// problems resumed from every periodic snapshot, and one RSU-G run with
// fault injection and a UQ collector — every stateful component at once —
// whose fault counters and posterior marginals must survive too.
func TestCheckpointResumeBitExactSerial(t *testing.T) { checkResumeBitExact(t, serialEngines) }

func TestCheckpointResumeBitExactParallel(t *testing.T) { checkResumeBitExact(t, tileEngines) }

func checkResumeBitExact(t *testing.T, engines []engineCase) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			checkResumeRandomProblems(t, e)
			checkResumeStatefulComponents(t, e)
		})
	}
}

func checkResumeRandomProblems(t *testing.T, e engineCase) {
	r := rand.New(rand.NewSource(901))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(r)
		sched := Schedule{T0: 4, Alpha: 0.93, Iterations: 12}
		seed := uint64(7000 + trial)

		var fullRecs []sweepRec
		full, err := e.solve(context.Background(), p, sfactory(seed), sched,
			SolveOptions{OnSweep: recordInto(&fullRecs)})
		if err != nil {
			t.Fatal(err)
		}

		var snaps []*SolverState
		var headRecs []sweepRec
		_, err = e.solve(context.Background(), p, sfactory(seed), sched, SolveOptions{
			OnSweep:         recordInto(&headRecs),
			CheckpointEvery: 5,
			OnCheckpoint:    func(st *SolverState) error { snaps = append(snaps, st); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != 2 { // after sweeps 5 and 10; never after the final sweep
			t.Fatalf("expected 2 periodic snapshots, got %d", len(snaps))
		}

		for _, st := range snaps {
			var tailRecs []sweepRec
			got, err := e.solve(context.Background(), p, sfactory(seed), sched, SolveOptions{
				OnSweep: recordInto(&tailRecs),
				Resume:  st,
			})
			if err != nil {
				t.Fatal(err)
			}
			ckptLabelsEqual(t, "final labels", full, got)
			recsEqual(t, "resumed tail", fullRecs[st.NextSweep:], tailRecs)
		}
		recsEqual(t, "checkpointing run", fullRecs, headRecs)
	}
}

func checkResumeStatefulComponents(t *testing.T, e engineCase) {
	p := &Problem{
		W: 9, H: 7, Labels: 4,
		Singleton:  func(x, y, l int) float64 { return float64((x*31+y*17+l*13)%97) * 0.5 },
		PairWeight: 1.5,
		Dist:       Absolute,
	}
	sched := Schedule{T0: 8, Alpha: 0.9, Iterations: 14}
	const seed = 424242
	fcfg := &fault.Config{BleedThrough: 0.05, DarkCountPerBin: 0.002, Drift: 0.001, Seed: 99}
	makeAcc := func() *uq.Accumulator {
		acc, err := uq.NewForRun(uq.Options{BurnIn: 2, Thin: 2}, p.W, p.H, p.Labels, sched.Iterations)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	makeInj := func() *fault.Injection {
		inj, err := fault.New(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}

	// Uninterrupted reference.
	var fullRecs []sweepRec
	fullAcc, fullInj := makeAcc(), makeInj()
	full, err := e.solve(context.Background(), p, rsugFactory(seed), sched, SolveOptions{
		OnSweep: recordInto(&fullRecs), Collector: fullAcc, Faults: fullInj,
	})
	if err != nil {
		t.Fatal(err)
	}
	fullStats := fullInj.Stats()

	// Checkpointing run: keep only the snapshot after sweep 8.
	var snap *SolverState
	headLab, err := e.solve(context.Background(), p, rsugFactory(seed), sched, SolveOptions{
		OnSweep: func(int, *img.Labels, SolveStats) {}, Collector: makeAcc(), Faults: makeInj(),
		CheckpointEvery: 8,
		OnCheckpoint: func(st *SolverState) error {
			if st.NextSweep == 8 {
				snap = st
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ckptLabelsEqual(t, "checkpointing run's final labels", full, headLab)
	if snap == nil {
		t.Fatal("no snapshot captured at sweep 8")
	}
	if n := e.streams(); snap.Workers != n || len(snap.Samplers) != n || len(snap.Faults) != n {
		t.Fatalf("snapshot shape: workers %d, %d sampler states, %d fault states, want %d each",
			snap.Workers, len(snap.Samplers), len(snap.Faults), n)
	}
	if snap.Collector == nil {
		t.Fatal("snapshot is missing the collector state")
	}

	// Resume into freshly built samplers / injection / accumulator, as a
	// restarted process would.
	var tailRecs []sweepRec
	tailAcc, tailInj := makeAcc(), makeInj()
	got, err := e.solve(context.Background(), p, rsugFactory(seed), sched, SolveOptions{
		OnSweep: recordInto(&tailRecs), Collector: tailAcc, Faults: tailInj,
		Resume: snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	ckptLabelsEqual(t, "resumed final labels", full, got)
	recsEqual(t, "resumed tail", fullRecs[8:], tailRecs)
	if tailStats := tailInj.Stats(); tailStats != fullStats {
		t.Fatalf("fault stats differ after resume: %+v vs %+v", tailStats, fullStats)
	}
	fullRes, err := fullAcc.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	tailRes, err := tailAcc.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if fullRes.Samples != tailRes.Samples {
		t.Fatalf("UQ samples differ: %d vs %d", fullRes.Samples, tailRes.Samples)
	}
	for i := range fullRes.Marginals {
		if fullRes.Marginals[i] != tailRes.Marginals[i] {
			t.Fatalf("UQ marginal %d differs: %v vs %v", i, fullRes.Marginals[i], tailRes.Marginals[i])
		}
	}
}

// TestCheckpointOnCancel verifies the on-cancel snapshot: a run cancelled
// mid-flight (with no periodic cadence configured) captures exactly one
// snapshot at the pre-empted sweep, and resuming it reproduces the
// uninterrupted run bit-exactly.
func TestCheckpointOnCancel(t *testing.T) {
	r := rand.New(rand.NewSource(902))
	p := randomProblem(r)
	sched := Schedule{T0: 3, Alpha: 0.95, Iterations: 10}
	const seed = 31337

	var fullRecs []sweepRec
	full, err := solveOne(p, core.NewSoftwareSampler(rng.NewXoshiro256(seed)), sched,
		SolveOptions{OnSweep: recordInto(&fullRecs)})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var snaps []*SolverState
	_, err = Solve(ctx, p, one(core.NewSoftwareSampler(rng.NewXoshiro256(seed))), sched, SolveOptions{
		Workers: 1,
		OnSweep: func(iter int, lab *img.Labels, st SolveStats) {
			if iter == 5 {
				cancel()
			}
		},
		OnCheckpoint: func(st *SolverState) error { snaps = append(snaps, st); return nil },
	})
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("expected cancellation error, got %v", err)
	}
	if len(snaps) != 1 {
		t.Fatalf("expected exactly one on-cancel snapshot, got %d", len(snaps))
	}
	st := snaps[0]
	if st.NextSweep != 6 {
		t.Fatalf("cancel snapshot resumes at sweep %d, want 6", st.NextSweep)
	}

	var tailRecs []sweepRec
	got, err := solveOne(p, core.NewSoftwareSampler(rng.NewXoshiro256(seed)), sched,
		SolveOptions{OnSweep: recordInto(&tailRecs), Resume: st})
	if err != nil {
		t.Fatal(err)
	}
	ckptLabelsEqual(t, "resumed-after-cancel labels", full, got)
	recsEqual(t, "resumed-after-cancel tail", fullRecs[6:], tailRecs)
}

// TestCheckpointResumeAtEnd: a snapshot whose NextSweep equals the schedule
// length resumes into a zero-sweep run that returns the final grid as-is.
func TestCheckpointResumeAtEnd(t *testing.T) {
	r := rand.New(rand.NewSource(903))
	p := randomProblem(r)
	sched := Schedule{T0: 2, Alpha: 0.9, Iterations: 6}

	full, err := solveOne(p, core.NewSoftwareSampler(rng.NewXoshiro256(5)), sched, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build an end-of-run snapshot.
	sampler := core.NewSoftwareSampler(rng.NewXoshiro256(5))
	ss, err := sampler.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	st := &SolverState{
		W: p.W, H: p.H, Labels: p.Labels, Workers: 1,
		NextSweep: sched.Iterations, NextT: sched.Temperature(sched.Iterations),
		Grid:     append([]int(nil), full.L...),
		Samplers: []core.SamplerState{ss},
	}
	got, err := solveOne(p, core.NewSoftwareSampler(rng.NewXoshiro256(5)), sched, SolveOptions{Resume: st})
	if err != nil {
		t.Fatal(err)
	}
	ckptLabelsEqual(t, "zero-sweep resume", full, got)
}

// TestResumeWorkersZeroAcrossGOMAXPROCS pins that a Workers-0 checkpoint
// resumes on a host with more cores: captured at GOMAXPROCS 1 on the Auto
// lattice and resumed with Workers 0 at GOMAXPROCS 2, the run must end on the
// uninterrupted run's labels and sweep records. A 2x1 snapshot — what Workers
// 0 wrote at GOMAXPROCS 2 before it meant shard.Auto — must resume under
// Workers 0 on its own lattice, not on Auto's.
func TestResumeWorkersZeroAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := twoRegionProblem(12, 9)
	sched := Schedule{T0: 4, Alpha: 0.9, Iterations: 12}
	for _, c := range []struct {
		name string
		opts SolveOptions
		geom shard.Geometry
	}{
		{"Workers 0", SolveOptions{}, shard.Auto(p.W, p.H)},
		{"2x1", SolveOptions{Workers: 2}, shard.Geometry{Rows: 2, Cols: 1}},
	} {
		runtime.GOMAXPROCS(1)
		var fullRecs []sweepRec
		opts := c.opts
		opts.OnSweep = recordInto(&fullRecs)
		full, err := Solve(context.Background(), p, sfactory(77), sched, opts)
		if err != nil {
			t.Fatal(err)
		}
		var snap *SolverState
		opts = c.opts
		opts.CheckpointEvery = 5
		opts.OnCheckpoint = func(st *SolverState) error {
			if snap == nil {
				snap = st
			}
			return nil
		}
		if _, err := Solve(context.Background(), p, sfactory(77), sched, opts); err != nil {
			t.Fatal(err)
		}
		if snap == nil || snapshotGeometry(snap) != c.geom || snap.ShardRows == 0 {
			t.Fatalf("%s capture at GOMAXPROCS 1 is not a %s tile snapshot: %+v", c.name, c.geom, snap)
		}

		runtime.GOMAXPROCS(2)
		var tailRecs []sweepRec
		got, err := Solve(context.Background(), p, sfactory(77), sched, SolveOptions{Resume: snap, OnSweep: recordInto(&tailRecs)})
		if err != nil {
			t.Fatalf("%s: Workers-0 resume at GOMAXPROCS 2: %v", c.name, err)
		}
		ckptLabelsEqual(t, c.name+": Workers-0 resume at GOMAXPROCS 2", full, got)
		recsEqual(t, c.name+": Workers-0 resume tail", fullRecs[snap.NextSweep:], tailRecs)

		// An explicit geometry that disagrees with the snapshot still fails.
		other := shard.Geometry{Rows: 3, Cols: 1}
		if _, err := Solve(context.Background(), p, sfactory(77), sched, SolveOptions{Resume: snap, Shards: other}); err == nil {
			t.Fatalf("Shards %s resumed a %s snapshot", other, c.geom)
		}
	}
}

// TestCheckpointValidation exercises the configuration-mismatch rejections.
func TestCheckpointValidation(t *testing.T) {
	r := rand.New(rand.NewSource(904))
	p := randomProblem(r)
	sched := Schedule{T0: 2, Alpha: 0.9, Iterations: 8}

	var snap *SolverState
	_, err := solveOne(p, core.NewSoftwareSampler(rng.NewXoshiro256(9)), sched, SolveOptions{
		CheckpointEvery: 4,
		OnCheckpoint:    func(st *SolverState) error { snap = st; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot")
	}

	cases := []struct {
		name string
		run  func() error
	}{
		{"worker mismatch", func() error {
			_, err := solveSamplers(context.Background(), p, []core.LabelSampler{
				core.NewSoftwareSampler(rng.NewXoshiro256(1)),
				core.NewSoftwareSampler(rng.NewXoshiro256(2)),
			}, sched, SolveOptions{Resume: snap})
			return err
		}},
		{"collector attached but absent from snapshot", func() error {
			acc, aerr := uq.NewForRun(uq.Options{BurnIn: 1}, p.W, p.H, p.Labels, sched.Iterations)
			if aerr != nil {
				t.Fatal(aerr)
			}
			_, err := solveOne(p, core.NewSoftwareSampler(rng.NewXoshiro256(9)), sched,
				SolveOptions{Resume: snap, Collector: acc})
			return err
		}},
		{"faults configured but absent from snapshot", func() error {
			inj, ferr := fault.New(&fault.Config{DarkCountPerBin: 0.01})
			if ferr != nil {
				t.Fatal(ferr)
			}
			_, err := solveOne(p, core.NewSoftwareSampler(rng.NewXoshiro256(9)), sched,
				SolveOptions{Resume: snap, Faults: inj})
			return err
		}},
		{"grid shape mismatch", func() error {
			bigger := &Problem{W: p.W + 1, H: p.H, Labels: p.Labels,
				Singleton: p.Singleton, PairWeight: p.PairWeight, Dist: p.Dist}
			_, err := solveOne(bigger, core.NewSoftwareSampler(rng.NewXoshiro256(9)), sched,
				SolveOptions{Resume: snap})
			return err
		}},
		{"sweep beyond schedule", func() error {
			bad := *snap
			bad.NextSweep = sched.Iterations + 1
			_, err := solveOne(p, core.NewSoftwareSampler(rng.NewXoshiro256(9)), sched,
				SolveOptions{Resume: &bad})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}

	// A sampler whose source is not xoshiro cannot checkpoint or resume.
	if _, err := solveOne(p, core.NewSoftwareSampler(rng.NewSplitMix64(3)), sched, SolveOptions{
		CheckpointEvery: 2,
		OnCheckpoint:    func(*SolverState) error { return nil },
	}); err == nil {
		t.Error("expected capture to fail for a non-xoshiro source")
	}
	if _, err := solveOne(p, core.NewSoftwareSampler(rng.NewSplitMix64(3)), sched,
		SolveOptions{Resume: snap}); err == nil {
		t.Error("expected resume to fail for a non-xoshiro source")
	}
}

// TestCheckpointNeverFiresOnFinalSweep: the periodic cadence skips the final
// sweep even when it lands on the stride.
func TestCheckpointNeverFiresOnFinalSweep(t *testing.T) {
	r := rand.New(rand.NewSource(905))
	p := randomProblem(r)
	sched := Schedule{T0: 2, Alpha: 0.9, Iterations: 6}
	var next []int
	_, err := solveOne(p, core.NewSoftwareSampler(rng.NewXoshiro256(11)), sched, SolveOptions{
		CheckpointEvery: 3,
		OnCheckpoint:    func(st *SolverState) error { next = append(next, st.NextSweep); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 1 || next[0] != 3 {
		t.Fatalf("periodic snapshots at %v, want [3] (sweep 6 is the final sweep)", next)
	}
}
