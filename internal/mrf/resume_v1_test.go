package mrf_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"testing"

	"rsu/internal/checkpoint"
	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/rng"
)

// TestResumeVersion1WorkerSnapshot pins the compatibility path for snapshots
// the retired checkerboard worker pool wrote: version-1 containers with
// Workers > 1 and no tile geometry or halos. Such a snapshot — emulated by
// stripping a 2×1 tile-engine capture down to the version-1 fields — must
// resume through Solve at Workers 2 byte-identically to the uninterrupted
// run: the tile engine reads every neighbor from the one grid, so the
// snapshot grid is all it needs. With Workers left at 0 the snapshot alone
// selects its row bands, even at GOMAXPROCS 1.
func TestResumeVersion1WorkerSnapshot(t *testing.T) {
	p := &mrf.Problem{
		W: 13, H: 10, Labels: 4,
		Singleton:  func(x, y, l int) float64 { return float64((x*7+y*13+l*5)%11) * 0.6 },
		PairWeight: 1.5,
		Dist:       mrf.Absolute,
	}
	sched := mrf.Schedule{T0: 8, Alpha: 0.9, Iterations: 10}
	factory := func() func(int) core.LabelSampler {
		return core.StreamFactory(41, func(src rng.Source) core.LabelSampler {
			return core.MustUnit(core.NewRSUG(), src, true)
		})
	}
	var fullEnergy []float64
	record := func(dst *[]float64) func(int, *img.Labels, mrf.SolveStats) {
		return func(_ int, _ *img.Labels, st mrf.SolveStats) { *dst = append(*dst, st.Energy) }
	}
	full, err := mrf.Solve(context.Background(), p, factory(), sched, mrf.SolveOptions{Workers: 2, OnSweep: record(&fullEnergy)})
	if err != nil {
		t.Fatal(err)
	}

	const mid = 4
	var snap *mrf.SolverState
	if _, err := mrf.Solve(context.Background(), p, factory(), sched, mrf.SolveOptions{
		Workers: 2, OnSweep: func(int, *img.Labels, mrf.SolveStats) {},
		CheckpointEvery: mid,
		OnCheckpoint: func(st *mrf.SolverState) error {
			if snap == nil {
				snap = st
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.ShardRows != 2 || snap.ShardCols != 1 {
		t.Fatalf("Workers=2 capture is not a 2x1 tile snapshot: %+v", snap)
	}
	snap.ShardRows, snap.ShardCols, snap.Halos = 0, 0, nil
	b := checkpoint.Encode(&checkpoint.Snapshot{App: "test", Seed: 41, Schedule: sched, State: *snap})
	if v := binary.LittleEndian.Uint32(b[8:12]); v != 1 {
		t.Fatalf("stripped snapshot encoded as version %d, want 1", v)
	}
	dec, err := checkpoint.Decode(b)
	if err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, workers := range []int{2, 0} {
		tailEnergy := append([]float64(nil), fullEnergy[:mid]...)
		got, err := mrf.Solve(context.Background(), p, factory(), sched, mrf.SolveOptions{
			Workers: workers, Resume: &dec.State, OnSweep: record(&tailEnergy),
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !bytes.Equal(labelBytes(got), labelBytes(full)) {
			t.Fatalf("workers %d: version-1 resume diverged from the uninterrupted run", workers)
		}
		if len(tailEnergy) != len(fullEnergy) {
			t.Fatalf("workers %d: spliced log has %d sweeps, want %d", workers, len(tailEnergy), len(fullEnergy))
		}
		for i := range fullEnergy {
			if tailEnergy[i] != fullEnergy[i] {
				t.Fatalf("workers %d sweep %d: spliced energy %v, want %v", workers, i, tailEnergy[i], fullEnergy[i])
			}
		}
	}
}

func labelBytes(l *img.Labels) []byte {
	b := make([]byte, 0, 8*len(l.L))
	for _, v := range l.L {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}
