package mrf

import (
	"context"
	"testing"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/rng"
	"rsu/internal/shard"
)

// solveSamplers runs Solve at Workers = len(ss) with factory(w) = ss[w] —
// the sampler-slice form the worker-parallel tests drive the tile engine
// through.
func solveSamplers(ctx context.Context, p *Problem, ss []core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	opts.Workers = len(ss)
	return Solve(ctx, p, func(w int) core.LabelSampler { return ss[w] }, sched, opts)
}

// one is the factory a caller with a single sampler hands Solve.
func one(s core.LabelSampler) func(int) core.LabelSampler {
	return func(int) core.LabelSampler { return s }
}

// solveOne runs Solve on one sampler at Workers 1: the serial raster engine
// on stream 0.
func solveOne(p *Problem, s core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	opts.Workers = 1
	return Solve(context.Background(), p, one(s), sched, opts)
}

func mkSamplers(n int, seed uint64) []core.LabelSampler {
	ss := make([]core.LabelSampler, n)
	for i := range ss {
		ss[i] = core.NewSoftwareSampler(rng.NewXoshiro256(seed + uint64(i)))
	}
	return ss
}

// engineCase is one sweep engine the shared annealing driver runs, selected
// through Solve: the serial raster engine, two row bands, or a 2×3 tile
// lattice. Each engine-contract check runs over all of engineCases: its
// serial-named test on serialEngines, its Parallel-named twin on
// tileEngines.
type engineCase struct {
	name   string
	shards shard.Geometry
}

var (
	engineCases = []engineCase{
		{"serial", shard.Geometry{}},
		{"2x1", shard.Geometry{Rows: 2, Cols: 1}},
		{"2x3", shard.Geometry{Rows: 2, Cols: 3}},
	}
	serialEngines = engineCases[:1]
	tileEngines   = engineCases[1:]
)

// streams is the engine's RNG stream count: one sampler per tile.
func (e engineCase) streams() int { return max(e.shards.Tiles(), 1) }

// solve runs Solve on the engine with factory(i) on stream i.
func (e engineCase) solve(ctx context.Context, p *Problem, factory func(int) core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	opts.Shards, opts.Workers = e.shards, 1
	return Solve(ctx, p, factory, sched, opts)
}

// mislabeled counts the pixels of a twoRegionProblem solution that are off
// their region's label (0 on the left half, 1 on the right).
func mislabeled(p *Problem, lab *img.Labels) int {
	wrong := 0
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			want := 0
			if x >= p.W/2 {
				want = 1
			}
			if lab.At(x, y) != want {
				wrong++
			}
		}
	}
	return wrong
}

func TestSolveParallelMatchesSequentialQuality(t *testing.T) {
	p := twoRegionProblem(20, 14)
	sched := Schedule{T0: 4, Alpha: 0.88, Iterations: 35}
	seq, err := solveOne(p, core.NewSoftwareSampler(rng.NewXoshiro256(2)), sched, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := solveSamplers(context.Background(), p, mkSamplers(3, 3), sched, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Same stationary distribution: final energies must be comparable.
	eSeq, ePar := p.TotalEnergy(seq), p.TotalEnergy(par)
	if ePar > eSeq*1.3+20 {
		t.Fatalf("parallel final energy %v much worse than sequential %v", ePar, eSeq)
	}
}

func TestSolveParallelWithRSUGUnits(t *testing.T) {
	p := twoRegionProblem(12, 10)
	samplers := []core.LabelSampler{
		core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(4), true),
		core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(5), true),
	}
	lab, err := solveSamplers(context.Background(), p, samplers, Schedule{T0: 4, Alpha: 0.85, Iterations: 40}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if wrong := mislabeled(p, lab); wrong > 4 {
		t.Fatalf("parallel RSU-G solve mislabeled %d/%d pixels", wrong, p.W*p.H)
	}
}

func TestSolveParallelMoreWorkersThanRows(t *testing.T) {
	p := twoRegionProblem(8, 3)
	if _, err := solveSamplers(context.Background(), p, mkSamplers(8, 11), Schedule{T0: 2, Alpha: 0.9, Iterations: 3}, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
}
