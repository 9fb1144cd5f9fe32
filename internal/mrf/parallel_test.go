package mrf

import (
	"context"
	"testing"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/rng"
)

// solveSamplers runs SolveAutoCtx at Workers = len(ss) with factory(w) =
// ss[w] — the sampler-slice form the worker-parallel tests drive the tile
// engine through.
func solveSamplers(ctx context.Context, p *Problem, ss []core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	opts.Workers = len(ss)
	return SolveAutoCtx(ctx, p, func(w int) core.LabelSampler { return ss[w] }, sched, opts)
}

func mkSamplers(n int, seed uint64) []core.LabelSampler {
	ss := make([]core.LabelSampler, n)
	for i := range ss {
		ss[i] = core.NewSoftwareSampler(rng.NewXoshiro256(seed + uint64(i)))
	}
	return ss
}

func TestSolveParallelRecoversTwoRegions(t *testing.T) {
	p := twoRegionProblem(16, 12)
	lab, err := solveSamplers(context.Background(), p, mkSamplers(4, 1), Schedule{T0: 4, Alpha: 0.85, Iterations: 40}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
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
	if wrong > 3 {
		t.Fatalf("parallel solve mislabeled %d/%d pixels", wrong, p.W*p.H)
	}
}

func TestSolveParallelMatchesSequentialQuality(t *testing.T) {
	p := twoRegionProblem(20, 14)
	sched := Schedule{T0: 4, Alpha: 0.88, Iterations: 35}
	seq, err := Solve(p, core.NewSoftwareSampler(rng.NewXoshiro256(2)), sched, SolveOptions{})
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
	if wrong > 4 {
		t.Fatalf("parallel RSU-G solve mislabeled %d/%d pixels", wrong, p.W*p.H)
	}
}

func TestSolveParallelErrors(t *testing.T) {
	p := twoRegionProblem(6, 6)
	sched := Schedule{T0: 2, Alpha: 0.9, Iterations: 2}
	if _, err := SolveAuto(p, nil, sched, SolveOptions{Workers: 2}); err == nil {
		t.Error("nil factory must error")
	}
	if _, err := solveSamplers(context.Background(), p, []core.LabelSampler{mkSamplers(1, 9)[0], nil}, sched, SolveOptions{}); err == nil {
		t.Error("nil sampler must error")
	}
	if _, err := solveSamplers(context.Background(), p, mkSamplers(2, 9), Schedule{}, SolveOptions{}); err == nil {
		t.Error("bad schedule must error")
	}
	if _, err := solveSamplers(context.Background(), p, mkSamplers(2, 9), sched, SolveOptions{Init: img.NewLabels(2, 2)}); err == nil {
		t.Error("mismatched init must error")
	}
}

func TestSolveParallelMoreWorkersThanRows(t *testing.T) {
	p := twoRegionProblem(8, 3)
	if _, err := solveSamplers(context.Background(), p, mkSamplers(8, 11), Schedule{T0: 2, Alpha: 0.9, Iterations: 3}, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveParallelDoesNotMutateInit(t *testing.T) {
	p := twoRegionProblem(8, 6)
	init := img.NewLabels(8, 6).Fill(1)
	if _, err := solveSamplers(context.Background(), p, mkSamplers(2, 12), Schedule{T0: 2, Alpha: 0.9, Iterations: 2}, SolveOptions{Init: init}); err != nil {
		t.Fatal(err)
	}
	for _, l := range init.L {
		if l != 1 {
			t.Fatal("the tile engine mutated the caller's init labeling")
		}
	}
}
