package mrf

import (
	"context"
	"math"
	"testing"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/rng"
	"rsu/internal/shard"
)

// TestTemperatureMatchesLoop pins the closed-form schedule to the O(k)
// multiplication loop it replaced, including the 1e-4 floor.
func TestTemperatureMatchesLoop(t *testing.T) {
	loop := func(s Schedule, k int) float64 {
		v := s.T0
		for i := 0; i < k; i++ {
			v *= s.Alpha
		}
		if v < 1e-4 {
			v = 1e-4
		}
		return v
	}
	schedules := []Schedule{
		{T0: 32, Alpha: 0.9885, Iterations: 500},
		{T0: 32, Alpha: 0.982, Iterations: 300},
		{T0: 6, Alpha: 1, Iterations: 30},
		{T0: 1, Alpha: 0.1, Iterations: 100},
	}
	for _, s := range schedules {
		for _, k := range []int{0, 1, 2, 7, 50, 499, 2000} {
			got, want := s.Temperature(k), loop(s, k)
			if math.Abs(got-want) > 1e-9*want {
				t.Errorf("T0=%v Alpha=%v k=%d: Temperature %v, loop %v", s.T0, s.Alpha, k, got, want)
			}
		}
	}
}

// tablesTestProblems returns problems covering every distance kind, a custom
// PairDist, and truncation.
func tablesTestProblems() []*Problem {
	single := func(x, y, l int) float64 { return float64(l*(x+2*y)) * 0.7 }
	return []*Problem{
		{W: 5, H: 4, Labels: 6, Singleton: single, PairWeight: 1.5, Dist: Absolute},
		{W: 5, H: 4, Labels: 6, Singleton: single, PairWeight: 2, Dist: Squared, TruncateDist: 9},
		{W: 4, H: 5, Labels: 3, Singleton: single, PairWeight: 20, Dist: Binary},
		{W: 4, H: 4, Labels: 4, Singleton: single, PairWeight: 1,
			PairDist: func(a, b int) float64 { return float64((a - b) * (a - b) % 5) }, Dist: Squared},
	}
}

// TestTablesLabelEnergiesMatchDirect checks the LUT fast path against the
// direct per-call evaluation on every pixel (interior and border) under a
// non-trivial labeling.
func TestTablesLabelEnergiesMatchDirect(t *testing.T) {
	for pi, p := range tablesTestProblems() {
		tab := p.BuildTables()
		lab := img.NewLabels(p.W, p.H)
		for i := range lab.L {
			lab.L[i] = (i*7 + 3) % p.Labels
		}
		direct := make([]float64, p.Labels)
		fast := make([]float64, p.Labels)
		for y := 0; y < p.H; y++ {
			for x := 0; x < p.W; x++ {
				p.LabelEnergies(direct, lab, x, y)
				tab.LabelEnergies(fast, lab, x, y)
				for l := 0; l < p.Labels; l++ {
					if direct[l] != fast[l] {
						t.Fatalf("problem %d (%d,%d) label %d: direct %v, tables %v",
							pi, x, y, l, direct[l], fast[l])
					}
				}
			}
		}
	}
}

// TestWorkerGeometry pins the Workers → tile-lattice mapping: n row bands
// whenever the grid has at least n rows, otherwise one band of min(n, W)
// columns. Short-and-wide grids (H < workers) therefore keep every stream
// busy: each of the 8 tiles of a 40×2 grid owns cells of both colors.
func TestWorkerGeometry(t *testing.T) {
	cases := []struct {
		n, w, h int
		want    shard.Geometry
	}{
		{2, 64, 48, shard.Geometry{Rows: 2, Cols: 1}},
		{4, 20, 14, shard.Geometry{Rows: 4, Cols: 1}},
		{3, 5, 3, shard.Geometry{Rows: 3, Cols: 1}},
		{8, 40, 2, shard.Geometry{Rows: 1, Cols: 8}},
		{2, 2, 1, shard.Geometry{Rows: 1, Cols: 2}},
		{6, 3, 2, shard.Geometry{Rows: 1, Cols: 3}},
	}
	for _, c := range cases {
		if got := workerGeometry(c.n, c.w, c.h); got != c.want {
			t.Errorf("workerGeometry(%d, %d, %d) = %s, want %s", c.n, c.w, c.h, got, c.want)
		}
	}
	plan, err := shard.NewPlan(workerGeometry(8, 40, 2), 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tile := range plan.Tiles {
		if tile.W() != 5 || tile.H() != 2 {
			t.Errorf("tile %d owns %dx%d cells, want 5x2", tile.Index, tile.W(), tile.H())
		}
	}
}

func sfactory(seed uint64) func(int) core.LabelSampler {
	return func(w int) core.LabelSampler {
		return core.NewSoftwareSampler(rng.NewXoshiro256(seed + 1000*uint64(w)))
	}
}

// TestSolveAutoSerialMatchesSolve pins Workers=1 to the exact serial path: a
// per-stream factory at Workers 1 draws only factory(0), so it must equal a
// caller handing Solve that one prebuilt sampler.
func TestSolveAutoSerialMatchesSolve(t *testing.T) {
	p := twoRegionProblem(14, 9)
	sched := Schedule{T0: 4, Alpha: 0.9, Iterations: 20}
	a, err := Solve(context.Background(), p, sfactory(21), sched, SolveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := solveOne(p, sfactory(21)(0), sched, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.L {
		if a.L[i] != b.L[i] {
			t.Fatalf("Workers=1 factory solve differs from the single-sampler solve at index %d", i)
		}
	}
}

// TestSolveAutoDeterministicPerWorkerCount: same seed + same worker count
// must be bit-identical; different worker counts must still land at
// comparable energies (same stationary distribution).
func TestSolveAutoDeterministicPerWorkerCount(t *testing.T) {
	p := twoRegionProblem(18, 5)
	sched := Schedule{T0: 4, Alpha: 0.88, Iterations: 30}
	for _, workers := range []int{1, 2, 3, 8} {
		a, err := Solve(context.Background(), p, sfactory(7), sched, SolveOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(context.Background(), p, sfactory(7), sched, SolveOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.L {
			if a.L[i] != b.L[i] {
				t.Fatalf("workers=%d: two identical runs diverge at index %d", workers, i)
			}
		}
	}
	e1, err := Solve(context.Background(), p, sfactory(7), sched, SolveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e4, err := Solve(context.Background(), p, sfactory(7), sched, SolveOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(p.TotalEnergy(e1) - p.TotalEnergy(e4)); d > p.TotalEnergy(e1)*0.3+20 {
		t.Fatalf("1-worker vs 4-worker energies diverge: %v vs %v", p.TotalEnergy(e1), p.TotalEnergy(e4))
	}
}

func TestSolveAutoErrors(t *testing.T) {
	p := twoRegionProblem(6, 6)
	sched := Schedule{T0: 2, Alpha: 0.9, Iterations: 2}
	if _, err := Solve(context.Background(), p, nil, sched, SolveOptions{}); err == nil {
		t.Error("nil factory must error")
	}
	if _, err := Solve(context.Background(), p, sfactory(1), Schedule{}, SolveOptions{Workers: 2}); err == nil {
		t.Error("bad schedule must error through the parallel path")
	}
	if _, err := Solve(context.Background(), p, sfactory(1), sched, SolveOptions{Workers: -3}); err == nil {
		t.Error("negative Workers must error")
	}
}

// TestSolveOptionsTablesReuse: precomputed tables produce identical results
// and tables from another problem are rejected.
func TestSolveOptionsTablesReuse(t *testing.T) {
	p := twoRegionProblem(10, 8)
	sched := Schedule{T0: 3, Alpha: 0.9, Iterations: 10}
	tab := p.BuildTables()
	a, err := solveOne(p, core.NewSoftwareSampler(rng.NewXoshiro256(31)), sched, SolveOptions{Tables: tab})
	if err != nil {
		t.Fatal(err)
	}
	b, err := solveOne(p, core.NewSoftwareSampler(rng.NewXoshiro256(31)), sched, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.L {
		if a.L[i] != b.L[i] {
			t.Fatal("reused tables changed the solve result")
		}
	}
	other := twoRegionProblem(10, 8)
	if _, err := solveOne(p, core.NewSoftwareSampler(rng.NewXoshiro256(31)), sched,
		SolveOptions{Tables: other.BuildTables()}); err == nil {
		t.Error("tables from a different problem must be rejected")
	}
}
