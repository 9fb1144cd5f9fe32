package mrf

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/rng"
)

func TestDistanceFunctions(t *testing.T) {
	cases := []struct {
		kind DistanceKind
		a, b int
		want float64
	}{
		{Squared, 3, 7, 16}, {Squared, 5, 5, 0},
		{Absolute, 3, 7, 4}, {Absolute, 7, 3, 4},
		{Binary, 2, 2, 0}, {Binary, 2, 3, 1},
	}
	for _, c := range cases {
		if got := Distance(c.kind, c.a, c.b); got != c.want {
			t.Errorf("Distance(%v,%d,%d) = %v, want %v", c.kind, c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	err := quick.Check(func(a8, b8 uint8) bool {
		a, b := int(a8%64), int(b8%64)
		for _, k := range []DistanceKind{Squared, Absolute, Binary} {
			d := Distance(k, a, b)
			if d < 0 || d != Distance(k, b, a) {
				return false
			}
			if a == b && d != 0 {
				return false
			}
			if a != b && d == 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistanceKindString(t *testing.T) {
	if Squared.String() != "squared" || Absolute.String() != "absolute" || Binary.String() != "binary" {
		t.Fatal("DistanceKind.String wrong")
	}
}

// twoRegionProblem builds a noisy binary-segmentation style problem whose
// optimal labeling splits the grid into a left 0-region and right 1-region.
func twoRegionProblem(w, h int) *Problem {
	return &Problem{
		W: w, H: h, Labels: 2,
		Singleton: func(x, y, l int) float64 {
			inRight := x >= w/2
			if (l == 1) == inRight {
				return 0
			}
			return 10
		},
		PairWeight: 2,
		Dist:       Binary,
	}
}

// TestSolveRecoversTwoRegions anneals two-region problems on the serial
// engine and requires nearly every pixel on its region's label;
// TestSolveParallelRecoversTwoRegions runs the same check on the tile
// engines.
func TestSolveRecoversTwoRegions(t *testing.T) { checkRecoversTwoRegions(t, serialEngines) }

func TestSolveParallelRecoversTwoRegions(t *testing.T) { checkRecoversTwoRegions(t, tileEngines) }

func checkRecoversTwoRegions(t *testing.T, engines []engineCase) {
	sched := Schedule{T0: 4, Alpha: 0.85, Iterations: 40}
	for _, e := range engines {
		for _, c := range []struct{ w, h, maxWrong int }{{12, 8, 2}, {16, 12, 3}} {
			p := twoRegionProblem(c.w, c.h)
			lab, err := e.solve(context.Background(), p, sfactory(1), sched, SolveOptions{})
			if err != nil {
				t.Fatalf("%s %dx%d: %v", e.name, c.w, c.h, err)
			}
			if wrong := mislabeled(p, lab); wrong > c.maxWrong {
				t.Errorf("%s %dx%d: %d/%d pixels mislabeled after annealing, want <= %d",
					e.name, c.w, c.h, wrong, p.W*p.H, c.maxWrong)
			}
		}
	}
}

func TestSolveWithRSUGUnit(t *testing.T) {
	p := twoRegionProblem(12, 8)
	// Scale energies into the 8-bit range via weights already in range.
	u := core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(2), true)
	lab, err := solveOne(p, u, Schedule{T0: 4, Alpha: 0.85, Iterations: 40}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if wrong := mislabeled(p, lab); wrong > 3 {
		t.Fatalf("RSU-G solve mislabeled %d/%d pixels", wrong, p.W*p.H)
	}
}

func TestAnnealingReducesEnergy(t *testing.T) {
	p := twoRegionProblem(16, 10)
	s := core.NewSoftwareSampler(rng.NewXoshiro256(3))
	var first, last float64
	_, err := solveOne(p, s, Schedule{T0: 5, Alpha: 0.8, Iterations: 30}, SolveOptions{
		OnSweep: func(iter int, lab *img.Labels, st SolveStats) {
			e := p.TotalEnergy(lab)
			if iter == 0 {
				first = e
			}
			last = e
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Fatalf("energy did not decrease: first %v, last %v", first, last)
	}
}

func TestScheduleTemperature(t *testing.T) {
	s := Schedule{T0: 8, Alpha: 0.5, Iterations: 10}
	if s.Temperature(0) != 8 || s.Temperature(1) != 4 || s.Temperature(3) != 1 {
		t.Fatal("geometric schedule wrong")
	}
	long := Schedule{T0: 1, Alpha: 0.1, Iterations: 100}
	if got := long.Temperature(50); got != 1e-4 {
		t.Fatalf("temperature floor = %v, want 1e-4", got)
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []Schedule{
		{T0: 0, Alpha: 0.9, Iterations: 1},
		{T0: 1, Alpha: 0, Iterations: 1},
		{T0: 1, Alpha: 1.1, Iterations: 1},
		{T0: 1, Alpha: 0.9, Iterations: 0},
		{T0: math.NaN(), Alpha: 0.9, Iterations: 1},
		{T0: math.Inf(1), Alpha: 0.9, Iterations: 1},
		{T0: 1, Alpha: math.NaN(), Iterations: 1},
		{T0: 1, Alpha: 0.9, Iterations: 1, TFloor: math.NaN()},
		{T0: 1, Alpha: 0.9, Iterations: 1, TFloor: math.Inf(1)},
		{T0: 1, Alpha: 0.9, Iterations: 1, TFloor: -1},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("schedule %d unexpectedly valid: %+v", i, s)
		}
	}
	if (Schedule{T0: 1, Alpha: 1, Iterations: 5}).Validate() != nil {
		t.Error("fixed-temperature schedule must be valid")
	}
}

func TestProblemValidate(t *testing.T) {
	ok := twoRegionProblem(4, 4)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Problem{
		{W: 0, H: 4, Labels: 2, Singleton: ok.Singleton},
		{W: 4, H: 4, Labels: 1, Singleton: ok.Singleton},
		{W: 4, H: 4, Labels: 2},
		{W: 4, H: 4, Labels: 2, Singleton: ok.Singleton, PairWeight: -1},
		// A NaN weight would fill the pair LUT with NaN energies, which a
		// quantized sampler encodes as 0; ±Inf is no usable weight either.
		{W: 4, H: 4, Labels: 2, Singleton: ok.Singleton, PairWeight: math.NaN()},
		{W: 4, H: 4, Labels: 2, Singleton: ok.Singleton, PairWeight: math.Inf(1)},
		{W: 4, H: 4, Labels: 2, Singleton: ok.Singleton, PairWeight: math.Inf(-1)},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("problem %d unexpectedly valid", i)
		}
	}
}

// TestSolveErrors pins the entry validation on the serial engine, and
// TestSolveParallelErrors on the tile engines: a nil sampler for any
// stream, a bad schedule, a mismatched init labeling and out-of-range init
// labels are errors, as are a factory returning a nil sampler and a nil
// factory.
func TestSolveErrors(t *testing.T) {
	p := twoRegionProblem(6, 6)
	if _, err := solveOne(p, nil, Schedule{T0: 1, Alpha: 0.9, Iterations: 2}, SolveOptions{}); err == nil {
		t.Error("nil sampler must error")
	}
	checkSolveErrors(t, p, serialEngines)
}

func TestSolveParallelErrors(t *testing.T) {
	p := twoRegionProblem(6, 6)
	if _, err := Solve(context.Background(), p, nil, Schedule{T0: 1, Alpha: 0.9, Iterations: 2}, SolveOptions{Workers: 2}); err == nil {
		t.Error("nil factory must error")
	}
	checkSolveErrors(t, p, tileEngines)
}

func checkSolveErrors(t *testing.T, p *Problem, engines []engineCase) {
	good := Schedule{T0: 1, Alpha: 0.9, Iterations: 2}
	for _, e := range engines {
		last := e.streams() - 1
		nilLast := func(i int) core.LabelSampler {
			if i == last {
				return nil
			}
			return sfactory(4)(i)
		}
		cases := []struct {
			name    string
			factory func(int) core.LabelSampler
			sched   Schedule
			opts    SolveOptions
		}{
			{"nil sampler", nilLast, good, SolveOptions{}},
			{"bad schedule", sfactory(4), Schedule{}, SolveOptions{}},
			{"mismatched init", sfactory(4), good, SolveOptions{Init: img.NewLabels(3, 3)}},
			{"out-of-range init labels", sfactory(4), good, SolveOptions{Init: img.NewLabels(6, 6).Fill(9)}},
		}
		for _, c := range cases {
			if _, err := e.solve(context.Background(), p, c.factory, c.sched, c.opts); err == nil {
				t.Errorf("%s: %s must error", e.name, c.name)
			}
		}
	}
}

// TestSolveDoesNotMutateInit and TestSolveParallelDoesNotMutateInit: the
// serial and the tile engines clone the caller's init labeling instead of
// sweeping it in place.
func TestSolveDoesNotMutateInit(t *testing.T) { checkDoesNotMutateInit(t, serialEngines) }

func TestSolveParallelDoesNotMutateInit(t *testing.T) { checkDoesNotMutateInit(t, tileEngines) }

func checkDoesNotMutateInit(t *testing.T, engines []engineCase) {
	p := twoRegionProblem(8, 6)
	for _, e := range engines {
		init := img.NewLabels(8, 6).Fill(1)
		if _, err := e.solve(context.Background(), p, sfactory(5), Schedule{T0: 2, Alpha: 0.9, Iterations: 3}, SolveOptions{Init: init}); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for _, l := range init.L {
			if l != 1 {
				t.Fatalf("%s: the solve mutated the caller's init labeling", e.name)
			}
		}
	}
}

func TestLabelEnergiesMatchesDefinition(t *testing.T) {
	p := &Problem{
		W: 3, H: 3, Labels: 3,
		Singleton:  func(x, y, l int) float64 { return float64(l * (x + y)) },
		PairWeight: 1.5,
		Dist:       Absolute,
	}
	lab := img.NewLabels(3, 3)
	lab.Set(0, 1, 2)
	lab.Set(2, 1, 1)
	lab.Set(1, 0, 2)
	lab.Set(1, 2, 0)
	dst := make([]float64, 3)
	p.LabelEnergies(dst, lab, 1, 1)
	// Energy of label l at (1,1): singleton l*2 + 1.5*(|l-2|+|l-1|+|l-2|+|l-0|).
	for l := 0; l < 3; l++ {
		want := float64(l*2) + 1.5*(math.Abs(float64(l-2))+math.Abs(float64(l-1))+math.Abs(float64(l-2))+math.Abs(float64(l)))
		if math.Abs(dst[l]-want) > 1e-12 {
			t.Errorf("label %d energy = %v, want %v", l, dst[l], want)
		}
	}
}

func TestLabelEnergiesBorderPixels(t *testing.T) {
	p := twoRegionProblem(3, 3)
	lab := img.NewLabels(3, 3)
	dst := make([]float64, 2)
	// Corner pixel has only 2 neighbors; with all-zero labels, the energy of
	// label 1 is singleton + 2*PairWeight (binary distance 1 to both).
	p.LabelEnergies(dst, lab, 0, 0)
	if want := 10 + 2*2.0; dst[1] != want {
		t.Fatalf("corner energy = %v, want %v", dst[1], want)
	}
}

func TestTruncatedDistance(t *testing.T) {
	p := &Problem{
		W: 2, H: 1, Labels: 10,
		Singleton:    func(x, y, l int) float64 { return 0 },
		PairWeight:   1,
		Dist:         Squared,
		TruncateDist: 9,
	}
	if got := p.pairDist(0, 9); got != 9 {
		t.Fatalf("truncated distance = %v, want 9", got)
	}
	if got := p.pairDist(0, 2); got != 4 {
		t.Fatalf("untruncated distance = %v, want 4", got)
	}
}

func TestTotalEnergyConsistent(t *testing.T) {
	p := twoRegionProblem(5, 4)
	perfect := img.NewLabels(5, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 5; x++ {
			if x >= 2 { // W/2 = 2
				perfect.Set(x, y, 1)
			}
		}
	}
	flat := img.NewLabels(5, 4)
	if p.TotalEnergy(perfect) >= p.TotalEnergy(flat) {
		t.Fatal("ground-truth labeling should have lower total energy than all-zeros")
	}
}
