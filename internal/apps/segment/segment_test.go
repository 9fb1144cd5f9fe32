package segment

import (
	"math"
	"testing"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/rng"
	"rsu/internal/synth"
)

func TestFitMeansSeparatesModes(t *testing.T) {
	im := img.NewGray(20, 10)
	for i := range im.Pix {
		if i%2 == 0 {
			im.Pix[i] = 50
		} else {
			im.Pix[i] = 200
		}
	}
	means := FitMeans(im, 2, 20)
	if math.Abs(means[0]-50) > 1 || math.Abs(means[1]-200) > 1 {
		t.Fatalf("means = %v, want ~[50 200]", means)
	}
}

func TestFitMeansSorted(t *testing.T) {
	sc := synth.BSDLike(3, 6, 1)
	means := FitMeans(sc.Image, 6, 20)
	for i := 1; i < len(means); i++ {
		if means[i] < means[i-1] {
			t.Fatalf("means not sorted: %v", means)
		}
	}
}

func TestFitMeansPanicsOnK1(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=1")
		}
	}()
	FitMeans(img.NewGray(4, 4), 1, 5)
}

func TestBuildProblemEnergyRange(t *testing.T) {
	sc := synth.BSDLike(0, 4, 1)
	p := DefaultParams()
	means := FitMeans(sc.Image, 4, p.KMeansIters)
	prob := BuildProblem(sc.Image, means, p)
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	maxTotal := p.DataWeight*p.DataCap + 4*p.SmoothWeight
	if maxTotal > 255 {
		t.Fatalf("max energy %v exceeds 8-bit range", maxTotal)
	}
}

func TestSolveRecoversMosaic(t *testing.T) {
	sc := synth.BSDLike(1, 4, 1)
	res, err := Solve(sc, core.NewSoftwareSampler(rng.NewXoshiro256(1)), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores.VoI > 1.0 {
		t.Fatalf("software VoI = %v, want < 1.0", res.Scores.VoI)
	}
	if res.Scores.PRI < 0.85 {
		t.Fatalf("software PRI = %v, want > 0.85", res.Scores.PRI)
	}
}

func TestSolveNewRSUGTracksSoftware(t *testing.T) {
	sc := synth.BSDLike(2, 6, 1)
	p := DefaultParams()
	sw, err := Solve(sc, core.NewSoftwareSampler(rng.NewXoshiro256(2)), p)
	if err != nil {
		t.Fatal(err)
	}
	nu, err := Solve(sc, core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(3), true), p)
	if err != nil {
		t.Fatal(err)
	}
	if nu.Scores.VoI > sw.Scores.VoI+0.5 {
		t.Fatalf("new RSU-G VoI %v too far above software %v", nu.Scores.VoI, sw.Scores.VoI)
	}
}

func TestSolveLabelingInRange(t *testing.T) {
	sc := synth.BSDLike(4, 8, 1)
	res, err := Solve(sc, core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(4), true), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Labeling.Max() >= 8 {
		t.Fatalf("label %d out of range for k=8", res.Labeling.Max())
	}
}

func TestSolveRejectsFewerThanTwoSegments(t *testing.T) {
	sc := synth.BSDLike(0, 4, 1)
	for _, k := range []int{1, 0} {
		bad := *sc
		bad.Segments = k
		if _, err := Solve(&bad, core.NewSoftwareSampler(rng.NewXoshiro256(1)), DefaultParams()); err == nil {
			t.Fatalf("Segments = %d: want an error", k)
		}
	}
}
