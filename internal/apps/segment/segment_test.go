package segment

import (
	"math"
	"testing"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
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

func TestFitGaussiansRecoverMixture(t *testing.T) {
	// Two well-separated Gaussian populations with different spreads.
	im := img.NewGray(100, 40)
	src := rng.NewXoshiro256(9)
	for i := range im.Pix {
		n := (rng.Float64(src) + rng.Float64(src) + rng.Float64(src) - 1.5) * 2 // ~N(0,1)
		if i%2 == 0 {
			im.Pix[i] = 60 + n*4
		} else {
			im.Pix[i] = 190 + n*16
		}
	}
	gs := FitGaussians(im, 2, 20)
	if math.Abs(gs[0].Mean-60) > 3 || math.Abs(gs[1].Mean-190) > 4 {
		t.Fatalf("means %v, want ~[60 190]", gs)
	}
	if gs[1].Std < gs[0].Std*2 {
		t.Fatalf("stds %v/%v: wide class should have clearly larger std", gs[0].Std, gs[1].Std)
	}
}

func TestGaussianProblemEnergyRange(t *testing.T) {
	sc := synth.BSDLike(6, 4, 1)
	p := DefaultParams()
	gs := FitGaussians(sc.Image, 4, p.KMeansIters)
	prob := BuildGaussianProblem(sc.Image, gs, p)
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < prob.H; y += 2 {
		for x := 0; x < prob.W; x += 2 {
			for l := 0; l < prob.Labels; l++ {
				e := prob.Singleton(x, y, l)
				if e < 0 || e > p.DataCap {
					t.Fatalf("Gaussian singleton %v outside [0, %v]", e, p.DataCap)
				}
			}
		}
	}
}

func TestGaussianModelHandlesHeteroscedasticScene(t *testing.T) {
	// Build a scene where the right half (class 1) is much noisier: the
	// variance-aware model must classify it at least as well as the
	// means-only model.
	w, h := 60, 40
	im := img.NewGray(w, h)
	gt := img.NewLabels(w, h)
	src := rng.NewXoshiro256(10)
	noise := func(s float64) float64 {
		return (rng.Float64(src) + rng.Float64(src) + rng.Float64(src) - 1.5) * 2 * s
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x < w/2 {
				im.Set(x, y, 80+noise(4))
			} else {
				gt.Set(x, y, 1)
				im.Set(x, y, 170+noise(30))
			}
		}
	}
	im.Clamp255()
	p := DefaultParams()
	gs := FitGaussians(im, 2, p.KMeansIters)
	prob := BuildGaussianProblem(im, gs, p)
	init := img.NewLabels(w, h)
	for i, v := range im.Pix {
		if math.Abs(v-gs[1].Mean) < math.Abs(v-gs[0].Mean) {
			init.L[i] = 1
		}
	}
	lab, err := mrf.Solve(prob, core.NewSoftwareSampler(rng.NewXoshiro256(11)),
		mrf.Schedule{T0: p.Temperature, Alpha: 1, Iterations: p.Iterations},
		mrf.SolveOptions{Init: init})
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for i := range lab.L {
		if lab.L[i] != gt.L[i] {
			wrong++
		}
	}
	if frac := float64(wrong) / float64(len(lab.L)); frac > 0.03 {
		t.Fatalf("Gaussian model mislabeled %.1f%% of a heteroscedastic scene", 100*frac)
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
