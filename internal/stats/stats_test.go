package stats

import (
	"math"
	"testing"
	"testing/quick"

	"rsu/internal/rng"
)

func TestGammaPKnownIdentities(t *testing.T) {
	// P(1, x) = 1 - e^{-x}.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := GammaP(1, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("GammaP(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(1/2, x) = erf(sqrt(x)).
	for _, x := range []float64{0.2, 1, 3, 8} {
		want := math.Erf(math.Sqrt(x))
		if got := GammaP(0.5, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("GammaP(0.5,%v) = %v, want %v", x, got, want)
		}
	}
}

func TestGammaPEdgeCases(t *testing.T) {
	if GammaP(2, 0) != 0 {
		t.Error("P(s,0) must be 0")
	}
	if !math.IsNaN(GammaP(0, 1)) || !math.IsNaN(GammaP(2, -1)) {
		t.Error("invalid arguments must give NaN")
	}
	if p := GammaP(3, 1e9); 1-p > 1e-10 {
		t.Errorf("P(3, huge) = %v, want ~1", p)
	}
}

func TestGammaPMonotoneAndBounded(t *testing.T) {
	err := quick.Check(func(sRaw, xRaw uint16) bool {
		s := 0.5 + float64(sRaw%100)/10
		x1 := float64(xRaw%1000) / 50
		x2 := x1 + 0.3
		p1, p2 := GammaP(s, x1), GammaP(s, x2)
		return p1 >= -1e-12 && p2 <= 1+1e-12 && p2 >= p1-1e-12
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChiSquareCDFKnownValues(t *testing.T) {
	// Median of chi-square(2) is 2 ln 2.
	if got := ChiSquareCDF(2*math.Ln2, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF(2ln2; 2) = %v, want 0.5", got)
	}
	// 95th percentile of chi-square(1) ~ 3.841.
	if got := ChiSquareCDF(3.841, 1); math.Abs(got-0.95) > 1e-3 {
		t.Errorf("CDF(3.841; 1) = %v, want ~0.95", got)
	}
	// 95th percentile of chi-square(10) ~ 18.307.
	if got := ChiSquareCDF(18.307, 10); math.Abs(got-0.95) > 1e-3 {
		t.Errorf("CDF(18.307; 10) = %v, want ~0.95", got)
	}
}

func TestChiSquareTestFairDice(t *testing.T) {
	src := rng.NewXoshiro256(1)
	obs := make([]float64, 6)
	const n = 60000
	for i := 0; i < n; i++ {
		obs[rng.Intn(src, 6)]++
	}
	exp := make([]float64, 6)
	for i := range exp {
		exp[i] = n / 6.0
	}
	res, err := ChiSquareTest(obs, exp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DF != 5 {
		t.Errorf("DF = %d, want 5", res.DF)
	}
	if res.PValue < 0.001 {
		t.Errorf("fair die rejected: stat %.2f p %.4f", res.Statistic, res.PValue)
	}
}

func TestChiSquareTestDetectsBias(t *testing.T) {
	obs := []float64{2000, 1000, 1000, 1000}
	exp := []float64{1250, 1250, 1250, 1250}
	res, err := ChiSquareTest(obs, exp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("gross bias not detected: p = %v", res.PValue)
	}
}

func TestChiSquareTestErrors(t *testing.T) {
	if _, err := ChiSquareTest([]float64{1}, []float64{1}, 0); err == nil {
		t.Error("single bin must error")
	}
	if _, err := ChiSquareTest([]float64{1, 2}, []float64{1}, 0); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := ChiSquareTest([]float64{1, 2}, []float64{1, 0}, 0); err == nil {
		t.Error("zero expected must error")
	}
	if _, err := ChiSquareTest([]float64{1, 2}, []float64{1, 2}, 1); err == nil {
		t.Error("df <= 0 must error")
	}
}

func TestKSUniformAcceptsUniform(t *testing.T) {
	src := rng.NewXoshiro256(2)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.Float64(src)
	}
	res, err := KSTest(xs, UniformCDF())
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.001 {
		t.Errorf("uniform rejected: D %.4f p %.4f", res.Statistic, res.PValue)
	}
}

func TestKSExponentialAcceptsExponential(t *testing.T) {
	src := rng.NewXoshiro256(3)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.Exponential(src, 2.5)
	}
	res, err := KSTest(xs, ExponentialCDF(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.001 {
		t.Errorf("exponential rejected: D %.4f p %.4f", res.Statistic, res.PValue)
	}
}

func TestKSDetectsWrongRate(t *testing.T) {
	src := rng.NewXoshiro256(4)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.Exponential(src, 2.5)
	}
	res, err := KSTest(xs, ExponentialCDF(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("wrong-rate exponential accepted: p = %v", res.PValue)
	}
}

func TestKSErrors(t *testing.T) {
	if _, err := KSTest([]float64{1, 2}, UniformCDF()); err == nil {
		t.Error("too few samples must error")
	}
	bad := func(float64) float64 { return 2 }
	if _, err := KSTest([]float64{1, 2, 3, 4, 5, 6}, bad); err == nil {
		t.Error("invalid cdf must error")
	}
}

func TestKolmogorovQBounds(t *testing.T) {
	if kolmogorovQ(0) != 1 {
		t.Error("Q(0) must be 1")
	}
	if q := kolmogorovQ(3); q > 1e-6 {
		t.Errorf("Q(3) = %v, want ~0", q)
	}
	prev := 1.0
	for t_ := 0.1; t_ < 3; t_ += 0.1 {
		q := kolmogorovQ(t_)
		if q > prev+1e-12 {
			t.Fatalf("kolmogorovQ not monotone at %v", t_)
		}
		prev = q
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{-1, 0, 0.1, 0.5, 0.99, 2}, 2, 0, 1)
	if h[0] != 3 || h[1] != 3 {
		t.Errorf("histogram = %v, want [3 3]", h)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for hi <= lo")
		}
	}()
	Histogram(nil, 3, 1, 1)
}
