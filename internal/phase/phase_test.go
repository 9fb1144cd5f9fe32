package phase

import (
	"math"
	"testing"

	"rsu/internal/core"
	"rsu/internal/rng"
	"rsu/internal/stats"
)

func TestErlangMoments(t *testing.T) {
	for _, k := range []int{1, 2, 5, 10} {
		rate := 2.5
		m, v := Erlang(k, rate).Moments()
		wantM := float64(k) / rate
		wantV := float64(k) / (rate * rate)
		if math.Abs(m-wantM) > 1e-12 || math.Abs(v-wantV) > 1e-12 {
			t.Errorf("Erlang(%d): moments %v/%v, want %v/%v", k, m, v, wantM, wantV)
		}
	}
}

// TestErlangCV pins Erlang-k's coefficient of variation at 1/sqrt(k), the
// property that lets RET cascades approximate deterministic delays.
func TestErlangCV(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		m, v := Erlang(k, 1).Moments()
		cv := math.Sqrt(v) / m
		want := 1 / math.Sqrt(float64(k))
		if math.Abs(cv-want) > 1e-12 {
			t.Errorf("Erlang(%d) CV %v, want %v", k, cv, want)
		}
	}
}

func TestHypoexponentialMoments(t *testing.T) {
	c := Hypoexponential(1, 2, 4)
	m, v := c.Moments()
	wantM := 1.0 + 0.5 + 0.25
	wantV := 1.0 + 0.25 + 0.0625
	if math.Abs(m-wantM) > 1e-12 || math.Abs(v-wantV) > 1e-12 {
		t.Errorf("moments %v/%v, want %v/%v", m, v, wantM, wantV)
	}
}

func TestCoxianMomentsAgainstMonteCarlo(t *testing.T) {
	c := Coxian{Rates: []float64{3, 1, 2}, Exit: []float64{0.3, 0.5, 0}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	m, v := c.Moments()
	src := rng.NewXoshiro256(1)
	const n = 400000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := c.Sample(src)
		sum += x
		sumSq += x * x
	}
	em := sum / n
	ev := sumSq/n - em*em
	if math.Abs(em-m) > 4*math.Sqrt(v/n) {
		t.Errorf("empirical mean %v vs analytic %v", em, m)
	}
	if math.Abs(ev-v)/v > 0.03 {
		t.Errorf("empirical variance %v vs analytic %v", ev, v)
	}
}

func TestErlangSamplesPassKS(t *testing.T) {
	c := Erlang(4, 1.7)
	src := rng.NewXoshiro256(2)
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = c.Sample(src)
	}
	res, err := stats.KSTest(xs, ErlangCDF(4, 1.7))
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.001 {
		t.Fatalf("Erlang sampler rejected by KS: D %.4f p %.4f", res.Statistic, res.PValue)
	}
}

func TestValidateRejectsBadChains(t *testing.T) {
	bad := []Coxian{
		{},
		{Rates: []float64{1}, Exit: []float64{1, 1}},
		{Rates: []float64{0}, Exit: []float64{0}},
		{Rates: []float64{1}, Exit: []float64{1.5}},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("chain %d unexpectedly valid", i)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"erlang-k0":    func() { Erlang(0, 1) },
		"erlang-rate0": func() { Erlang(2, 0) },
		"hypo-empty":   func() { Hypoexponential() },
		"hypo-neg":     func() { Hypoexponential(1, -2) },
		"cdf-bad":      func() { ErlangCDF(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRETSamplerCVShrinksWithStages(t *testing.T) {
	// Erlang-k on the RET substrate: the coefficient of variation must
	// shrink roughly as 1/sqrt(k) — the cascade approximates a
	// deterministic delay as stages accumulate.
	cfg := core.NewRSUG()
	var prevCV float64 = math.Inf(1)
	for _, k := range []int{1, 2, 4, 8} {
		codes := make([]int, k)
		for i := range codes {
			codes[i] = 4
		}
		s, err := NewRETSampler(cfg, codes, rng.NewXoshiro256(uint64(k)))
		if err != nil {
			t.Fatal(err)
		}
		mean, variance := s.Measure(60000)
		cv := math.Sqrt(variance) / mean
		if cv >= prevCV {
			t.Fatalf("CV did not shrink at k=%d: %v >= %v", k, cv, prevCV)
		}
		prevCV = cv
	}
}

func TestRETSamplerTracksIdealMean(t *testing.T) {
	cfg := core.NewRSUG()
	s, err := NewRETSampler(cfg, []int{8, 4, 2}, rng.NewXoshiro256(5))
	if err != nil {
		t.Fatal(err)
	}
	idealM, _ := s.IdealMoments()
	m, _ := s.Measure(100000)
	// Truncation rounds each stage's tail to the window edge, biasing the
	// cascade mean *down* (the slowest stage, code 2, truncates 25% of its
	// mass at Truncation 0.5); binning (ceil) pushes slightly up. The net
	// bias must be downward and bounded — the distortion the phase-type
	// experiment quantifies.
	if m >= idealM {
		t.Fatalf("cascade mean %v should be pulled below ideal %v by truncation", m, idealM)
	}
	if (idealM-m)/idealM > 0.2 {
		t.Fatalf("cascade mean %v more than 20%% below ideal %v", m, idealM)
	}
}

func TestRETSamplerErrors(t *testing.T) {
	cfg := core.NewRSUG()
	if _, err := NewRETSampler(cfg, nil, rng.NewSplitMix64(1)); err == nil {
		t.Error("empty cascade must error")
	}
	if _, err := NewRETSampler(cfg, []int{3}, rng.NewSplitMix64(1)); err == nil {
		t.Error("non-pow2 code must error for the new design")
	}
	if _, err := NewRETSampler(cfg, []int{99}, rng.NewSplitMix64(1)); err == nil {
		t.Error("out-of-range code must error")
	}
	float := core.FloatReference()
	if _, err := NewRETSampler(float, []int{1}, rng.NewSplitMix64(1)); err == nil {
		t.Error("float configuration must error")
	}
}
