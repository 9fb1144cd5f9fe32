// Package phase implements phase-type distribution sampling, the final
// future-work item in the paper (Sec. IV-D). A phase-type sample is the
// absorption time of a chain of exponential stages — precisely what
// cascaded RET networks produce: each stage is one first-to-fire window,
// and the total time to fluorescence through the cascade follows a Coxian
// distribution. The package provides exact samplers and moments for
// Erlang, hypoexponential and Coxian distributions, plus an RSU-substrate
// sampler that chains quantized, truncated RSU-G sampling windows and
// exposes the resulting distortion.
package phase

import (
	"fmt"

	"rsu/internal/core"
	"rsu/internal/rng"
	"rsu/internal/stats"
)

// Coxian is an acyclic phase-type distribution: the process passes through
// stages 0..n-1 in order; after stage i it absorbs with probability Exit[i]
// or continues to stage i+1. Exit[n-1] is implicitly 1.
type Coxian struct {
	Rates []float64
	Exit  []float64
}

// Erlang returns the k-stage Erlang distribution with the given per-stage
// rate: the sum of k iid exponentials.
func Erlang(k int, rate float64) Coxian {
	if k < 1 || rate <= 0 {
		panic("phase: Erlang requires k >= 1, rate > 0")
	}
	c := Coxian{Rates: make([]float64, k), Exit: make([]float64, k)}
	for i := range c.Rates {
		c.Rates[i] = rate
	}
	return c
}

// Hypoexponential returns the sum of independent exponentials with the
// given (not necessarily equal) rates.
func Hypoexponential(rates ...float64) Coxian {
	if len(rates) == 0 {
		panic("phase: need at least one rate")
	}
	c := Coxian{Rates: append([]float64(nil), rates...), Exit: make([]float64, len(rates))}
	for _, r := range rates {
		if r <= 0 {
			panic("phase: rates must be positive")
		}
	}
	return c
}

// Validate reports structural errors.
func (c Coxian) Validate() error {
	if len(c.Rates) == 0 {
		return fmt.Errorf("phase: no stages")
	}
	if len(c.Exit) != len(c.Rates) {
		return fmt.Errorf("phase: Exit length %d != Rates length %d", len(c.Exit), len(c.Rates))
	}
	for i, r := range c.Rates {
		if r <= 0 {
			return fmt.Errorf("phase: non-positive rate at stage %d", i)
		}
		if c.Exit[i] < 0 || c.Exit[i] > 1 {
			return fmt.Errorf("phase: exit probability %v at stage %d", c.Exit[i], i)
		}
	}
	return nil
}

// Stages returns the stage count.
func (c Coxian) Stages() int { return len(c.Rates) }

// Moments returns the mean and variance via the first-step recursion on
// per-stage first and second moments.
func (c Coxian) Moments() (mean, variance float64) {
	n := len(c.Rates)
	m1, m2 := 0.0, 0.0 // moments of the remaining time, built back to front
	for i := n - 1; i >= 0; i-- {
		cont := 1 - c.Exit[i]
		if i == n-1 {
			cont = 0
		}
		r := c.Rates[i]
		newM1 := 1/r + cont*m1
		newM2 := 2/(r*r) + cont*(m2+2*m1/r)
		m1, m2 = newM1, newM2
	}
	return m1, m2 - m1*m1
}

// Sample draws one exact phase-type sample.
func (c Coxian) Sample(src rng.Source) float64 {
	var t float64
	last := len(c.Rates) - 1
	for i, r := range c.Rates {
		t += rng.Exponential(src, r)
		if i < last && c.Exit[i] > 0 && rng.Float64(src) < c.Exit[i] {
			break
		}
	}
	return t
}

// ErlangCDF returns the CDF of Erlang(k, rate) via the regularized
// incomplete gamma function, suitable for stats.KSTest.
func ErlangCDF(k int, rate float64) func(float64) float64 {
	if k < 1 || rate <= 0 {
		panic("phase: ErlangCDF requires k >= 1, rate > 0")
	}
	return func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return stats.GammaP(float64(k), rate*x)
	}
}

// RETSampler draws phase-type samples on the RSU substrate: each stage is
// one RSU-G sampling window (quantized decay-rate code, Time_bits bins,
// truncation rounded to the window edge), and the stage bins accumulate.
// It models chaining RET circuits back to back, so the quantization and
// truncation effects the paper analyzes for single exponentials compound
// across stages.
type RETSampler struct {
	unit  *core.Unit
	codes []int
	tbins float64
}

// NewRETSampler builds a cascade with one decay-rate code per stage. The
// configuration must use integer lambda codes and binned time.
func NewRETSampler(cfg core.Config, codes []int, src rng.Source) (*RETSampler, error) {
	if cfg.LambdaBits <= 0 || cfg.TimeBits <= 0 {
		return nil, fmt.Errorf("phase: RETSampler needs integer lambda and binned time")
	}
	if len(codes) == 0 {
		return nil, fmt.Errorf("phase: need at least one stage")
	}
	for i, c := range codes {
		if c < 1 || c > cfg.MaxLambdaCode() {
			return nil, fmt.Errorf("phase: stage %d code %d out of [1,%d]", i, c, cfg.MaxLambdaCode())
		}
		if cfg.Mode == core.ConvertScaledCutoffPow2 && c&(c-1) != 0 {
			return nil, fmt.Errorf("phase: stage %d code %d is not a 2^n concentration", i, c)
		}
	}
	u, err := core.NewUnit(cfg, src, true)
	if err != nil {
		return nil, err
	}
	return &RETSampler{unit: u, codes: append([]int(nil), codes...), tbins: float64(cfg.TimeBins())}, nil
}

// Sample returns the cascade's total time in bins. Each stage's TTF is
// measured with the unit's Time_bits resolution; truncated stages round to
// the window edge (the functional-simulator semantic).
func (s *RETSampler) Sample() float64 {
	var total float64
	for _, code := range s.codes {
		bin, _ := s.unit.SampleTTFBounded(code)
		total += float64(bin)
	}
	return total
}

// IdealMoments returns the mean and variance the cascade would have with
// continuous time and no truncation, in bin units: a hypoexponential with
// stage rates code * lambda_0.
func (s *RETSampler) IdealMoments() (mean, variance float64) {
	l0 := s.unit.Config().Lambda0()
	rates := make([]float64, len(s.codes))
	for i, c := range s.codes {
		rates[i] = float64(c) * l0
	}
	return Hypoexponential(rates...).Moments()
}

// Measure draws n cascade samples and returns their empirical mean and
// variance, for distortion studies against IdealMoments.
func (s *RETSampler) Measure(n int) (mean, variance float64) {
	if n < 2 {
		panic("phase: need at least 2 samples")
	}
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Sample()
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}
