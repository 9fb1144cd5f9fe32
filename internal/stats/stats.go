// Package stats provides the statistical machinery the repository's
// distribution-validation tests and experiments rely on: the regularized
// incomplete gamma function, chi-square goodness-of-fit tests, and
// Kolmogorov-Smirnov one-sample tests. Go's standard library has no
// statistics package, so the numerics are implemented here from first
// principles (series and continued-fraction expansions).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// GammaP returns the regularized lower incomplete gamma function
// P(s, x) = gamma(s, x) / Gamma(s), for s > 0, x >= 0.
func GammaP(s, x float64) float64 {
	switch {
	case s <= 0 || math.IsNaN(s) || math.IsNaN(x):
		return math.NaN()
	case x < 0:
		return math.NaN()
	case x == 0:
		return 0
	case x < s+1:
		return gammaPSeries(s, x)
	default:
		return 1 - gammaQContinued(s, x)
	}
}

// gammaPSeries evaluates P(s, x) by its power series, converging fast for
// x < s+1.
func gammaPSeries(s, x float64) float64 {
	sum := 1.0 / s
	term := sum
	for n := 1; n < 500; n++ {
		term *= x / (s + float64(n))
		sum += term
		if math.Abs(term) < math.Abs(sum)*1e-16 {
			break
		}
	}
	logPrefix := -x + s*math.Log(x) - lgamma(s)
	return sum * math.Exp(logPrefix)
}

// gammaQContinued evaluates Q(s, x) by Lentz's continued fraction,
// converging fast for x >= s+1.
func gammaQContinued(s, x float64) float64 {
	const tiny = 1e-300
	b := x + 1 - s
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - s)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	logPrefix := -x + s*math.Log(x) - lgamma(s)
	return math.Exp(logPrefix) * h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// ChiSquareCDF returns P(X <= x) for a chi-square distribution with k
// degrees of freedom.
func ChiSquareCDF(x float64, k int) float64 {
	if k < 1 {
		panic("stats: degrees of freedom must be >= 1")
	}
	if x <= 0 {
		return 0
	}
	return GammaP(float64(k)/2, x/2)
}

// ChiSquareResult reports a goodness-of-fit test.
type ChiSquareResult struct {
	Statistic float64
	DF        int
	PValue    float64
}

// ChiSquareTest compares observed counts against expected counts (same
// length, expected all positive). DF is len-1 unless extraConstraints
// fitted parameters reduce it further.
func ChiSquareTest(observed []float64, expected []float64, extraConstraints int) (ChiSquareResult, error) {
	if len(observed) != len(expected) {
		return ChiSquareResult{}, fmt.Errorf("stats: observed/expected length mismatch")
	}
	if len(observed) < 2 {
		return ChiSquareResult{}, fmt.Errorf("stats: need at least 2 bins")
	}
	var stat float64
	for i := range observed {
		if !(expected[i] > 0) || math.IsInf(expected[i], 0) {
			return ChiSquareResult{}, fmt.Errorf("stats: expected count %v in bin %d", expected[i], i)
		}
		if observed[i] < 0 || math.IsNaN(observed[i]) || math.IsInf(observed[i], 0) {
			return ChiSquareResult{}, fmt.Errorf("stats: observed count %v in bin %d", observed[i], i)
		}
		d := observed[i] - expected[i]
		stat += d * d / expected[i]
	}
	df := len(observed) - 1 - extraConstraints
	if df < 1 {
		return ChiSquareResult{}, fmt.Errorf("stats: non-positive degrees of freedom")
	}
	return ChiSquareResult{Statistic: stat, DF: df, PValue: 1 - ChiSquareCDF(stat, df)}, nil
}

// ChiSquareTwoSample tests whether two equal-total count histograms were
// drawn from the same distribution: X² = Σ (a_i - b_i)² / (a_i + b_i) is
// chi-square distributed with (#occupied bins - 1) degrees of freedom under
// the null. Histograms concentrated in a single shared bin are trivially
// equivalent and report p = 1 with DF 0.
func ChiSquareTwoSample(a, b []float64) (ChiSquareResult, error) {
	if len(a) != len(b) {
		return ChiSquareResult{}, fmt.Errorf("stats: histogram length mismatch %d vs %d", len(a), len(b))
	}
	var ta, tb float64
	for i := range a {
		if a[i] < 0 || b[i] < 0 || math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			return ChiSquareResult{}, fmt.Errorf("stats: negative or NaN count in bin %d", i)
		}
		ta += a[i]
		tb += b[i]
	}
	if ta != tb {
		return ChiSquareResult{}, fmt.Errorf("stats: totals differ (%v vs %v); the equal-total statistic does not apply", ta, tb)
	}
	if ta == 0 {
		return ChiSquareResult{}, fmt.Errorf("stats: empty histograms")
	}
	var stat float64
	df := -1
	for i := range a {
		s := a[i] + b[i]
		if s == 0 {
			continue
		}
		d := a[i] - b[i]
		stat += d * d / s
		df++
	}
	if df < 1 {
		return ChiSquareResult{Statistic: stat, DF: 0, PValue: 1}, nil
	}
	return ChiSquareResult{Statistic: stat, DF: df, PValue: 1 - ChiSquareCDF(stat, df)}, nil
}

// KSResult reports a one-sample Kolmogorov-Smirnov test.
type KSResult struct {
	Statistic float64 // sup |F_n - F|
	PValue    float64 // asymptotic
}

// KSTest runs the one-sample KS test of the samples against the continuous
// CDF cdf. The asymptotic Kolmogorov distribution is used for the p-value
// (fine for n >= ~35, conservative below).
func KSTest(samples []float64, cdf func(float64) float64) (KSResult, error) {
	n := len(samples)
	if n < 5 {
		return KSResult{}, fmt.Errorf("stats: need at least 5 samples")
	}
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	var d float64
	for i, x := range xs {
		f := cdf(x)
		if f < 0 || f > 1 || math.IsNaN(f) {
			return KSResult{}, fmt.Errorf("stats: cdf(%v) = %v out of [0,1]", x, f)
		}
		lo := f - float64(i)/float64(n)
		hi := float64(i+1)/float64(n) - f
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return KSResult{Statistic: d, PValue: kolmogorovQ(math.Sqrt(float64(n)) * d)}, nil
}

// kolmogorovQ returns Q_KS(t) = 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 t^2),
// the asymptotic survival function of the KS statistic.
func kolmogorovQ(t float64) float64 {
	if t <= 0 {
		return 1
	}
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := math.Exp(-2 * float64(k*k) * t * t)
		sum += sign * term
		if term < 1e-16 {
			break
		}
		sign = -sign
	}
	q := 2 * sum
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return q
}

// ExponentialCDF returns the CDF of Exp(rate) for use with KSTest.
func ExponentialCDF(rate float64) func(float64) float64 {
	if rate <= 0 {
		panic("stats: rate must be positive")
	}
	return func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return 1 - math.Exp(-rate*x)
	}
}

// UniformCDF returns the CDF of U[0,1) for use with KSTest.
func UniformCDF() func(float64) float64 {
	return func(x float64) float64 {
		switch {
		case x <= 0:
			return 0
		case x >= 1:
			return 1
		default:
			return x
		}
	}
}

// Histogram counts samples into k equal-width bins over [lo, hi); samples
// outside the range are clamped into the edge bins.
func Histogram(samples []float64, k int, lo, hi float64) []float64 {
	if k < 1 || hi <= lo {
		panic("stats: invalid histogram spec")
	}
	h := make([]float64, k)
	w := (hi - lo) / float64(k)
	for _, s := range samples {
		i := int((s - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= k {
			i = k - 1
		}
		h[i]++
	}
	return h
}
