package core

import (
	"math"
	"testing"

	"rsu/internal/quant"
	"rsu/internal/rng"
	"rsu/internal/stats"
)

// kernelTestEnergies is a batch of label-energy vectors exercising the
// interesting regimes: near-ties, wide spreads (cut-off territory), and a
// dominant label.
func kernelTestEnergies() [][]float64 {
	return [][]float64{
		{0, 10, 20, 30, 40, 50, 60, 70},
		{5, 5, 5, 5},
		{0, 200, 210, 230},
		{100, 101, 99, 150, 40},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		{255, 0, 128, 64},
	}
}

func kernelTestConfigs() []Config {
	highRes := Config{Name: "hi-res", EnergyBits: 8, EnergyMax: 255,
		LambdaBits: 6, Mode: ConvertScaledCutoff, TimeBits: 8, Truncation: 0.1, Tie: TieRandom}
	intContinuous := Config{Name: "int-continuous", EnergyBits: 8, EnergyMax: 255,
		LambdaBits: 4, Mode: ConvertScaledCutoffPow2, Tie: TieRandom}
	return []Config{NewRSUG(), PrevRSUG(), highRes, intContinuous, FloatReference()}
}

// referenceSample is the RSU-G pipeline written out stage by stage in
// float arithmetic (paper Sec. IV-B), the yardstick the production kernels
// are checked against: quantize each energy and decode it back to a float,
// subtract E_min, re-round to an energy code and convert it to a decay-rate
// code, then draw one exponential TTF per positive-rate label — drawBin at
// rate c·λ0 for binned time, rng.Exponential for continuous time — and race
// them (selectBin for bins, the earliest time otherwise). It drives u's RNG
// stream and Stats the way Sample does, so for binned configurations the
// production kernels must match it draw for draw.
func referenceSample(u *Unit, energies []float64, current int) int {
	m := len(energies)
	u.ensureScratch(m)
	u.stats.Evaluations++
	u.stats.LabelEvals += m
	eff := make([]float64, m)
	for i, e := range energies {
		eff[i] = e
		if u.cfg.EnergyBits > 0 {
			eff[i] = float64(u.equant.Encode(e)) * u.estep
		}
	}
	if u.cfg.scalesEnergy() {
		min := eff[0]
		for _, e := range eff {
			min = math.Min(min, e)
		}
		for i := range eff {
			eff[i] -= min
		}
	}
	rates := make([]float64, m)
	switch {
	case u.cfg.LambdaBits <= 0 && u.cfg.TimeBits <= 0:
		for i, e := range eff {
			rates[i] = math.Exp(-e / u.T)
		}
		return referenceRace(u, rates, current)
	case u.cfg.LambdaBits <= 0:
		return u.sampleBinnedFloat(eff, current)
	}
	bins := make([]int, m)
	for i, e := range eff {
		c := u.cfg.lambdaCodeFloat(e, u.T)
		if u.cfg.EnergyBits > 0 {
			c = u.conv.Code(quant.RoundPos(e / u.estep))
		}
		if c == 0 {
			u.stats.Cutoffs++
			continue
		}
		rates[i] = float64(c)
		if u.cfg.TimeBits > 0 {
			bins[i] = u.drawBin(float64(c) * u.lambda0)
		}
	}
	if u.cfg.TimeBits <= 0 {
		return referenceRace(u, rates, current)
	}
	return u.selectBin(bins, current)
}

// referenceRace races one exponential TTF per positive rate, in label order,
// and returns the earliest label, or current when none can fire.
func referenceRace(u *Unit, rates []float64, current int) int {
	best, bestT := -1, math.Inf(1)
	for i, r := range rates {
		if r <= 0 {
			continue
		}
		if t := rng.Exponential(u.src, r); t < bestT {
			best, bestT = i, t
		}
	}
	if best < 0 {
		u.stats.NoFire++
		return current
	}
	return best
}

// TestFastBinnedKernelBitIdentical pins the binned kernels (the cut-off-aware
// kernel for the LUT converter, the dense inverse-CDF draw otherwise) to the
// reference exponential draw: both transform the same uniform, so with the
// same seed the whole Sample sequence and every Stats counter must match.
func TestFastBinnedKernelBitIdentical(t *testing.T) {
	for _, cfg := range []Config{NewRSUG(), PrevRSUG()} {
		for _, useLUT := range []bool{true, false} {
			fast := MustUnit(cfg, rng.NewXoshiro256(900), useLUT)
			ref := MustUnit(cfg, rng.NewXoshiro256(900), useLUT)
			energies := kernelTestEnergies()
			for _, T := range []float64{32, 8, 1, 0.2} {
				MustSetTemperature(fast, T)
				MustSetTemperature(ref, T)
				cur := 0
				for i := 0; i < 5000; i++ {
					e := energies[i%len(energies)]
					a := MustSample(fast, e, cur%len(e))
					b := referenceSample(ref, e, cur%len(e))
					if a != b {
						t.Fatalf("%s lut=%v T=%v draw %d: fast %d, reference %d", cfg.Name, useLUT, T, i, a, b)
					}
					cur = a
				}
			}
			if fast.Stats() != ref.Stats() {
				t.Fatalf("%s lut=%v: stats diverge: fast %+v reference %+v", cfg.Name, useLUT, fast.Stats(), ref.Stats())
			}
		}
	}
}

// twoSampleChiSquare compares two equal-size label histograms through
// stats.ChiSquareTwoSample, returning the p-value.
func twoSampleChiSquare(a, b []int) float64 {
	fa := make([]float64, len(a))
	fb := make([]float64, len(b))
	for i := range a {
		fa[i], fb[i] = float64(a[i]), float64(b[i])
	}
	res, err := stats.ChiSquareTwoSample(fa, fb)
	if err != nil {
		panic(err)
	}
	return res.PValue
}

// TestFastKernelsStatisticallyEquivalent draws large label histograms from
// the production kernels and the reference pipeline (independent streams)
// for representative Lambda_bits/Time_bits design points and requires the
// chi-squared two-sample test not to reject equality. This covers the
// categorical continuous kernel, where the RNG consumption pattern (one
// uniform per draw vs one exponential per label) makes a bitwise comparison
// meaningless.
func TestFastKernelsStatisticallyEquivalent(t *testing.T) {
	const n = 60000
	for _, cfg := range kernelTestConfigs() {
		for ei, energies := range kernelTestEnergies() {
			fast := MustUnit(cfg, rng.NewXoshiro256(uint64(1000+ei)), true)
			ref := MustUnit(cfg, rng.NewXoshiro256(uint64(5000+ei)), true)
			MustSetTemperature(fast, 2)
			MustSetTemperature(ref, 2)
			ha := make([]int, len(energies))
			hb := make([]int, len(energies))
			for i := 0; i < n; i++ {
				ha[MustSample(fast, energies, i%len(energies))]++
				hb[referenceSample(ref, energies, i%len(energies))]++
			}
			if p := twoSampleChiSquare(ha, hb); p < 1e-3 {
				t.Errorf("%s energies #%d: fast kernel and reference differ (p=%.2g, fast=%v reference=%v)",
					cfg.Name, ei, p, ha, hb)
			}
		}
	}
}

// TestFastQuantizedCodesMatchReference checks that the integer stage-1/2
// pipeline (sampleQuantized, which the boundary-comparison converter takes)
// emits exactly the decay-rate codes of the float round-trip, via the
// Cutoffs counter and per-draw agreement under a shared seed.
func TestFastQuantizedCodesMatchReference(t *testing.T) {
	cfg := NewRSUG()
	fast := MustUnit(cfg, rng.NewXoshiro256(77), false)
	ref := MustUnit(cfg, rng.NewXoshiro256(77), false)
	for T := 40.0; T > 0.05; T *= 0.7 {
		MustSetTemperature(fast, T)
		MustSetTemperature(ref, T)
		for _, e := range kernelTestEnergies() {
			a := MustSample(fast, e, 0)
			b := referenceSample(ref, e, 0)
			if a != b {
				t.Fatalf("T=%v energies %v: fast %d reference %d", T, e, a, b)
			}
		}
	}
	if fast.Stats() != ref.Stats() {
		t.Fatalf("stats diverge: fast %+v reference %+v", fast.Stats(), ref.Stats())
	}
}

// TestSurvivalTableMatchesDefinition checks the cached survival function
// against its definition for the new design's code set.
func TestSurvivalTableMatchesDefinition(t *testing.T) {
	cfg := NewRSUG()
	u := MustUnit(cfg, rng.NewXoshiro256(1), true)
	for _, code := range []int{1, 2, 4, 8} {
		s := u.survival(code)
		if len(s) != cfg.TimeBins()+1 {
			t.Fatalf("code %d: survival table length %d", code, len(s))
		}
		for b := 1; b <= cfg.TimeBins(); b++ {
			if s[b] >= s[b-1] {
				t.Fatalf("code %d: survival not strictly decreasing at bin %d", code, b)
			}
		}
		if s[0] != 1 {
			t.Fatalf("code %d: S(0) = %v, want 1", code, s[0])
		}
	}
}
