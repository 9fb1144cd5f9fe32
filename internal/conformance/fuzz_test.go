package conformance

import (
	"math"
	"testing"

	"rsu/internal/core"
	"rsu/internal/rng"
)

// fuzzConfigs are the valid configurations the fuzz targets draw from,
// covering all four kernel paths and every conversion mode.
func fuzzConfigs() []core.Config {
	return []core.Config{
		core.NewRSUG(),
		core.PrevRSUG(),
		core.FloatReference(),
		{Name: "fuzz-scaled", EnergyBits: 8, EnergyMax: 255,
			LambdaBits: 4, Mode: core.ConvertScaled,
			TimeBits: 5, Truncation: 0.1, Tie: core.TieRandom},
		{Name: "fuzz-no-scale", EnergyBits: 8, EnergyMax: 255,
			LambdaBits: 4, Mode: core.ConvertCutoffNoScale,
			TimeBits: 5, Truncation: 0.05, Tie: core.TieFirstWins},
		{Name: "fuzz-binned-codes", LambdaBits: 4, Mode: core.ConvertScaledCutoff,
			TimeBits: 5, Truncation: 0.05, Tie: core.TieRandom},
		{Name: "fuzz-binned-float", Mode: core.ConvertScaled,
			TimeBits: 6, Truncation: 0.05, Tie: core.TieRandom},
		{Name: "fuzz-int-continuous", EnergyBits: 8, EnergyMax: 255,
			LambdaBits: 4, Mode: core.ConvertScaledCutoffPow2, Tie: core.TieRandom},
	}
}

var fuzzTemps = []float64{0.25, 2, 8, 32, 400}

// FuzzUnitSample drives the full sampling pipeline with arbitrary energies
// through every configuration, checking the Sample contract: no panic, and
// the result is either a label index in range or the caller's current label
// (no fire).
func FuzzUnitSample(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint64(7), uint16(0), uint16(100), uint16(40000), uint16(65535))
	f.Add(uint8(3), uint8(0), uint64(1), uint16(5), uint16(5), uint16(5), uint16(5))
	f.Add(uint8(6), uint8(4), uint64(9), uint16(65535), uint16(0), uint16(1), uint16(2))
	f.Fuzz(func(t *testing.T, cfgSel, tSel uint8, seed uint64, e0, e1, e2, e3 uint16) {
		cfgs := fuzzConfigs()
		cfg := cfgs[int(cfgSel)%len(cfgs)]
		T := fuzzTemps[int(tSel)%len(fuzzTemps)]
		// Map the raw words onto [0, 2*EnergyMax] (or [0, 512] for float-energy
		// configs) so out-of-scale energies are exercised too.
		scale := 2 * cfg.EnergyMax / 65535
		if cfg.EnergyBits <= 0 {
			scale = 512.0 / 65535
		}
		energies := []float64{
			float64(e0) * scale, float64(e1) * scale,
			float64(e2) * scale, float64(e3) * scale,
		}
		m := len(energies)
		current := int(seed % uint64(m+1)) // m means "no current label" (-1)
		if current == m {
			current = -1
		}
		u := core.MustUnit(cfg, rng.NewXoshiro256(seed|1), seed%2 == 0)
		core.MustSetTemperature(u, T)
		for i := 0; i < 8; i++ {
			got, err := u.Sample(energies, current)
			if err != nil {
				t.Fatalf("cfg %s T %v: Sample error: %v", cfg.Name, T, err)
			}
			if got != current && (got < 0 || got >= m) {
				t.Fatalf("cfg %s T %v: Sample -> %d, want current %d or in [0,%d)",
					cfg.Name, T, got, current, m)
			}
		}
		st := u.Stats()
		if st.Evaluations != 8 || st.LabelEvals != 8*m {
			t.Fatalf("cfg %s: stats %+v after 8 calls over %d labels", cfg.Name, st, m)
		}
	})
}

// FuzzLambdaCode drives the energy-to-lambda conversion with arbitrary
// effective energies and checks its invariants: the code stays within
// [0, MaxLambdaCode], the LUT and boundary-comparison realizations agree
// exactly, and the code is monotone non-increasing in energy (higher energy
// can never mean a faster decay rate).
func FuzzLambdaCode(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint16(0), uint16(300))
	f.Add(uint8(1), uint8(2), uint16(40000), uint16(40001))
	f.Add(uint8(4), uint8(3), uint16(65535), uint16(65535))
	f.Fuzz(func(t *testing.T, cfgSel, tSel uint8, a, b uint16) {
		var cfgs []core.Config
		for _, c := range fuzzConfigs() {
			if c.EnergyBits > 0 && c.LambdaBits > 0 {
				cfgs = append(cfgs, c)
			}
		}
		cfg := cfgs[int(cfgSel)%len(cfgs)]
		T := fuzzTemps[int(tSel)%len(fuzzTemps)]
		scale := 2 * cfg.EnergyMax / 65535
		lo, hi := float64(a)*scale, float64(b)*scale
		if lo > hi {
			lo, hi = hi, lo
		}

		lut := core.MustUnit(cfg, rng.NewXoshiro256(1), true)
		cmp := core.MustUnit(cfg, rng.NewXoshiro256(1), false)
		core.MustSetTemperature(lut, T)
		core.MustSetTemperature(cmp, T)

		code := func(u *core.Unit, e float64) int {
			c, err := u.LambdaCode(e)
			if err != nil {
				t.Fatalf("cfg %s T %v: LambdaCode(%v): %v", cfg.Name, T, e, err)
			}
			return c
		}
		cl, ch := code(lut, lo), code(lut, hi)
		for e, c := range map[float64]int{lo: cl, hi: ch} {
			if c < 0 || c > cfg.MaxLambdaCode() {
				t.Fatalf("cfg %s T %v: LambdaCode(%v) = %d outside [0,%d]",
					cfg.Name, T, e, c, cfg.MaxLambdaCode())
			}
			if bc := code(cmp, e); bc != c {
				t.Fatalf("cfg %s T %v: LUT code %d != boundary code %d at e = %v",
					cfg.Name, T, c, bc, e)
			}
		}
		if cl < ch {
			t.Fatalf("cfg %s T %v: code not monotone: e %v -> %d but e %v -> %d",
				cfg.Name, T, lo, cl, hi, ch)
		}
	})
}

// zeroRateInjector perturbs nothing: attached to a Unit it leaves every draw
// ideal but routes each evaluation through the dense sampling pipeline.
type zeroRateInjector struct{}

func (zeroRateInjector) PerturbBins([]int, int) {}

// FuzzLiveKernel compares the cut-off-aware binned kernel with the dense
// pipeline draw for draw: two LUT units from the same seed, one with a
// zero-rate fault injector (which forces the dense path), must return the
// same label and reach the same RNG state and Stats after every call. A
// third unit draws the same vector through SampleBatchMin, given its
// minimum (−Inf when it holds a NaN), and must keep step with them. The
// energies, 1-64 of them, come from the raw bytes in one of three modes:
// arbitrary float64 bit patterns (NaN, ±Inf, subnormals, negatives);
// fine-grained values across the quantizer's range and just beyond it; or
// the quantizer's rounding boundaries k+0.5 moved by -2..2 ulps.
func FuzzLiveKernel(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(7), uint8(55), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(1), uint8(3), uint64(1), uint8(3), uint8(0), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(uint8(2), uint8(1), uint64(9), uint8(63), uint8(1), []byte{0xff, 0x10, 0x40})
	f.Add(uint8(3), uint8(4), uint64(3), uint8(0), uint8(0), []byte{})
	f.Add(uint8(0), uint8(3), uint64(5), uint8(4), uint8(0), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}) // all +Inf
	f.Add(uint8(0), uint8(0), uint64(2), uint8(40), uint8(2), []byte{3, 0, 0, 1, 7, 0, 0, 2, 9, 0, 0, 3})
	f.Fuzz(func(t *testing.T, cfgSel, tSel uint8, seed uint64, nSel, mode uint8, raw []byte) {
		var cfgs []core.Config
		for _, c := range fuzzConfigs() {
			if c.EnergyBits > 0 && c.LambdaBits > 0 && c.TimeBits > 0 {
				cfgs = append(cfgs, c)
			}
		}
		cfg := cfgs[int(cfgSel)%len(cfgs)]
		T := fuzzTemps[int(tSel)%len(fuzzTemps)]
		energies := make([]float64, 1+int(nSel)%64)
		for i := range energies {
			var bits uint64
			for b := 0; b < 8 && len(raw) > 0; b++ {
				bits |= uint64(raw[(8*i+b)%len(raw)]) << (8 * b)
			}
			switch mode % 3 {
			case 0:
				energies[i] = math.Float64frombits(bits)
			case 1:
				// 2^-20 steps over [-16, 300).
				energies[i] = float64(bits%(316<<20))/(1<<20) - 16
			default:
				e := float64(int(bits%302)-2) + 0.5
				for d := int(bits>>16%5) - 2; d != 0; {
					if d > 0 {
						e, d = math.Nextafter(e, math.Inf(1)), d-1
					} else {
						e, d = math.Nextafter(e, math.Inf(-1)), d+1
					}
				}
				energies[i] = e
			}
		}

		mins := []float64{math.Inf(1)}
		for _, e := range energies {
			if math.IsNaN(e) {
				mins[0] = math.Inf(-1)
				break
			}
			mins[0] = math.Min(mins[0], e)
		}

		xl, xd, xm := rng.NewXoshiro256(seed|1), rng.NewXoshiro256(seed|1), rng.NewXoshiro256(seed|1)
		live := core.MustUnit(cfg, xl, true)
		dense := core.MustUnit(cfg, xd, true)
		given := core.MustUnit(cfg, xm, true)
		dense.SetFaultInjector(zeroRateInjector{})
		core.MustSetTemperature(live, T)
		core.MustSetTemperature(dense, T)
		core.MustSetTemperature(given, T)
		cur := int(seed % uint64(len(energies)))
		out := make([]int, 1)
		for i := 0; i < 8; i++ {
			a, errA := live.Sample(energies, cur)
			b, errB := dense.Sample(energies, cur)
			errM := given.SampleBatchMin(energies, mins, len(energies), []int{cur}, out)
			if errA != nil || errB != nil || errM != nil {
				t.Fatalf("cfg %s T %v: Sample errors %v / %v / %v", cfg.Name, T, errA, errB, errM)
			}
			if a != b || xl.State() != xd.State() || live.Stats() != dense.Stats() {
				t.Fatalf("cfg %s T %v draw %d energies %v: live %d dense %d, rng equal %v\nlive  %+v\ndense %+v",
					cfg.Name, T, i, energies, a, b, xl.State() == xd.State(), live.Stats(), dense.Stats())
			}
			if out[0] != a || xm.State() != xl.State() || given.Stats() != live.Stats() {
				t.Fatalf("cfg %s T %v draw %d energies %v: supplied minimum %d live %d, rng equal %v\ngiven %+v\nlive  %+v",
					cfg.Name, T, i, energies, out[0], a, xm.State() == xl.State(), given.Stats(), live.Stats())
			}
			cur = a
		}
	})
}
