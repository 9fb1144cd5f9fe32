package core

import (
	"fmt"
	"math"
	"testing"

	"rsu/internal/rng"
)

// zeroRateInjector is a FaultInjector that perturbs nothing. Attaching it
// keeps a Unit's draws ideal but routes every evaluation through the dense
// pipeline, which makes it the reference for the cut-off-aware kernel.
type zeroRateInjector struct{}

func (zeroRateInjector) PerturbBins([]int, int) {}

// wrappedSource hides the concrete xoshiro type, so the unit takes the
// interface-dispatch draw and tie-break paths instead of the inlined ones.
type wrappedSource struct{ x *rng.Xoshiro256 }

func (w wrappedSource) Uint64() uint64 { return w.x.Uint64() }

// stereoTemperatures is the stereo app's default annealing ladder
// (T0 32, alpha 0.9885, 500 sweeps) followed by the large-grid benchmark's
// short one (T0 32, alpha 0.7, 12 sweeps).
func stereoTemperatures() []float64 {
	var ts []float64
	for t, k := 32.0, 0; k < 500; t, k = t*0.9885, k+1 {
		ts = append(ts, t)
	}
	for t, k := 32.0, 0; k < 12; t, k = t*0.7, k+1 {
		ts = append(ts, t)
	}
	return ts
}

type namedEnergies struct {
	name string
	e    []float64
}

// liveKernelEnergies returns the energy vectors of the exactness table:
// non-finite and out-of-range energies, rounding boundaries of the 8-bit
// quantizer, ties, single labels, spreads where every label but the minimum
// is cut off, and a few dense random vectors.
func liveKernelEnergies() []namedEnergies {
	nan, inf := math.NaN(), math.Inf(1)
	vecs := []namedEnergies{
		{"nan-first", []float64{nan, 3, 7}},
		{"nan-mid", []float64{5, nan, 1, 200}},
		{"nan-only", []float64{nan, nan}},
		{"plus-inf", []float64{inf, 2, 9}},
		{"minus-inf", []float64{math.Inf(-1), 4, 100}},
		{"all-inf", []float64{inf, inf, inf}},
		{"negative", []float64{-5, -0.3, 2, 8}},
		{"huge-negative", []float64{-1e300, 0, 1}},
		{"above-max", []float64{255, 256, 1e9, 254.6}},
		{"all-above-max", []float64{300, 400, 255}},
		{"all-tied", []float64{7, 7, 7, 7, 7, 7}},
		{"single", []float64{42}},
		{"single-nan", []float64{nan}},
		{"single-huge", []float64{1e9}},
		{"all-but-min-cut", []float64{0, 100, 150, 200, 250}},
		{"bench-ramp", []float64{0, 25, 50, 75, 100, 125, 150, 175}},
	}
	// k+0.5 and its neighboring floats, for every k the cut can land on at
	// stereo temperatures, from a minimum on code 0 and on code 10.
	for _, base := range []float64{0, 10} {
		v := []float64{base + 0.3}
		for k := 0; k < 70; k++ {
			h := base + float64(k) + 0.5
			v = append(v, math.Nextafter(h, math.Inf(-1)), h, math.Nextafter(h, inf))
		}
		vecs = append(vecs, namedEnergies{fmt.Sprintf("half-ulps-from-%g", base), v})
	}
	src := rng.NewXoshiro256(31)
	for i := 0; i < 4; i++ {
		v := make([]float64, 56)
		for j := range v {
			v[j] = rng.Float64(src) * 300
		}
		vecs = append(vecs, namedEnergies{fmt.Sprintf("random-%d", i), v})
	}
	// Vectors longer than fewLabels take the candidate pass: the same
	// non-finite and out-of-range cases there.
	long := append([]float64(nil), vecs[len(vecs)-1].e...)
	long[3], long[20], long[40] = inf, nan, -5
	long2 := append([]float64(nil), vecs[len(vecs)-2].e...)
	long2[0], long2[30] = inf, math.Inf(-1)
	long3 := append([]float64(nil), vecs[len(vecs)-3].e...)
	long3[25] = nan
	allInf := make([]float64, fewLabels+1)
	for i := range allInf {
		allInf[i] = inf
	}
	vecs = append(vecs,
		namedEnergies{"long-nan-inf-negative", long},
		namedEnergies{"long-minus-inf", long2},
		namedEnergies{"long-nan", long3},
		namedEnergies{"long-all-inf", allInf})
	return vecs
}

// refMin is the minimum SampleBatchMin expects for one pixel: the smallest
// energy, or −Inf when any energy is NaN.
func refMin(v []float64) float64 {
	m := math.Inf(1)
	for _, e := range v {
		if math.IsNaN(e) {
			return math.Inf(-1)
		}
		m = math.Min(m, e)
	}
	return m
}

// TestLiveKernelMatchesDense runs the cut-off-aware kernel and the dense
// pipeline side by side from the same seed and requires the same label, RNG
// state and Stats after every call, over the stereo temperature ladder. A
// third unit draws each vector through SampleBatchMin with its minimum
// supplied and must keep step too. The blocks subtests then hold
// SampleBatchMin to SampleBatch on random blocks.
func TestLiveKernelMatchesDense(t *testing.T) {
	firstWins := NewRSUG()
	firstWins.Tie = TieFirstWins
	scaledNoCut := NewRSUG()
	scaledNoCut.Mode = ConvertScaled
	hiRes := Config{Name: "hi-res", EnergyBits: 8, EnergyMax: 255,
		LambdaBits: 6, Mode: ConvertScaledCutoff, TimeBits: 8, Truncation: 0.1, Tie: TieRandom}
	noScale := NewRSUG()
	noScale.Mode = ConvertCutoffNoScale
	cases := []struct {
		name    string
		cfg     Config
		cache   bool
		wrapped bool
	}{
		{"new", NewRSUG(), false, false},
		{"new-cached", NewRSUG(), true, false},
		{"new-wrapped-source", NewRSUG(), false, true},
		{"new-first-wins", firstWins, false, false},
		{"prev-no-zero-lut", PrevRSUG(), false, false},
		{"scaled-no-zero-lut", scaledNoCut, true, false},
		{"hi-res", hiRes, false, false},
		{"cutoff-no-scale", noScale, false, false},
	}
	temps := stereoTemperatures()
	vecs := liveKernelEnergies()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			xl, xd, xm := rng.NewXoshiro256(77), rng.NewXoshiro256(77), rng.NewXoshiro256(77)
			var sl, sd, sm rng.Source = xl, xd, xm
			if tc.wrapped {
				sl, sd, sm = wrappedSource{xl}, wrappedSource{xd}, wrappedSource{xm}
			}
			live := MustUnit(tc.cfg, sl, true)
			dense := MustUnit(tc.cfg, sd, true)
			given := MustUnit(tc.cfg, sm, true)
			dense.SetFaultInjector(zeroRateInjector{})
			if tc.cache {
				cc := NewConverterCache(0)
				live.SetConverterCache(cc)
				dense.SetConverterCache(cc)
				given.SetConverterCache(cc)
			}
			out := make([]int, 1)
			for ti := 0; ti < len(temps); ti += 7 {
				T := temps[ti]
				MustSetTemperature(live, T)
				MustSetTemperature(dense, T)
				MustSetTemperature(given, T)
				if live.lutCut <= 0 {
					t.Fatalf("T=%v: cut index %d, want the live kernel active", T, live.lutCut)
				}
				for _, v := range vecs {
					cur := 0
					mins := []float64{refMin(v.e)}
					for i := 0; i < 6; i++ {
						a := MustSample(live, v.e, cur)
						b := MustSample(dense, v.e, cur)
						if err := given.SampleBatchMin(v.e, mins, len(v.e), []int{cur}, out); err != nil {
							t.Fatal(err)
						}
						if a != b || xl.State() != xd.State() || live.Stats() != dense.Stats() {
							t.Fatalf("T=%v %s draw %d: live %d dense %d, rng equal %v\nlive  %+v\ndense %+v",
								T, v.name, i, a, b, xl.State() == xd.State(), live.Stats(), dense.Stats())
						}
						if out[0] != a || xm.State() != xl.State() || given.Stats() != live.Stats() {
							t.Fatalf("T=%v %s draw %d: supplied minimum %d live %d, rng equal %v\ngiven %+v\nlive  %+v",
								T, v.name, i, out[0], a, xm.State() == xl.State(), given.Stats(), live.Stats())
						}
						cur = a
					}
				}
			}
		})
	}

	for _, tc := range []struct {
		name   string
		cfg    Config
		useLUT bool
		fault  bool
	}{
		{"blocks/new", NewRSUG(), true, false},
		{"blocks/prev", PrevRSUG(), true, false},
		{"blocks/new-fault-injector", NewRSUG(), true, true},
		{"blocks/new-boundary-converter", NewRSUG(), false, false},
	} {
		t.Run(tc.name, func(t *testing.T) { checkBatchMin(t, tc.cfg, tc.useLUT, tc.fault) })
	}
}

// checkBatchMin draws random blocks through SampleBatch on one unit and
// SampleBatchMin on another from the same seed, and requires the same
// labels, RNG state and Stats after every block. The blocks hold 1-8 pixels
// of 2-64 labels with NaN, ±Inf, −0 and ties, at temperatures from 32 down
// to 1e-4. With a fault injector attached, or without a LUT converter, the
// unit must ignore the minima and take the dense path, so those units get
// garbage minima.
func checkBatchMin(t *testing.T, cfg Config, useLUT, fault bool) {
	gen := rng.NewXoshiro256(91)
	xa, xb := rng.NewXoshiro256(13), rng.NewXoshiro256(13)
	a, b := MustUnit(cfg, xa, useLUT), MustUnit(cfg, xb, useLUT)
	if fault {
		a.SetFaultInjector(zeroRateInjector{})
		b.SetFaultInjector(zeroRateInjector{})
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for T := 32.0; T >= 1e-4; T /= 2 {
		MustSetTemperature(a, T)
		MustSetTemperature(b, T)
		if live := b.liveKernel(); live == (fault || !useLUT) {
			t.Fatalf("T=%v: live kernel %v with fault %v, LUT %v", T, live, fault, useLUT)
		}
		for trial := 0; trial < 40; trial++ {
			labels, n := 2+rng.Intn(gen, 63), 1+rng.Intn(gen, 8)
			energies := make([]float64, n*labels)
			for i := range energies {
				switch k := rng.Intn(gen, 40); {
				case k < len(special):
					energies[i] = special[k]
				case k < 20:
					energies[i] = float64(rng.Intn(gen, 12)) // ties
				default:
					energies[i] = rng.Float64(gen)*300 - 10
				}
			}
			mins := make([]float64, n)
			for i := range mins {
				mins[i] = refMin(energies[i*labels : (i+1)*labels])
				if fault || !useLUT {
					mins[i] = math.NaN()
				}
			}
			cur := make([]int, n)
			for i := range cur {
				cur[i] = rng.Intn(gen, labels)
			}
			outA, outB := make([]int, n), make([]int, n)
			if err := a.SampleBatch(energies, labels, cur, outA); err != nil {
				t.Fatal(err)
			}
			if err := b.SampleBatchMin(energies, mins, labels, cur, outB); err != nil {
				t.Fatal(err)
			}
			for i := range outA {
				if outA[i] != outB[i] {
					t.Fatalf("T=%v trial %d pixel %d: SampleBatchMin %d, SampleBatch %d", T, trial, i, outB[i], outA[i])
				}
			}
			if xa.State() != xb.State() || a.Stats() != b.Stats() {
				t.Fatalf("T=%v trial %d: rng equal %v\nbatch %+v\nmin   %+v", T, trial, xa.State() == xb.State(), a.Stats(), b.Stats())
			}
		}
	}
}

// TestLUTCutIndex checks the cut index of the stereo-schedule LUTs against
// a brute-force scan for the first zero entry, and the classification of
// tables whose zeros are not a tail.
func TestLUTCutIndex(t *testing.T) {
	for _, cfg := range []Config{NewRSUG(), PrevRSUG()} {
		for _, T := range stereoTemperatures() {
			lut := NewLUTConverter(cfg, T)
			want := len(lut.table)
			for k, c := range lut.table {
				if c == 0 {
					want = k
					break
				}
			}
			for _, c := range lut.table[want:] {
				if c != 0 {
					t.Fatalf("%s T=%v: zero entries are not a tail: %v", cfg.Name, T, lut.table)
				}
			}
			if lut.cut != want {
				t.Fatalf("%s T=%v: cut %d, brute force %d", cfg.Name, T, lut.cut, want)
			}
		}
	}
	for _, tc := range []struct {
		table []int
		want  int
	}{
		{[]int{8, 4, 0, 0}, 2},
		{[]int{8, 4, 2, 1}, 4},
		{[]int{0, 0}, 0},
		{[]int{8, 0, 4, 0}, -1},
		{[]int{0, 8}, -1},
	} {
		if got := cutIndex(tc.table); got != tc.want {
			t.Errorf("cutIndex(%v) = %d, want %d", tc.table, got, tc.want)
		}
	}
}

// TestLiveBoundsExact checks that liveHi[c] is the last float64 energy
// whose code is at most c, for quantizers with unit and non-unit scale.
func TestLiveBoundsExact(t *testing.T) {
	for _, q := range []struct {
		bits int
		max  float64
	}{{8, 255}, {8, 100}, {12, 255}, {5, 7.3}} {
		cfg := NewRSUG()
		cfg.EnergyBits, cfg.EnergyMax = q.bits, q.max
		u := MustUnit(cfg, rng.NewXoshiro256(1), true)
		enc := func(e float64) int { return encodeEnergy(e, u.escale, cfg.EnergyMax, u.emaxCode) }
		if len(u.liveHi) != u.emaxCode {
			t.Fatalf("bits %d max %v: %d bounds for %d codes", q.bits, q.max, len(u.liveHi), u.emaxCode)
		}
		for c, h := range u.liveHi {
			if enc(h) > c || enc(math.Nextafter(h, math.Inf(1))) <= c {
				t.Fatalf("bits %d max %v: liveHi[%d] = %v encodes to %d, next float to %d",
					q.bits, q.max, c, h, enc(h), enc(math.Nextafter(h, math.Inf(1))))
			}
		}
	}
}

// reservoirSelect is the first-to-fire comparator that draws as it goes:
// one rng.Intn per tie event, in label order, keeping a reservoir sample
// under TieRandom. It is the reference for race/settle, which defer the
// tie draws until the winning bin is known.
func reservoirSelect(src rng.Source, tie TieBreak, bins []int, current int) (label int, sawTie bool) {
	best, bestBin, tied := -1, math.MaxInt, 1
	for i, b := range bins {
		switch {
		case b == 0:
		case b < bestBin:
			best, bestBin, tied = i, b, 1
		case b == bestBin:
			sawTie = true
			if tie == TieRandom {
				tied++
				if rng.Intn(src, tied) == 0 {
					best = i
				}
			}
		}
	}
	if best < 0 {
		return current, false
	}
	return best, sawTie
}

// TestSelectBinMatchesReservoir checks the selection stage against the
// draw-as-you-go comparator on random bin vectors dense in ties, including
// ties at bins a later label beats: same winner, same RNG state, same Ties
// and NoFire counts.
func TestSelectBinMatchesReservoir(t *testing.T) {
	gen := rng.NewXoshiro256(12)
	for _, tie := range []TieBreak{TieRandom, TieFirstWins} {
		for _, wrapped := range []bool{false, true} {
			cfg := NewRSUG()
			cfg.Tie = tie
			xu, xr := rng.NewXoshiro256(5), rng.NewXoshiro256(5)
			var src rng.Source = xu
			if wrapped {
				src = wrappedSource{xu}
			}
			u := MustUnit(cfg, src, true)
			u.ensureScratch(12)
			var ties, noFire int
			for trial := 0; trial < 20000; trial++ {
				bins := make([]int, 1+rng.Intn(gen, 12))
				for i := range bins {
					bins[i] = rng.Intn(gen, 4) // bins 1-3 and "did not fire"
				}
				before := u.Stats()
				got := u.selectBin(append([]int(nil), bins...), -1)
				want, sawTie := reservoirSelect(xr, tie, bins, -1)
				if sawTie {
					ties++
				}
				if want == -1 {
					noFire++
				}
				st := u.Stats()
				if got != want || xu.State() != xr.State() || st.Ties-before.Ties != boolInt(sawTie) ||
					st.NoFire-before.NoFire != boolInt(want == -1) {
					t.Fatalf("tie %v wrapped %v bins %v: got %d want %d, rng equal %v, stats %+v -> %+v",
						tie, wrapped, bins, got, want, xu.State() == xr.State(), before, st)
				}
			}
			if ties == 0 || noFire == 0 {
				t.Fatalf("tie %v: %d ties and %d no-fire evaluations; need both", tie, ties, noFire)
			}
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
