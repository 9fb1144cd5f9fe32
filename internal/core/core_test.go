package core

import (
	"math"
	"testing"
	"testing/quick"

	"rsu/internal/rng"
)

func TestStandardConfigsValidate(t *testing.T) {
	for _, cfg := range []Config{PrevRSUG(), NewRSUG(), FloatReference()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{EnergyBits: -1},
		{EnergyBits: 8}, // missing EnergyMax
		{LambdaBits: 11},
		{TimeBits: 5, Truncation: 0},
		{TimeBits: 5, Truncation: 1},
		{LambdaBits: 1, Mode: ConvertScaledCutoffPow2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d unexpectedly valid: %+v", i, cfg)
		}
	}
}

func TestMaxLambdaCode(t *testing.T) {
	cases := []struct {
		bits int
		mode ConvertMode
		want int
	}{
		{4, ConvertScaledCutoffPow2, 8},
		{4, ConvertScaledCutoff, 16},
		{7, ConvertScaled, 128},
		{0, ConvertScaled, 0},
	}
	for _, c := range cases {
		cfg := Config{LambdaBits: c.bits, Mode: c.mode}
		if got := cfg.MaxLambdaCode(); got != c.want {
			t.Errorf("bits=%d mode=%v: MaxLambdaCode=%d, want %d", c.bits, c.mode, got, c.want)
		}
	}
}

func TestLambda0MatchesTruncationDefinition(t *testing.T) {
	cfg := NewRSUG() // TimeBits 5, Truncation 0.5
	l0 := cfg.Lambda0()
	// P(TTF > t_max | lambda_0) = exp(-l0 * 32) must equal Truncation.
	if got := math.Exp(-l0 * 32); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("exp(-lambda0*tmax) = %v, want 0.5", got)
	}
	if Then := (Config{}).Lambda0(); Then != 0 {
		t.Fatalf("continuous-time Lambda0 = %v, want 0", Then)
	}
}

func TestNewRSUGCodesArePow2Set(t *testing.T) {
	cfg := NewRSUG()
	valid := map[int]bool{0: true, 1: true, 2: true, 4: true, 8: true}
	for _, T := range []float64{0.5, 1, 5, 20, 100} {
		lut := NewLUTConverter(cfg, T)
		for e := 0; e < 256; e++ {
			if !valid[lut.Code(e)] {
				t.Fatalf("T=%v e=%d: code %d not in {0,1,2,4,8}", T, e, lut.Code(e))
			}
		}
		if lut.Code(0) != 8 {
			t.Fatalf("T=%v: E'=0 must map to the largest lambda, got %d", T, lut.Code(0))
		}
	}
}

func TestPrevModeClampsToLambda0(t *testing.T) {
	cfg := PrevRSUG()
	lut := NewLUTConverter(cfg, 1) // T=1: e^-255 * 16 ≈ 0 for most energies
	for e := 0; e < 256; e++ {
		if lut.Code(e) < 1 {
			t.Fatalf("previous design must round up to lambda_0, got 0 at e=%d", e)
		}
	}
	if lut.Code(255) != 1 {
		t.Fatalf("high energy should clamp to lambda_0, got %d", lut.Code(255))
	}
	if lut.Code(0) != 16 {
		t.Fatalf("E=0 should reach max code 16, got %d", lut.Code(0))
	}
}

func TestCutoffZerosSmallProbabilities(t *testing.T) {
	cfg := NewRSUG()
	lut := NewLUTConverter(cfg, 10)
	sawZero := false
	for e := 0; e < 256; e++ {
		if lut.Code(e) == 0 {
			sawZero = true
			// floor(exp(-e/10)*8) < 1  <=>  e > 10*ln(8)
			if float64(e) <= 10*math.Log(8) {
				t.Fatalf("premature cutoff at e=%d", e)
			}
		}
	}
	if !sawZero {
		t.Fatal("no energy was cut off at T=10 over 8-bit range")
	}
}

func TestLUTAndBoundaryConvertersAgree(t *testing.T) {
	modes := []ConvertMode{ConvertPrev, ConvertScaled, ConvertScaledCutoff, ConvertScaledCutoffPow2, ConvertCutoffNoScale}
	for _, mode := range modes {
		for _, bits := range []int{3, 4, 5, 7} {
			if mode == ConvertScaledCutoffPow2 && bits < 2 {
				continue
			}
			cfg := Config{EnergyBits: 8, EnergyMax: 255, LambdaBits: bits, Mode: mode, TimeBits: 5, Truncation: 0.5}
			for _, T := range []float64{0.7, 1, 3.3, 17, 90} {
				lut := NewLUTConverter(cfg, T)
				bc := NewBoundaryConverter(cfg, T)
				for e := 0; e < 256; e++ {
					if lut.Code(e) != bc.Code(e) {
						t.Fatalf("mode=%v bits=%d T=%v e=%d: LUT %d != boundary %d",
							mode, bits, T, e, lut.Code(e), bc.Code(e))
					}
				}
			}
		}
	}
}

func TestConverterMemoryBits(t *testing.T) {
	cfg := NewRSUG()
	lut := NewLUTConverter(cfg, 1)
	bc := NewBoundaryConverter(cfg, 1)
	if lut.MemoryBits() != 256*4 {
		t.Errorf("LUT memory = %d bits, want 1024 (paper Sec. IV-B-3)", lut.MemoryBits())
	}
	if bc.MemoryBits() != 4*8 {
		t.Errorf("boundary memory = %d bits, want 32 (paper Sec. IV-B-3)", bc.MemoryBits())
	}
}

func TestLambdaMonotoneInEnergy(t *testing.T) {
	for _, mode := range []ConvertMode{ConvertPrev, ConvertScaledCutoff, ConvertScaledCutoffPow2} {
		cfg := Config{EnergyBits: 8, EnergyMax: 255, LambdaBits: 4, Mode: mode, TimeBits: 5, Truncation: 0.5}
		lut := NewLUTConverter(cfg, 7)
		prev := lut.Code(0)
		for e := 1; e < 256; e++ {
			c := lut.Code(e)
			if c > prev {
				t.Fatalf("mode=%v: code increased with energy at e=%d (%d -> %d)", mode, e, prev, c)
			}
			prev = c
		}
	}
}

// TestScalingInvariance checks the paper's Eq. 4: shifting every label
// energy by a constant leaves the scaled decay-rate codes unchanged, because
// scaling subtracts E_min before conversion.
func TestScalingInvariance(t *testing.T) {
	cfg := NewRSUG()
	u := MustUnit(cfg, rng.NewXoshiro256(1), true)
	u.SetTemperature(9)
	err := quick.Check(func(rawShift uint8, e1, e2, e3 uint8) bool {
		shift := float64(rawShift % 100)
		base := []float64{float64(e1 % 100), float64(e2 % 100), float64(e3 % 100)}
		codesA := make([]int, 3)
		codesB := make([]int, 3)
		min := math.Min(base[0], math.Min(base[1], base[2]))
		for i, e := range base {
			ca, errA := u.LambdaCode(e - min)
			cb, errB := u.LambdaCode((e + shift) - (min + shift))
			if errA != nil || errB != nil {
				return false
			}
			codesA[i] = ca
			codesB[i] = cb
		}
		for i := range codesA {
			if codesA[i] != codesB[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSoftwareSamplerBoltzmann(t *testing.T) {
	s := NewSoftwareSampler(rng.NewXoshiro256(11))
	s.SetTemperature(2)
	energies := []float64{0, 1, 3}
	const n = 200000
	counts := [3]int{}
	for i := 0; i < n; i++ {
		counts[MustSample(s, energies, 0)]++
	}
	var z float64
	want := [3]float64{}
	for i, e := range energies {
		want[i] = math.Exp(-e / 2)
		z += want[i]
	}
	for i := range want {
		want[i] /= z
		got := float64(counts[i]) / n
		if math.Abs(got-want[i]) > 0.006 {
			t.Errorf("label %d: P=%v, want %v", i, got, want[i])
		}
	}
}

func TestContinuousFirstToFireMatchesRatios(t *testing.T) {
	// Integer lambda, continuous time: P(i wins) = code_i / sum(code).
	cfg := Config{EnergyBits: 8, EnergyMax: 255, LambdaBits: 4, Mode: ConvertScaledCutoffPow2, Tie: TieRandom}
	u := MustUnit(cfg, rng.NewXoshiro256(12), true)
	u.SetTemperature(255 / math.Log(8)) // e=0 -> 8, e=255 -> 1 exactly... pick energies directly
	// Choose energies whose codes are 8 and 2: E'=0 -> 8; need code 2:
	// floor(8*exp(-e/T)) in [2,4) <=> e in (T ln2, T ln4].
	T := 100.0
	u.SetTemperature(T)
	e2 := T * math.Log(8.0/2.5) // value 2.5 -> floor 2
	if c, err := u.LambdaCode(e2); err != nil || c != 2 {
		t.Fatalf("setup: code(e2) = %d (err %v), want 2", c, err)
	}
	energies := []float64{0, e2}
	const n = 200000
	wins0 := 0
	for i := 0; i < n; i++ {
		if MustSample(u, energies, 0) == 0 {
			wins0++
		}
	}
	got := float64(wins0) / n
	want := 8.0 / 10.0
	if math.Abs(got-want) > 0.006 {
		t.Fatalf("P(label 0) = %v, want %v", got, want)
	}
}

func TestFloatReferenceMatchesSoftware(t *testing.T) {
	// The float-reference Unit and the SoftwareSampler implement the same
	// distribution; compare their empirical label frequencies.
	u := MustUnit(FloatReference(), rng.NewXoshiro256(13), true)
	s := NewSoftwareSampler(rng.NewXoshiro256(14))
	u.SetTemperature(1.5)
	s.SetTemperature(1.5)
	energies := []float64{0.3, 0.9, 2.2, 0.1}
	const n = 150000
	cu := make([]int, 4)
	cs := make([]int, 4)
	for i := 0; i < n; i++ {
		cu[MustSample(u, energies, 0)]++
		cs[MustSample(s, energies, 0)]++
	}
	for i := range cu {
		du := float64(cu[i]) / n
		ds := float64(cs[i]) / n
		if math.Abs(du-ds) > 0.008 {
			t.Errorf("label %d: unit %v vs software %v", i, du, ds)
		}
	}
}

func TestSampleTTFTruncationProbability(t *testing.T) {
	cfg := NewRSUG()
	u := MustUnit(cfg, rng.NewXoshiro256(15), true)
	// For code 1 (= lambda_0), P(no fire) must equal Truncation = 0.5.
	const n = 200000
	noFire := 0
	for i := 0; i < n; i++ {
		if _, fired := u.SampleTTF(1); !fired {
			noFire++
		}
	}
	got := float64(noFire) / n
	if math.Abs(got-0.5) > 0.005 {
		t.Fatalf("P(truncated | code 1) = %v, want 0.5", got)
	}
	// For code 8, P(no fire) = Truncation^8.
	noFire = 0
	for i := 0; i < n; i++ {
		if _, fired := u.SampleTTF(8); !fired {
			noFire++
		}
	}
	got = float64(noFire) / n
	want := math.Pow(0.5, 8)
	if math.Abs(got-want) > 0.002 {
		t.Fatalf("P(truncated | code 8) = %v, want %v", got, want)
	}
}

func TestSampleTTFBinsInRange(t *testing.T) {
	u := MustUnit(NewRSUG(), rng.NewXoshiro256(16), true)
	for i := 0; i < 50000; i++ {
		bin, fired := u.SampleTTF(4)
		if fired && (bin < 1 || bin > 32) {
			t.Fatalf("bin %d out of [1,32]", bin)
		}
		if !fired && bin != 0 {
			t.Fatalf("non-fired sample reported bin %d", bin)
		}
	}
	if bin, fired := u.SampleTTF(0); fired || bin != 0 {
		t.Fatal("code 0 must never fire")
	}
}

func TestSampleTTFBoundedRoundsToTmax(t *testing.T) {
	u := MustUnit(NewRSUG(), rng.NewXoshiro256(30), true)
	// Code 1 at truncation 0.5: roughly half the draws exceed the window
	// and must come back as bin 32 under the bounded semantic.
	const n = 100000
	at32 := 0
	for i := 0; i < n; i++ {
		bin, fired := u.SampleTTFBounded(1)
		if !fired {
			t.Fatal("bounded sampling of a positive code must always fire")
		}
		if bin < 1 || bin > 32 {
			t.Fatalf("bin %d out of range", bin)
		}
		if bin == 32 {
			at32++
		}
	}
	frac := float64(at32) / n
	// P(bin 32) = P(t > 31) = exp(-lambda0*31) ≈ 0.511.
	want := math.Exp(-u.Config().Lambda0() * 31)
	if math.Abs(frac-want) > 0.01 {
		t.Fatalf("P(bin 32) = %v, want ~%v", frac, want)
	}
	if _, fired := u.SampleTTFBounded(0); fired {
		t.Fatal("code 0 must never fire, even bounded")
	}
}

func TestNoFireKeepsCurrentLabel(t *testing.T) {
	// All labels cut off: impossible since scaling guarantees one max-code
	// label, so force it through the no-scale cutoff mode at low T.
	cfg := Config{EnergyBits: 8, EnergyMax: 255, LambdaBits: 4,
		Mode: ConvertCutoffNoScale, TimeBits: 5, Truncation: 0.5, Tie: TieFirstWins}
	u := MustUnit(cfg, rng.NewXoshiro256(17), true)
	MustSetTemperature(u, 1) // exp(-200)*16 << 1 -> all codes 0
	got := MustSample(u, []float64{200, 220, 240}, 2)
	if got != 2 {
		t.Fatalf("no-fire evaluation returned %d, want current label 2", got)
	}
	if u.Stats().NoFire != 1 {
		t.Fatalf("NoFire stat = %d, want 1", u.Stats().NoFire)
	}
	if u.Stats().Cutoffs != 3 {
		t.Fatalf("Cutoffs stat = %d, want 3", u.Stats().Cutoffs)
	}
}

func TestTieBreakPolicies(t *testing.T) {
	// Two labels with equal max codes and a 1-bin window: everything that
	// fires lands in bin 1, so ties decide every evaluation.
	base := Config{EnergyBits: 8, EnergyMax: 255, LambdaBits: 4,
		Mode: ConvertScaledCutoffPow2, TimeBits: 1, Truncation: 0.05}
	energies := []float64{0, 0}

	first := base
	first.Tie = TieFirstWins
	uf := MustUnit(first, rng.NewXoshiro256(18), true)
	for i := 0; i < 3000; i++ {
		if got := MustSample(uf, energies, 1); got == 1 {
			t.Fatal("TieFirstWins must always pick label 0 when both fire in bin 1")
		}
	}

	random := base
	random.Tie = TieRandom
	ur := MustUnit(random, rng.NewXoshiro256(19), true)
	ones := 0
	const n = 100000
	for i := 0; i < n; i++ {
		ones += MustSample(ur, energies, 0)
	}
	frac := float64(ones) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("TieRandom picked label 1 with frequency %v, want ~0.5", frac)
	}
	if ur.Stats().Ties == 0 {
		t.Fatal("tie counter never incremented")
	}
}

func TestUnitLUTvsBoundarySameDistribution(t *testing.T) {
	energies := []float64{10, 40, 90, 200}
	cl := make([]int, 4)
	cb := make([]int, 4)
	ul := MustUnit(NewRSUG(), rng.NewXoshiro256(20), true)
	ub := MustUnit(NewRSUG(), rng.NewXoshiro256(20), false)
	ul.SetTemperature(30)
	ub.SetTemperature(30)
	const n = 100000
	for i := 0; i < n; i++ {
		cl[MustSample(ul, energies, 0)]++
		cb[MustSample(ub, energies, 0)]++
	}
	// Identical seeds and identical conversion functions => identical draws.
	for i := range cl {
		if cl[i] != cb[i] {
			t.Fatalf("label %d: LUT unit %d vs boundary unit %d draws", i, cl[i], cb[i])
		}
	}
}

func TestStatsCounting(t *testing.T) {
	u := MustUnit(NewRSUG(), rng.NewXoshiro256(21), true)
	if u.Stats() != (Stats{}) {
		t.Fatalf("fresh unit stats = %+v, want zero", u.Stats())
	}
	u.SetTemperature(5)
	for i := 0; i < 10; i++ {
		u.Sample([]float64{0, 50, 100, 150, 250}, 0)
	}
	st := u.Stats()
	if st.Evaluations != 10 || st.LabelEvals != 50 {
		t.Fatalf("stats = %+v, want 10 evals / 50 label evals", st)
	}
	// The counters accumulate: three more draws add exactly their own.
	for i := 0; i < 3; i++ {
		u.Sample([]float64{0, 50, 100}, 0)
	}
	if d := u.Stats(); d.Evaluations-st.Evaluations != 3 || d.LabelEvals-st.LabelEvals != 9 {
		t.Fatalf("stats %+v -> %+v, want a delta of 3 evals / 9 label evals", st, d)
	}
}

func TestNewUnitErrors(t *testing.T) {
	if _, err := NewUnit(Config{EnergyBits: -2}, rng.NewSplitMix64(1), true); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := NewUnit(NewRSUG(), nil, true); err == nil {
		t.Fatal("expected nil-source error")
	}
}

func TestSetTemperatureErrorsOnBadInput(t *testing.T) {
	u := MustUnit(NewRSUG(), rng.NewSplitMix64(2), true)
	for _, T := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := u.SetTemperature(T); err == nil {
			t.Errorf("expected error for T = %v", T)
		}
	}
	// A rejected temperature must not disturb the unit: sampling still works.
	if err := u.SetTemperature(5); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Sample([]float64{0, 50}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestMustSetTemperaturePanics(t *testing.T) {
	u := MustUnit(NewRSUG(), rng.NewSplitMix64(3), true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for T = 0")
		}
	}()
	MustSetTemperature(u, 0)
}

func TestSampleErrorsOnEmptyEnergies(t *testing.T) {
	u := MustUnit(NewRSUG(), rng.NewSplitMix64(4), true)
	MustSetTemperature(u, 5)
	if _, err := u.Sample(nil, -1); err == nil {
		t.Fatal("expected error for empty energy vector")
	}
}

func TestConvertModeString(t *testing.T) {
	if ConvertScaledCutoffPow2.String() != "scaled+cutoff+pow2" {
		t.Fatal("ConvertMode.String wrong")
	}
	if ConvertMode(99).String() == "" {
		t.Fatal("unknown mode must still stringify")
	}
}
