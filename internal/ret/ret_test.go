package ret

import (
	"math"
	"testing"

	"rsu/internal/rng"
)

func TestNetworkExciteAndEmit(t *testing.T) {
	src := rng.NewXoshiro256(1)
	n := NewNetwork(1)
	if n.Excited(0) {
		t.Fatal("fresh network must be idle")
	}
	n.Excite(100, 1, 1, src) // rate 1/bin: almost surely fires within a few bins
	if !n.Excited(100) {
		t.Fatal("excited network must report pending emission")
	}
	if _, ok := n.Emission(101, 200); !ok {
		t.Fatal("expected emission in a 100-bin window at rate 1")
	}
	if n.Excited(101) {
		t.Fatal("consumed emission must clear the pending state")
	}
}

func TestNetworkStalePhotonDropped(t *testing.T) {
	src := rng.NewXoshiro256(2)
	n := NewNetwork(1)
	n.Excite(0, 1, 5, src) // fires almost immediately
	// Window opens long after the photon left.
	if _, ok := n.Emission(1000, 2000); ok {
		t.Fatal("stale photon must not appear in a later window")
	}
	if n.Excited(1000) {
		t.Fatal("stale pending must be cleared")
	}
}

func TestNetworkMergeKeepsEarliest(t *testing.T) {
	n := NewNetwork(1)
	n.pending = 50
	src := rng.NewXoshiro256(3)
	n.Excite(10, 1, 1e-9, src) // new emission astronomically late
	if n.pending != 50 {
		t.Fatalf("merge lost the earlier emission: pending = %d", n.pending)
	}
}

func TestNetworkPanicsOnBadConcentration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for concentration 0")
		}
	}()
	NewNetwork(0)
}

func TestTruncationProbabilityMatchesConfig(t *testing.T) {
	cfg := NewDesignCircuit()
	src := rng.NewXoshiro256(4)
	const trials = 100000
	misses := 0
	for i := 0; i < trials; i++ {
		n := NewNetwork(1)
		n.Excite(0, 1, cfg.BaseRate, src)
		if _, ok := n.Emission(1, cfg.WindowBins); !ok {
			misses++
		}
	}
	got := float64(misses) / trials
	if math.Abs(got-0.5) > 0.006 {
		t.Fatalf("P(miss window | lambda_0) = %v, want 0.5", got)
	}
}

func TestCircuitValidation(t *testing.T) {
	bad := []CircuitConfig{
		{},
		{Rows: 1, Concentrations: []float64{1}, Intensities: []float64{1}, WindowBins: 0, BaseRate: 1},
		{Rows: 1, Concentrations: []float64{1}, Intensities: []float64{1}, WindowBins: 4},
	}
	for i, cfg := range bad {
		if _, err := NewCircuit(cfg, rng.NewSplitMix64(1)); err == nil {
			t.Errorf("config %d unexpectedly valid", i)
		}
	}
	if _, err := NewCircuit(NewDesignCircuit(), nil); err == nil {
		t.Error("nil source must error")
	}
}

func TestCircuitSampleDistribution(t *testing.T) {
	// The device-level circuit must reproduce the functional model's
	// truncated-exponential statistics for each concentration code.
	c, err := NewCircuit(NewDesignCircuit(), rng.NewXoshiro256(5))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 60000
	for _, code := range []int{1, 2, 4, 8} {
		fired := 0
		var now int64
		var window int64
		for i := 0; i < trials; i++ {
			bin, ok := c.Sample(code, window, now)
			if ok {
				fired++
				if bin < 1 || bin > 32 {
					t.Fatalf("bin %d out of window", bin)
				}
			}
			window++
			now += 32
		}
		got := float64(fired) / trials
		want := 1 - math.Pow(0.5, float64(code))
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("code %d: P(fire) = %v, want %v", code, got, want)
		}
	}
}

func TestCircuitBleedThroughAtProperReuse(t *testing.T) {
	// With the nominal 8-row rotation, bleed-through must stay near the
	// 0.4% design target even when always sampling the slowest network.
	c, err := NewCircuit(NewDesignCircuit(), rng.NewXoshiro256(6))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 200000
	var now, window int64
	for i := 0; i < trials; i++ {
		c.Sample(1, window, now)
		window++
		now += 32
	}
	rate := float64(c.Stats().BleedThru) / trials
	if rate > 0.008 {
		t.Fatalf("bleed-through rate %v exceeds design target ~0.4%%", rate)
	}
	if rate == 0 {
		t.Fatal("expected some residual bleed-through at truncation 0.5")
	}
}

func TestCircuitBleedThroughWithoutReplicas(t *testing.T) {
	// Reusing a single row every window (as if Rows were 1) must show
	// roughly Truncation-level contamination — the reason the new design
	// needs 8 replica rows.
	cfg := NewDesignCircuit()
	cfg.Rows = 1
	c, err := NewCircuit(cfg, rng.NewXoshiro256(7))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 100000
	var now int64
	for i := 0; i < trials; i++ {
		c.Sample(1, 0, now)
		now += 32
	}
	rate := float64(c.Stats().BleedThru) / trials
	if rate < 0.3 {
		t.Fatalf("bleed-through rate %v too low; expected ~Truncation (0.5)", rate)
	}
}

func TestPrevCircuitIntensityRouting(t *testing.T) {
	c, err := NewCircuit(PrevDesignCircuit(), rng.NewXoshiro256(8))
	if err != nil {
		t.Fatal(err)
	}
	// Code 16 drives 16x lambda_0 with truncation 0.004: it must
	// essentially always fire, and fast.
	const trials = 20000
	fired := 0
	var sum float64
	var now, window int64
	for i := 0; i < trials; i++ {
		bin, ok := c.Sample(16, window, now)
		if ok {
			fired++
			sum += float64(bin)
		}
		window++
		now += 32
	}
	if float64(fired)/trials < 0.999 {
		t.Fatalf("max intensity fired only %v of the time", float64(fired)/trials)
	}
	if mean := sum / float64(fired); mean > 2 {
		t.Fatalf("max intensity mean bin %v, want fast (<2)", mean)
	}
	// Code 1 must truncate about 0.4% of samples.
	cLow, _ := NewCircuit(PrevDesignCircuit(), rng.NewXoshiro256(9))
	misses := 0
	now, window = 0, 0
	for i := 0; i < 200000; i++ {
		if _, ok := cLow.Sample(1, window, now); !ok {
			misses++
		}
		window++
		now += 32
	}
	got := float64(misses) / 200000
	if math.Abs(got-0.004) > 0.002 {
		t.Fatalf("P(truncate | code 1) = %v, want ~0.004", got)
	}
}

func TestSPADDarkCountsNegligibleAtPaperRate(t *testing.T) {
	// kHz dark counts vs 125 ps bins: rate per bin ~ 1e3 * 125e-12 ≈ 1e-7.
	cfg := NewDesignCircuit()
	cfg.SPAD = SPAD{DarkCountPerBin: 1.25e-7}
	c, err := NewCircuit(cfg, rng.NewXoshiro256(10))
	if err != nil {
		t.Fatal(err)
	}
	var now, window int64
	for i := 0; i < 100000; i++ {
		c.Sample(8, window, now)
		window++
		now += 32
	}
	if dc := c.Stats().DarkCounts; dc > 20 {
		t.Fatalf("dark counts decided %d windows; paper says negligible", dc)
	}
}

func TestSPADDarkCountsDetectable(t *testing.T) {
	// Sanity: a pathologically noisy SPAD does fire on its own.
	s := SPAD{DarkCountPerBin: 0.5}
	src := rng.NewXoshiro256(11)
	hits := 0
	for i := 0; i < 1000; i++ {
		if _, ok := s.Detect(0, false, 1, 32, src); ok {
			hits++
		}
	}
	if hits < 900 {
		t.Fatalf("noisy SPAD fired only %d/1000", hits)
	}
}

func TestCircuitStatsAccounting(t *testing.T) {
	c, err := NewCircuit(NewDesignCircuit(), rng.NewXoshiro256(12))
	if err != nil {
		t.Fatal(err)
	}
	var now, window int64
	const trials = 5000
	for i := 0; i < trials; i++ {
		c.Sample(4, window, now)
		window++
		now += 32
	}
	st := c.Stats()
	if st.Activations != trials {
		t.Fatalf("activations %d, want %d", st.Activations, trials)
	}
	if st.Fired+st.Truncated != trials {
		t.Fatalf("fired %d + truncated %d != %d", st.Fired, st.Truncated, trials)
	}
}

func TestRouteUnknownCodePanics(t *testing.T) {
	c, _ := NewCircuit(NewDesignCircuit(), rng.NewXoshiro256(13))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown concentration code")
		}
	}()
	c.Sample(3, 0, 0)
}

func TestBleachingDegradesRate(t *testing.T) {
	n := NewNetwork(1)
	n.BleachPerExcitation = 0.001
	src := rng.NewXoshiro256(20)
	for i := 0; i < 1000; i++ {
		n.Excite(int64(i)*64, 1, 0.1, src)
		n.Reset()
	}
	want := math.Pow(0.999, 1000)
	if math.Abs(n.Yield()-want) > 1e-9 {
		t.Fatalf("yield %v after 1000 excitations, want %v", n.Yield(), want)
	}
	if n.Excitations() != 1000 {
		t.Fatalf("excitations %d, want 1000", n.Excitations())
	}
	n.Refresh()
	if n.Yield() != 1 {
		t.Fatal("Refresh must restore full yield")
	}
}

func TestBleachingShiftsTruncationRate(t *testing.T) {
	// A heavily bleached lambda_0 network truncates far more than the 50%
	// design point — the quality hazard the mitigation avoids.
	cfg := NewDesignCircuit()
	cfg.Rows = 1
	cfg.BleachPerExcitation = 5e-5
	c, err := NewCircuit(cfg, rng.NewXoshiro256(21))
	if err != nil {
		t.Fatal(err)
	}
	var now int64
	const warm = 20000
	for i := 0; i < warm; i++ {
		c.Sample(1, 0, now)
		now += 64 // rest long enough to avoid bleed-through noise
	}
	if y := c.MinYield(); y > 0.5 {
		t.Fatalf("expected heavy bleaching, yield %v", y)
	}
	// Measure truncation on a fresh counter window.
	before := c.Stats().Truncated
	const probe = 20000
	for i := 0; i < probe; i++ {
		c.Sample(1, 0, now)
		now += 64
	}
	trunc := float64(c.Stats().Truncated-before) / probe
	if trunc < 0.6 {
		t.Fatalf("bleached truncation rate %v, want well above the 0.5 design point", trunc)
	}
	c.Refresh()
	if c.MinYield() != 1 {
		t.Fatal("circuit Refresh must restore all networks")
	}
}

func TestNoBleachingByDefault(t *testing.T) {
	c, err := NewCircuit(NewDesignCircuit(), rng.NewXoshiro256(22))
	if err != nil {
		t.Fatal(err)
	}
	var now int64
	for i := 0; i < 5000; i++ {
		c.Sample(8, int64(i), now)
		now += 32
	}
	if c.MinYield() != 1 {
		t.Fatalf("default circuit bleached to %v", c.MinYield())
	}
}

// TestSPADTiePolicyPhotonWins pins the documented tie policy: with a dark
// rate so high the dark event always quantizes into the earliest possible
// bin (from+1), a photon already sitting in that bin must survive — dark
// counts replace the photon only when strictly earlier.
func TestSPADTiePolicyPhotonWins(t *testing.T) {
	s := SPAD{DarkCountPerBin: 1e6} // exponential delay ~1e-6, always ceil -> 1
	src := rng.NewXoshiro256(21)
	for i := 0; i < 1000; i++ {
		tm, ok := s.Detect(1, true, 0, 32, src)
		if !ok || tm != 1 {
			t.Fatalf("photon at from+1 lost the tie: got (%d, %v), want (1, true)", tm, ok)
		}
	}
}

// TestSPADDarkDelayClampedToOneBin pins the lower boundary: a dark count can
// never land at `from` itself — the exponential delay quantizes to at least
// one whole bin past the window opening.
func TestSPADDarkDelayClampedToOneBin(t *testing.T) {
	s := SPAD{DarkCountPerBin: 1e6}
	src := rng.NewXoshiro256(22)
	for i := 0; i < 1000; i++ {
		tm, ok := s.Detect(0, false, 5, 37, src)
		if !ok {
			t.Fatal("saturating dark rate failed to fire")
		}
		if tm != 6 {
			t.Fatalf("dark count at %d, want exactly from+1 = 6 at saturating rate", tm)
		}
	}
}

// TestSPADTinyRateNoOverflow pins the overflow fix: at vanishing dark rates
// the exponential delay can exceed the int64 range, and the float->int
// conversion used to wrap negative and register a spurious in-window event.
// The delay must now be bounded in float space first: no event, ever.
func TestSPADTinyRateNoOverflow(t *testing.T) {
	s := SPAD{DarkCountPerBin: 1e-300}
	src := rng.NewXoshiro256(23)
	for i := 0; i < 100000; i++ {
		if tm, ok := s.Detect(0, false, 0, 1<<16, src); ok {
			t.Fatalf("iteration %d: tiny-rate SPAD fired at %d (overflow regression)", i, tm)
		}
	}
}

// TestSPADDarkEventInsideWindowBounds: at a moderate rate every fired dark
// event must land inside (from, to] — never at from, never past to.
func TestSPADDarkEventInsideWindowBounds(t *testing.T) {
	s := SPAD{DarkCountPerBin: 0.05}
	src := rng.NewXoshiro256(24)
	const from, to = 100, 164
	for i := 0; i < 50000; i++ {
		tm, ok := s.Detect(0, false, from, to, src)
		if !ok {
			continue
		}
		if tm <= from || tm > to {
			t.Fatalf("dark event at %d outside (%d, %d]", tm, from, to)
		}
	}
}
