package conformance

import (
	"fmt"
	"math"
	"sort"

	"rsu/internal/core"
	"rsu/internal/rng"
	"rsu/internal/stats"
)

// DesignPoint is one cell of the conformance grid: a configuration, the
// temperature the battery samples at, and the label-energy vectors to race.
type DesignPoint struct {
	Name     string
	Config   core.Config
	T        float64
	Energies [][]float64
}

// batteryEnergies exercises the interesting regimes: near-ties, wide
// spreads (cut-off territory), a dominant label, and values beyond the
// quantizer's full scale.
func batteryEnergies() [][]float64 {
	return [][]float64{
		{0, 10, 20, 40, 80, 160},
		{5, 5, 5, 5},
		{0, 200, 210, 230},
		{100, 101, 99, 150, 40},
	}
}

// DefaultBattery returns the design-point grid. It spans the paper's four
// precision axes (Energy_bits x Lambda_bits x Time_bits x Truncation), the
// three precision-recovery techniques (decay-rate scaling, probability
// cut-off, 2^n truncation), both tie-break policies, and — via the bit-width
// zeroing convention — all four sampling kernel paths.
func DefaultBattery() []DesignPoint {
	ev := batteryEnergies()
	firstWins := core.NewRSUG()
	firstWins.Name = "new-RSUG-tie-first"
	firstWins.Tie = core.TieFirstWins
	return []DesignPoint{
		// Quantized integer pipeline (EnergyBits, LambdaBits, TimeBits > 0).
		// High temperatures probe early-annealing multi-label races; the
		// cold point probes the near-deterministic late-annealing regime.
		{Name: "new-rsug", Config: core.NewRSUG(), T: 32, Energies: ev},
		{Name: "new-rsug-cold", Config: core.NewRSUG(), T: 2, Energies: ev},
		{Name: "prev-rsug", Config: core.PrevRSUG(), T: 32, Energies: ev},
		{Name: "scaled-only", T: 16, Energies: ev, Config: core.Config{
			Name: "scaled-only", EnergyBits: 8, EnergyMax: 255,
			LambdaBits: 4, Mode: core.ConvertScaled,
			TimeBits: 5, Truncation: 0.1, Tie: core.TieRandom}},
		{Name: "scaled-cutoff-hires", T: 8, Energies: ev, Config: core.Config{
			Name: "scaled-cutoff-hires", EnergyBits: 8, EnergyMax: 255,
			LambdaBits: 6, Mode: core.ConvertScaledCutoff,
			TimeBits: 8, Truncation: 0.1, Tie: core.TieRandom}},
		{Name: "cutoff-no-scale", T: 0.5, Energies: ev, Config: core.Config{
			Name: "cutoff-no-scale", EnergyBits: 8, EnergyMax: 255,
			LambdaBits: 4, Mode: core.ConvertCutoffNoScale,
			TimeBits: 5, Truncation: 0.05, Tie: core.TieRandom}},
		{Name: "new-rsug-tie-first", Config: firstWins, T: 32, Energies: ev},
		// Float energies into integer lambda codes (binned-codes kernel).
		{Name: "float-energy-codes", T: 24, Energies: ev, Config: core.Config{
			Name:       "float-energy-codes",
			LambdaBits: 4, Mode: core.ConvertScaledCutoff,
			TimeBits: 5, Truncation: 0.05, Tie: core.TieRandom}},
		// Float lambda, binned time (binned-float kernel).
		{Name: "binned-float", T: 24, Energies: ev, Config: core.Config{
			Name: "binned-float", Mode: core.ConvertScaled,
			TimeBits: 6, Truncation: 0.05, Tie: core.TieRandom}},
		// Continuous-time kernels: all-float reference and integer-lambda.
		{Name: "float-reference", Config: core.FloatReference(), T: 32, Energies: ev},
		{Name: "int-continuous", T: 32, Energies: ev, Config: core.Config{
			Name: "int-continuous", EnergyBits: 8, EnergyMax: 255,
			LambdaBits: 4, Mode: core.ConvertScaledCutoffPow2, Tie: core.TieRandom}},
	}
}

// Check is one hypothesis test of a chi-square battery.
type Check struct {
	Name    string // what was tested, e.g. "new-rsug energies 2"
	Path    string // kernel path of the configuration
	N       int    // samples drawn (replicate chains for the chain batteries)
	P       float64
	Skipped bool // degenerate distribution (single cell) — trivially conformant
}

// BatteryOptions tunes a RunBattery call.
type BatteryOptions struct {
	// Samples per (design point, energy vector). 0 means 30000.
	Samples int
	// Alpha is the total false-rejection budget, split across all tests by
	// Bonferroni correction. 0 means 1e-3.
	Alpha float64
	// Seed derives every unit's RNG stream.
	Seed uint64
}

// Report is the outcome of a chi-square battery run: the distribution, the
// marginal and the sharding batteries all report through it.
type Report struct {
	Checks []Check
	// Threshold is the Bonferroni-corrected per-test rejection level.
	Threshold float64
}

// Failed reports whether c rejected its null hypothesis at the corrected
// threshold.
func (r *Report) Failed(c Check) bool { return !c.Skipped && c.P < r.Threshold }

// Failures returns the checks that failed — non-conformance at the
// configured budget.
func (r *Report) Failures() []Check {
	var out []Check
	for _, c := range r.Checks {
		if r.Failed(c) {
			out = append(out, c)
		}
	}
	return out
}

// MinP returns the smallest non-skipped p-value, or 1 if none ran.
func (r *Report) MinP() float64 {
	min := 1.0
	for _, c := range r.Checks {
		if !c.Skipped && c.P < min {
			min = c.P
		}
	}
	return min
}

// Paths returns the distinct kernel paths the battery covered, sorted.
func (r *Report) Paths() []string {
	set := map[string]bool{}
	for _, c := range r.Checks {
		set[c.Path] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// RunBattery samples every design point and tests each energy vector's
// label histogram against the analytic distribution (chi-square goodness of
// fit, small-expectation cells pooled). The returned error reports setup
// problems, not statistical failures; gate on report.Failures().
func RunBattery(points []DesignPoint, o BatteryOptions) (*Report, error) {
	if o.Samples <= 0 {
		o.Samples = 30000
	}
	if o.Alpha <= 0 {
		o.Alpha = 1e-3
	}
	tests := 0
	for _, pt := range points {
		tests += len(pt.Energies)
	}
	if tests == 0 {
		return nil, fmt.Errorf("conformance: empty battery")
	}
	rep := &Report{Threshold: o.Alpha / float64(tests)}

	for pi, pt := range points {
		if len(pt.Energies) == 0 {
			return nil, fmt.Errorf("conformance: point %q has no energy vectors", pt.Name)
		}
		// Alternate the converter realization across points; both compute
		// the same function, so LUT/boundary coverage comes for free.
		useLUT := pi%2 == 0
		u, err := core.NewUnit(pt.Config, rng.NewXoshiro256(core.StreamSeed(o.Seed, pi)), useLUT)
		if err != nil {
			return nil, fmt.Errorf("conformance: point %q: %w", pt.Name, err)
		}
		if err := u.SetTemperature(pt.T); err != nil {
			return nil, fmt.Errorf("conformance: point %q: %w", pt.Name, err)
		}
		path := KernelPath(pt.Config)

		for ei, energies := range pt.Energies {
			want, err := ExpectedOutcome(pt.Config, pt.T, energies)
			if err != nil {
				return nil, fmt.Errorf("conformance: point %q energies %d: %w", pt.Name, ei, err)
			}
			if d := math.Abs(want.Total() - 1); d > 1e-9 {
				return nil, fmt.Errorf("conformance: point %q energies %d: analytic mass off by %g", pt.Name, ei, d)
			}
			m := len(energies)
			obs := make([]float64, m+1) // cell m = kept current label
			// The unit draws through SampleBatch — the entry point the fused
			// solvers use — so the battery's conformance verdict covers the
			// batched path. Each chunk replicates the energy vector into a
			// dense block with every current label -1; per the batch contract
			// the RNG stream is consumed exactly as per-call Sample would.
			const chunk = 256
			block := make([]float64, chunk*m)
			for i := 0; i < chunk; i++ {
				copy(block[i*m:(i+1)*m], energies)
			}
			currents := make([]int, chunk)
			for i := range currents {
				currents[i] = -1
			}
			out := make([]int, chunk)
			for s := 0; s < o.Samples; s += chunk {
				n := chunk
				if rem := o.Samples - s; rem < n {
					n = rem
				}
				if err := u.SampleBatch(block[:n*m], m, currents[:n], out[:n]); err != nil {
					return nil, fmt.Errorf("conformance: point %q energies %d: %w", pt.Name, ei, err)
				}
				for _, l := range out[:n] {
					obs[cell(l, m)]++
				}
			}
			p, ok := conformanceP(obs, want, o.Samples)
			rep.Checks = append(rep.Checks, Check{
				Name: fmt.Sprintf("%s energies %d", pt.Name, ei), Path: path,
				N: o.Samples, P: p, Skipped: !ok,
			})
		}
	}
	return rep, nil
}

// cell maps a Sample return value to its histogram cell: labels to their
// index, the kept sentinel (-1) to the extra cell m.
func cell(label, m int) int {
	if label < 0 {
		return m
	}
	return label
}

// conformanceP runs the goodness-of-fit test of observed counts against the
// analytic outcome, pooling cells whose expectation is below 5 into the
// largest cell to keep the chi-square approximation valid. Returns ok =
// false when the distribution is degenerate (fewer than 2 testable cells),
// in which case an exact match is implied by the pooling.
func conformanceP(obs []float64, want Outcome, n int) (float64, bool) {
	m := len(want.Win)
	exp := make([]float64, m+1)
	for i, w := range want.Win {
		exp[i] = w * float64(n)
	}
	exp[m] = want.Keep * float64(n)

	const minExp = 5
	var bigObs, bigExp []float64
	var poolObs, poolExp float64
	largest := -1
	for i := range exp {
		if exp[i] >= minExp {
			if largest < 0 || bigExp[largest] < exp[i] {
				largest = len(bigExp)
			}
			bigObs = append(bigObs, obs[i])
			bigExp = append(bigExp, exp[i])
		} else {
			poolObs += obs[i]
			poolExp += exp[i]
		}
	}
	if len(bigExp) < 2 {
		// Everything concentrated in at most one cell: the analytic
		// distribution is (near-)deterministic. Any stray observation in a
		// pooled cell is a hard mismatch; report p = 0 for that case.
		if largest >= 0 && poolObs > 0 && poolExp < 1e-9 {
			return 0, true
		}
		return 1, false
	}
	// Fold the pooled remainder into the largest cell so no expected count
	// is tiny; the largest cell absorbs the perturbation best.
	bigObs[largest] += poolObs
	bigExp[largest] += poolExp
	res, err := stats.ChiSquareTest(bigObs, bigExp, 0)
	if err != nil {
		return 0, true
	}
	return res.PValue, true
}
