package core

import (
	"fmt"
	"math"

	"rsu/internal/quant"
	"rsu/internal/rng"
)

// LabelSampler is the interface the MRF Gibbs engine drives: given the
// energies of every candidate label for one random variable and the
// variable's current label, pick the next label. SetTemperature is called
// once per simulated-annealing iteration (which in the previous RSU-G
// design costs a LUT rewrite and in the new design a stall-free boundary
// register update).
//
// Both methods report invalid inputs as errors instead of panicking:
// SetTemperature rejects a non-positive or non-finite temperature, and
// Sample rejects an empty energy vector. Library code must not panic on
// bad input — the MustSample / MustSetTemperature helpers restore the
// panic-on-error behavior for tests, examples and benchmarks whose inputs
// are known valid.
type LabelSampler interface {
	SetTemperature(T float64) error
	Sample(energies []float64, current int) (int, error)
}

// MustSample draws from s and panics on error — the escape hatch for
// callers with known-valid inputs (tests, examples, benchmarks).
func MustSample(s LabelSampler, energies []float64, current int) int {
	l, err := s.Sample(energies, current)
	if err != nil {
		panic(err)
	}
	return l
}

// MustSetTemperature sets the sampler temperature and panics on error —
// the escape hatch companion to MustSample.
func MustSetTemperature(s LabelSampler, T float64) {
	if err := s.SetTemperature(T); err != nil {
		panic(err)
	}
}

// validTemperature reports whether T is a usable annealing temperature:
// positive and finite (the !(T > 0) form also rejects NaN).
func validTemperature(T float64) bool {
	return T > 0 && !math.IsInf(T, 1)
}

// Stats accumulates observable behavior of a Unit, used by tests and by the
// truncation/coverage analyses.
type Stats struct {
	Evaluations int // Sample calls (one per random-variable update)
	LabelEvals  int // total labels evaluated
	Cutoffs     int // labels whose decay-rate code was 0 (can never fire)
	Truncated   int // labels whose TTF fell beyond the detection window
	NoFire      int // evaluations where no label fired (variable kept)
	Ties        int // evaluations decided through the tie-break policy
}

// Unit is the RSU-G functional simulator. It is not safe for concurrent use;
// create one Unit (with its own rng.Source) per worker.
type Unit struct {
	cfg Config
	src rng.Source
	// srcX is src's concrete type when it is the default xoshiro generator.
	// The hottest sampling loop uses it to devirtualize the per-draw Uint64
	// calls (direct, inlinable method calls instead of interface dispatch);
	// it draws the exact same values in the exact same order as src.
	srcX   *rng.Xoshiro256
	useLUT bool
	conv   Converter
	T      float64
	equant quant.Quantizer
	estep  float64
	// escale/emaxCode mirror the quantizer's Encode parameters so the fast
	// path can inline the encode without recomputing the scale per label;
	// escale is built from the same expression as Encode's, so the rounded
	// codes are bit-identical.
	escale   float64
	emaxCode int
	lambda0  float64
	tmax     int
	stats    Stats

	// surv caches the binned-time survival function per decay-rate code:
	// surv[code][b] = P(TTF > b) = exp(-code*lambda0*b). It depends only on
	// the code, lambda_0 and the window size, so it survives temperature
	// updates; rows are built lazily for the few codes a configuration emits.
	surv [][]float64
	// guide accelerates the inverse-CDF search: guide[code][k] is the
	// smallest bin any uniform in slot [k/2^guideBits, (k+1)/2^guideBits)
	// can land in, so a draw starts there and scans at most a slot's worth
	// of bins forward.
	guide [][]uint32
	// lutTable and lutCut alias the LUT converter's table and cut index when
	// that realization is active, letting sampleLive index the table
	// directly instead of going through the Converter interface per label.
	// lutCut is 0 for any other converter; only a positive cut index
	// selects that kernel.
	lutTable []int
	lutCut   int
	// liveHi[c] is the largest energy that encodes to code c or less (see
	// liveBounds), built once for the binned quantized configurations.
	liveHi []float64
	// convCache, when non-nil, memoizes converter construction per
	// (config, realization, temperature) so units at the same design point
	// share read-only conversion tables instead of rebuilding them on every
	// SetTemperature (see ConverterCache).
	convCache *ConverterCache

	// fault, when non-nil, perturbs the drawn per-label TTF bins between the
	// draw stage and first-to-fire selection — the device-fault injection
	// hook (see FaultInjector). nil, the default, is the ideal device: the
	// selection path is untouched and bit-exact.
	fault FaultInjector

	// scratch buffers reused across Sample calls (Unit is single-threaded).
	effBuf  []float64
	codeBuf []int
	rateBuf []float64
	binBuf  []int
	tiedBuf []int
	allLabs []int // 0, 1, ..., len-1
}

// NewUnit builds a Unit for configuration cfg driven by src. useLUT selects
// the LUT realization of the energy-to-lambda converter; false selects the
// boundary-comparison realization (both compute the same function; see
// Converter). The Unit starts at temperature 1.
func NewUnit(cfg Config, src rng.Source, useLUT bool) (*Unit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil rng source")
	}
	u := &Unit{cfg: cfg, src: src, useLUT: useLUT, lambda0: cfg.Lambda0(), tmax: cfg.TimeBins()}
	u.srcX, _ = src.(*rng.Xoshiro256)
	if cfg.EnergyBits > 0 {
		u.equant = quant.Quantizer{Bits: cfg.EnergyBits, Min: 0, Max: cfg.EnergyMax}
		u.estep = u.equant.Step()
		u.emaxCode = u.equant.MaxCode()
		u.escale = float64(u.emaxCode) / (cfg.EnergyMax - 0)
		if cfg.LambdaBits > 0 && cfg.TimeBits > 0 {
			u.liveHi = liveBounds(u.escale, cfg.EnergyMax, u.emaxCode)
		}
	}
	if err := u.SetTemperature(1); err != nil {
		return nil, err
	}
	if cfg.LambdaBits > 0 && cfg.TimeBits > 0 {
		// Pre-build the survival/guide tables for every decay-rate code the
		// converter can emit (they depend only on lambda0 and the window, not
		// on temperature), so the binned draw hot path never takes the
		// lazy-growth branch in survival. Descending order grows the cache
		// slices exactly once.
		for c := cfg.MaxLambdaCode(); c >= 1; c-- {
			u.survival(c)
		}
	}
	return u, nil
}

// MustUnit is NewUnit that panics on error, for tests and examples.
func MustUnit(cfg Config, src rng.Source, useLUT bool) *Unit {
	u, err := NewUnit(cfg, src, useLUT)
	if err != nil {
		panic(err)
	}
	return u
}

// Config returns the Unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

// Stats returns the accumulated counters.
func (u *Unit) Stats() Stats { return u.stats }

// SetTemperature folds the simulated-annealing temperature into the
// energy-to-lambda conversion, rebuilding the LUT or boundary registers.
// A non-positive or non-finite temperature is rejected with an error and
// leaves the unit's state untouched.
func (u *Unit) SetTemperature(T float64) error {
	if !validTemperature(T) {
		return fmt.Errorf("core: temperature must be positive and finite, got %v", T)
	}
	u.T = T
	if u.cfg.EnergyBits > 0 && u.cfg.LambdaBits > 0 {
		switch {
		case u.convCache != nil:
			u.conv = u.convCache.Get(u.cfg, u.useLUT, T)
		case u.useLUT:
			u.conv = NewLUTConverter(u.cfg, T)
		default:
			u.conv = NewBoundaryConverter(u.cfg, T)
		}
		u.lutTable, u.lutCut = nil, 0
		if lut, ok := u.conv.(*LUTConverter); ok {
			u.lutTable, u.lutCut = lut.table, lut.cut
		}
	}
	return nil
}

// SetConverterCache attaches (or, with nil, detaches) a shared converter
// cache; subsequent SetTemperature calls resolve their conversion tables
// through it. Cached tables are read-only, so one cache may serve any number
// of units concurrently even though each Unit itself is single-threaded.
func (u *Unit) SetConverterCache(cc *ConverterCache) { u.convCache = cc }

// Temperature returns the current annealing temperature.
func (u *Unit) Temperature() float64 { return u.T }

// LambdaCode returns the decay-rate code the unit assigns to the given
// effective energy (after scaling) at the current temperature, or an error
// when the configuration has no integer lambda codes. Exposed for the
// conversion experiments; Sample is the normal entry point.
func (u *Unit) LambdaCode(effectiveEnergy float64) (int, error) {
	if u.cfg.LambdaBits <= 0 {
		return 0, fmt.Errorf("core: LambdaCode requires integer lambda configuration (config %q has LambdaBits %d)", u.cfg.Name, u.cfg.LambdaBits)
	}
	if u.cfg.EnergyBits > 0 {
		ecode := int(math.Round(effectiveEnergy / u.estep))
		return u.conv.Code(ecode), nil
	}
	return u.cfg.lambdaCodeFloat(effectiveEnergy, u.T), nil
}

// SampleTTF draws one time-to-fluorescence for an integer decay-rate code,
// returning the time bin (1-based) and whether the RET network fired within
// the detection window. Exposed for the Fig. 7 probability-ratio experiment
// and the cycle-level simulator.
func (u *Unit) SampleTTF(code int) (bin int, fired bool) {
	if code <= 0 {
		return 0, false
	}
	t := rng.Exponential(u.src, float64(code)*u.lambda0)
	// Compare in float space before converting: ceil(t) > tmax iff t > tmax,
	// and a huge t (tiny rate) would overflow the int conversion.
	if t > float64(u.tmax) {
		return 0, false
	}
	b := int(math.Ceil(t))
	if b < 1 {
		b = 1
	}
	return b, true
}

// SampleTTFBounded is SampleTTF with the paper's functional-simulator
// truncation semantic (Sec. III-C-3): a TTF beyond the detection window is
// numerically rounded to t_max instead of treated as "never fired". Codes
// <= 0 still never fire. The Fig. 7 probability-ratio experiment uses this
// variant; with the never-fires semantic the truncation cancels exactly out
// of two-label win ratios and the right side of the paper's U-shape cannot
// be observed.
func (u *Unit) SampleTTFBounded(code int) (bin int, fired bool) {
	if code <= 0 {
		return 0, false
	}
	bin, fired = u.SampleTTF(code)
	if !fired {
		return u.tmax, true
	}
	return bin, true
}

// Sample runs the full RSU-G pipeline for one random variable: quantize the
// candidate energies, convert to decay-rate codes, draw TTF samples and
// return the first label to fire. If no label fires within the detection
// window (all cut off or all truncated) the variable keeps its current
// label, mirroring hardware where no SPAD pulse arrives. An empty energy
// vector is rejected with an error.
func (u *Unit) Sample(energies []float64, current int) (int, error) {
	if len(energies) == 0 {
		return current, fmt.Errorf("core: Sample requires at least one label")
	}
	u.ensureScratch(len(energies))
	return u.sampleOne(energies, current), nil
}

// ensureScratch sizes the per-label scratch buffers. Sample calls it per
// draw; SampleBatch hoists it to one call per segment, so steady-state
// batched sweeps never allocate.
func (u *Unit) ensureScratch(m int) {
	if cap(u.effBuf) < m {
		u.effBuf = make([]float64, m)
		u.codeBuf = make([]int, m)
		u.rateBuf = make([]float64, m)
		u.binBuf = make([]int, m)
		u.tiedBuf = make([]int, m)
		u.allLabs = make([]int, m)
		for i := range u.allLabs {
			u.allLabs[i] = i
		}
	}
}

// sampleOne is the pipeline body shared by Sample and SampleBatch. The
// scratch buffers must already cover len(energies) (ensureScratch). The RNG
// draw sequence is the conformance-pinned order: one TTF draw per
// positive-rate label in label order, then any tie-break draws inside the
// selection stage — every kernel below preserves it.
func (u *Unit) sampleOne(energies []float64, current int) int {
	m := len(energies)
	u.stats.Evaluations++
	u.stats.LabelEvals += m

	if u.cfg.EnergyBits > 0 && u.cfg.LambdaBits > 0 {
		// Fully quantized pipeline: stages 1-2 stay in integer energy codes.
		if u.liveKernel() {
			return u.sampleLive(energies, current, 0, false)
		}
		return u.sampleQuantized(energies, current)
	}

	// Stage 1: energy quantization.
	eff := u.effBuf[:m]
	if u.cfg.EnergyBits > 0 {
		for i, e := range energies {
			eff[i] = float64(u.equant.Encode(e)) * u.estep
		}
	} else {
		copy(eff, energies)
	}

	// Stage 2a: decay-rate scaling (E' = E - E_min), the FIFO-decoupled
	// subtraction in the new microarchitecture.
	if u.cfg.scalesEnergy() {
		min := eff[0]
		for _, e := range eff[1:] {
			if e < min {
				min = e
			}
		}
		for i := range eff {
			eff[i] -= min
		}
	}

	// Float-lambda, continuous-time reference path: exact competing
	// exponentials, equivalent to categorical sampling with p ∝ e^(-E'/T).
	if u.cfg.LambdaBits <= 0 && u.cfg.TimeBits <= 0 {
		return u.sampleContinuousFloat(eff, current)
	}

	// Float lambda, binned time: rates relative to lambda_0 with the
	// maximum (E' = 0) mapping to the full-scale rate.
	if u.cfg.LambdaBits <= 0 {
		return u.sampleBinnedFloat(eff, current)
	}

	// Stage 2b: energy-to-lambda conversion. Quantized energies with integer
	// lambda codes took sampleQuantized above, so the energies here are
	// float.
	codes := u.codeBuf[:m]
	for i, e := range eff {
		c := u.cfg.lambdaCodeFloat(e, u.T)
		if c == 0 {
			u.stats.Cutoffs++
		}
		codes[i] = c
	}

	// Stage 3+4: sampling and selection.
	if u.cfg.TimeBits <= 0 {
		// Integer lambda, continuous time (the paper's intermediate
		// evaluation step): competing exponentials with rates = codes.
		rates := u.rateBuf[:m]
		for i, c := range codes {
			rates[i] = float64(c)
		}
		return u.sampleContinuousRates(rates, current)
	}
	return u.sampleBinnedCodes(codes, current)
}

// encodeEnergy is the inlined Quantizer.Encode with the scale hoisted out of
// the caller's loop. The quantizer's Min is 0, so the arithmetic matches
// Encode bit for bit; `e > 0` being false also covers NaN, which Encode maps
// to code 0.
func encodeEnergy(e, scale, emax float64, maxCode int) int {
	if e > 0 {
		if e >= emax {
			return maxCode
		}
		return quant.RoundPos(e * scale)
	}
	return 0
}

// sampleQuantized is the integer pipeline for EnergyBits > 0 and
// LambdaBits > 0: encode once, subtract the minimum energy code when the mode
// scales, and feed the integer difference straight to the converter.
// Decoding the energy codes back to floats, subtracting and re-rounding
// would be an exact round-trip (the difference of two code multiples of the
// quantizer step re-rounds to the code difference), so the emitted
// decay-rate codes are those of the paper's float-staged pipeline.
//
// It is the dense pipeline, which sampleOne uses wherever the cut-off-aware
// kernel (sampleLive) does not apply: the boundary-comparison converter,
// continuous time, LUTs with interior zeros, and units with a
// FaultInjector, whose PerturbBins needs every label's bin.
func (u *Unit) sampleQuantized(energies []float64, current int) int {
	m := len(energies)
	scale, emax, maxCode := u.escale, u.cfg.EnergyMax, u.emaxCode
	codes := u.codeBuf[:m]
	// Without scaling min stays 0 and the subtraction is a no-op.
	min := 0
	if u.cfg.scalesEnergy() {
		min = maxCode
	}
	for i, e := range energies {
		ec := encodeEnergy(e, scale, emax, maxCode)
		codes[i] = ec
		if ec < min {
			min = ec
		}
	}
	for i, ec := range codes {
		c := u.conv.Code(ec - min)
		if c == 0 {
			u.stats.Cutoffs++
		}
		codes[i] = c
	}
	if u.cfg.TimeBits > 0 {
		return u.sampleBinnedCodes(codes, current)
	}
	rates := u.rateBuf[:m]
	for i, c := range codes {
		rates[i] = float64(c)
	}
	return u.sampleContinuousRates(rates, current)
}

// liveKernel reports whether the unit draws through sampleLive: binned
// units with a LUT whose zeros form a tail (lutCut is 0 for any other
// converter, and for configurations that are not fully quantized). A
// FaultInjector needs the dense bins (a dark count can make a cut-off label
// fire).
func (u *Unit) liveKernel() bool {
	return u.lutCut > 0 && u.fault == nil && u.cfg.TimeBits > 0
}

// sampleLive is the cut-off-aware binned kernel. With the LUT's cut index K
// (table[k] == 0 exactly for k >= K), a label fires only if its energy code
// ec satisfies ec - min < K, where min is the minimum energy code (0 without
// scaling): every other label's decay rate is cut off to 0. At annealing
// temperatures below 1 that leaves 1-3 of stereo's 56 labels, so the kernel
// converts, draws and races only those.
//
// It is exact, not approximate. Encoding is monotone in the energy, and NaN
// encodes to 0 like every non-positive energy, so ec - min < K holds exactly
// for NaN and for the energies at or below hi = liveHi[min+K-1]; the
// !(e > hi) test admits both. For more than fewLabels labels, one pass
// tracks the minimum and keeps as candidates the labels that pass the test
// against the minimum so far: the bound only falls as the minimum does, so
// every live label is a candidate. A second pass over the candidates (every
// label, for short vectors) applies the final bound. When the caller
// supplies the minimum energy fmin (given), the bound is known up front and
// that second pass over every label is the only one. The live labels are
// visited in label order and each draws exactly what the dense pipeline
// draws for it; the cut-off labels draw nothing there either. The fired
// labels enter the race in label order, as selectBin feeds it the dense
// bins. So the RNG stream, the chosen label and every Stats counter match
// the dense pipeline.
func (u *Unit) sampleLive(energies []float64, current int, fmin float64, given bool) int {
	scale, emax, maxCode := u.escale, u.cfg.EnergyMax, u.emaxCode
	// The candidates: label cand[k] has energy vals[k].
	vals, cand := energies, u.allLabs[:len(energies)]
	var min int
	var hi float64
	switch {
	case !u.cfg.scalesEnergy():
		// The minimum is code 0 and the bound is known up front: every
		// label is a candidate and the second pass alone filters.
		hi = u.codeBound(0)
	case given:
		// The caller's gather found the minimum as the energies streamed
		// in; −Inf, its stand-in for a NaN, encodes to NaN's code 0.
		min = encodeEnergy(fmin, scale, emax, maxCode)
		hi = u.codeBound(min)
	case len(energies) <= fewLabels:
		// Find the minimum first and let the second pass filter every
		// label. NaN, once seen, stays the minimum: nothing compares below
		// it.
		fmin := math.Inf(1)
		for _, e := range energies {
			if e < fmin || e != e {
				fmin = e
			}
		}
		min = encodeEnergy(fmin, scale, emax, maxCode)
		hi = u.codeBound(min)
	default:
		// The minimum starts at +Inf, whose code maxCode puts every code
		// within the cut. The candidates reuse effBuf and codeBuf, which
		// only the other pipelines need.
		fmin := math.Inf(1)
		min, hi = maxCode, math.Inf(1)
		vals, cand = u.effBuf[:0], u.codeBuf[:0]
		for i, e := range energies {
			if e > hi {
				continue
			}
			if !(e >= fmin) {
				// A new minimum, or NaN: NaN's code is 0, the floor,
				// which -Inf pins for the rest of the pass.
				fmin = e
				if e != e {
					fmin = math.Inf(-1)
				}
				min = encodeEnergy(fmin, scale, emax, maxCode)
				hi = u.codeBound(min)
			}
			vals, cand = append(vals, e), append(cand, i)
		}
	}

	lt := u.lutTable
	r := race{bin: math.MaxInt, tied: u.tiedBuf[:0]}
	live := 0
	for k := 0; ; k++ {
		// Skip the cut-off labels in a loop of their own over the
		// contiguous energies: it keeps k in a register, where the draw's
		// call below would spill it to the stack on every label.
		for k < len(vals) && vals[k] > hi {
			k++
		}
		if k == len(vals) {
			break
		}
		live++
		// ec - min < K, so the LUT index is in range and the code is
		// non-zero.
		if b := u.liveBin(lt[encodeEnergy(vals[k], scale, emax, maxCode)-min]); b != 0 {
			r.fire(cand[k], b)
		}
	}
	u.stats.Cutoffs += len(energies) - live
	return u.settle(&r, current)
}

// fewLabels is the longest energy vector for which sampleLive finds the
// minimum in a pass of its own. Re-deriving the bound at every new minimum
// costs an encode and a table load on the loop's critical path; with 2-16
// labels (serve's segmentation and Ising jobs) a plain minimum pass plus a
// compare per label is cheaper, while with stereo's 56 the candidate pass,
// which skips most labels after one compare, is (measured on a 2-vCPU
// host).
const fewLabels = 16

// codeBound returns the largest energy a label may have and still fire when
// the minimum energy code is min: liveHi[min+K-1], or +Inf when every code
// up to the quantizer's maximum is within the cut.
func (u *Unit) codeBound(min int) float64 {
	if limit := min + u.lutCut - 1; limit < u.emaxCode {
		return u.liveHi[limit]
	}
	return math.Inf(1)
}

// liveBounds returns, for every energy code c below maxCode, the largest
// float64 energy that encodes to c or less: the exact threshold sampleLive
// compares energies against instead of encoding them. Each starts from the
// real-valued rounding boundary (c+0.5)/scale and steps by ulps; encoding
// is monotone, so the steps settle within a few ulps.
func liveBounds(scale, emax float64, maxCode int) []float64 {
	enc := func(e float64) int { return encodeEnergy(e, scale, emax, maxCode) }
	hi := make([]float64, maxCode)
	for c := range hi {
		h := (float64(c) + 0.5) / scale
		for enc(h) > c {
			h = math.Nextafter(h, math.Inf(-1))
		}
		for next := math.Nextafter(h, math.Inf(1)); enc(next) <= c; next = math.Nextafter(h, math.Inf(1)) {
			h = next
		}
		hi[c] = h
	}
	return hi
}

func (u *Unit) sampleContinuousFloat(eff []float64, current int) int {
	rates := u.rateBuf[:len(eff)]
	for i, e := range eff {
		rates[i] = math.Exp(-e / u.T)
	}
	return u.sampleContinuousRates(rates, current)
}

// sampleContinuousRates picks the minimum of competing exponentials with the
// given rates; zero-rate labels never fire. It exploits the identity
// argmin_i Exp(r_i) ~ Categorical(r_i / sum r): one uniform draw replaces
// one math.Log per label, with exactly the same distribution.
func (u *Unit) sampleContinuousRates(rates []float64, current int) int {
	var total float64
	for _, r := range rates {
		if r > 0 {
			total += r
		}
	}
	if total <= 0 {
		u.stats.NoFire++
		return current
	}
	v := rng.Float64(u.src) * total
	acc := 0.0
	last := -1
	for i, r := range rates {
		if r <= 0 {
			continue
		}
		acc += r
		last = i
		if v < acc {
			return i
		}
	}
	// Round-off can leave v marginally above the final acc; the last
	// positive-rate label owns that sliver.
	return last
}

// LambdaFloatFullScale maps the float-lambda maximum (1.0 at E'=0) onto the
// same dynamic range an 8-code integer design would use, so float-lambda +
// binned-time ablations remain comparable to the integer design points. It
// is exported so the conformance battery can derive the binned-float race
// distribution from the same constant.
const LambdaFloatFullScale = 8

func (u *Unit) sampleBinnedFloat(eff []float64, current int) int {
	maxRate := -math.Log(u.cfg.Truncation) / float64(u.tmax) * LambdaFloatFullScale
	bins := u.binBuf[:len(eff)]
	for i, e := range eff {
		rate := math.Exp(-e/u.T) * maxRate
		if rate <= 0 {
			// exp(-E'/T) underflowed: the label's TTF lies beyond any
			// window, the binned analogue of the probability cut-off.
			u.stats.Truncated++
			bins[i] = 0
			continue
		}
		bins[i] = u.drawBin(rate)
	}
	return u.selectBin(bins, current)
}

func (u *Unit) sampleBinnedCodes(codes []int, current int) int {
	bins := u.binBuf[:len(codes)]
	for i, c := range codes {
		if c <= 0 {
			bins[i] = 0
			continue
		}
		bins[i] = u.drawBinCode(c)
	}
	return u.selectBin(bins, current)
}

// drawBin samples one exponential TTF at the given absolute rate and returns
// its 1-based time bin, or 0 if it truncates past the window.
func (u *Unit) drawBin(rate float64) int {
	t := rng.Exponential(u.src, rate)
	// ceil(t) > tmax iff t > tmax; testing before the int conversion keeps a
	// near-zero rate (astronomically large t) from overflowing the int.
	if t > float64(u.tmax) {
		u.stats.Truncated++
		return 0
	}
	b := int(math.Ceil(t))
	if b < 1 {
		b = 1
	}
	return b
}

// guideBits sizes the inverse-CDF guide table (2^guideBits slots).
const guideBits = 8

// survival returns (building lazily) the cached survival table for a
// decay-rate code, along with its guide table.
func (u *Unit) survival(code int) []float64 {
	if code >= len(u.surv) {
		grownS := make([][]float64, code+1)
		copy(grownS, u.surv)
		u.surv = grownS
		grownG := make([][]uint32, code+1)
		copy(grownG, u.guide)
		u.guide = grownG
	}
	if u.surv[code] == nil {
		s := make([]float64, u.tmax+1)
		r := float64(code) * u.lambda0
		for b := 0; b <= u.tmax; b++ {
			s[b] = math.Exp(-r * float64(b))
		}
		u.surv[code] = s

		// guide[k] = smallest bin b with S(b) < (k+1)/2^guideBits, i.e. the
		// smallest bin any uniform in slot k can map to; tmax+1 marks "every
		// uniform in this slot truncates". Both S and the slot upper bound
		// are monotone, so one forward pass fills all slots.
		const slots = 1 << guideBits
		g := make([]uint32, slots)
		b := 1
		for k := slots - 1; k >= 0; k-- {
			upper := float64(k+1) / slots
			for b <= u.tmax && s[b] >= upper {
				b++
			}
			g[k] = uint32(b)
		}
		u.guide[code] = g
	}
	return u.surv[code]
}

// drawBinCode is the binned draw for an integer decay-rate code: with
// u ~ Uniform(0,1) the bin drawBin computes, ceil(-ln(u)/rate), equals the
// smallest b with u >= S(b) where S(b) = exp(-rate*b), so one uniform plus a
// guided scan of the cached survival table replaces the log call — the same
// inverse-CDF transform of the same uniform, hence the same bin. The guide table jumps to
// the first bin the uniform's slot can reach; the scan then advances at
// most a slot's width of survival values.
func (u *Unit) drawBinCode(code int) int {
	// NewUnit pre-builds every code a converter can emit, so the direct
	// lookup hits except for out-of-range codes fed in by tests or future
	// realizations — those fall back to the lazily-growing builder.
	var s []float64
	var g []uint32
	if uint(code) < uint(len(u.surv)) && u.surv[code] != nil {
		s, g = u.surv[code], u.guide[code]
	} else {
		s = u.survival(code)
		g = u.guide[code]
	}
	v := rng.Float64Open(u.src)
	b := int(g[int(v*(1<<guideBits))])
	for b <= u.tmax && v < s[b] {
		b++
	}
	if b > u.tmax {
		u.stats.Truncated++
		return 0
	}
	return b
}

// selectBin implements the selection stage over a dense bin vector: smallest
// bin wins; bin 0 means "did not fire". Every dense binned kernel funnels
// through here, so the fault hook sees each of their
// evaluations exactly once; sampleLive, which never runs with a hook, races
// its fired labels directly.
func (u *Unit) selectBin(bins []int, current int) int {
	if u.fault != nil {
		u.fault.PerturbBins(bins, u.tmax)
	}
	r := race{bin: math.MaxInt, tied: u.tiedBuf[:0]}
	for i, b := range bins {
		if b != 0 {
			r.fire(i, b)
		}
	}
	return u.settle(&r, current)
}

// race is the first-to-fire comparator fed the fired labels in label order.
// It keeps only what the tie-break needs: the smallest bin so far, the
// labels tied at it, and the tie events counted so far — stale holds those
// that happened before the current smallest bin appeared.
type race struct {
	bin, ties, stale int
	tied             []int
}

func (r *race) fire(label, bin int) {
	if bin < r.bin {
		r.bin, r.stale = bin, r.ties
		r.tied = append(r.tied[:0], label)
	} else if bin == r.bin {
		r.ties++
		r.tied = append(r.tied, label)
	}
}

// settle resolves the race and returns the winner, or current when no label
// fired (no SPAD pulse: the variable keeps its label). Under TieRandom the
// comparator keeps a reservoir sample with one draw per tie event, in label
// order and after every bin draw. A tie at a bin that a later label beat
// only consumes its draw, and all of those come before the ties at the
// winning bin, so settle skips r.stale draws and then runs the reservoir
// over the labels tied at the winning bin: the same draws, in the same
// order, as a comparator that draws as it goes.
func (u *Unit) settle(r *race, current int) int {
	if r.ties == 0 && len(r.tied) == 1 {
		return r.tied[0] // the common case: one label fired first, alone
	}
	return u.settleTie(r, current)
}

// settleTie is settle's slow path: no label fired, or a tie.
func (u *Unit) settleTie(r *race, current int) int {
	if len(r.tied) == 0 {
		u.stats.NoFire++
		return current
	}
	if r.ties > 0 {
		u.stats.Ties++
	}
	best := r.tied[0]
	if u.cfg.Tie != TieRandom {
		return best
	}
	// Each tie draw is one rng.Intn: one Uint64 through a widening
	// multiply, inlined on the devirtualized xoshiro source when there is
	// one.
	for k := 0; k < r.stale; k++ {
		u.src.Uint64()
	}
	x := u.srcX
	for k := 1; k < len(r.tied); k++ {
		n := k + 1
		var d int
		if x != nil {
			d = int((x.Uint64() >> 33) * uint64(n) >> 31)
		} else {
			d = rng.Intn(u.src, n)
		}
		if d == 0 {
			best = r.tied[k]
		}
	}
	return best
}
