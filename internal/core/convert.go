package core

import (
	"math"

	"rsu/internal/quant"
)

// lambdaValue computes the pre-quantization conversion value
// v = exp(-e/T) * scale for effective energy e at temperature T, where scale
// is 2^LambdaBits (or 2^(LambdaBits-1) with 2^n truncation). The integer
// decay-rate code is derived from v according to the conversion mode.
func (c Config) lambdaScale() float64 {
	return float64(c.MaxLambdaCode())
}

// codeFromValue applies the mode's post-processing to the conversion value.
func (c Config) codeFromValue(v float64) int {
	max := c.MaxLambdaCode()
	code := int(math.Floor(v))
	if code > max {
		code = max
	}
	switch c.Mode {
	case ConvertPrev, ConvertScaled:
		// Previous design: probabilities below lambda_0 are rounded *up*
		// to the minimum decay rate, keeping every label active.
		if code < 1 {
			code = 1
		}
	case ConvertScaledCutoff, ConvertCutoffNoScale:
		if code < 1 {
			code = 0
		}
	case ConvertScaledCutoffPow2:
		code = quant.FloorPow2(code)
	}
	return code
}

// lambdaCodeFloat converts an effective (already scaled, if the mode scales)
// energy to an integer decay-rate code at temperature T.
func (c Config) lambdaCodeFloat(e, T float64) int {
	if e < 0 {
		e = 0
	}
	return c.codeFromValue(math.Exp(-e/T) * c.lambdaScale())
}

// scalesEnergy reports whether the mode applies decay-rate scaling
// (E' = E - E_min) before conversion.
func (c Config) scalesEnergy() bool {
	switch c.Mode {
	case ConvertScaled, ConvertScaledCutoff, ConvertScaledCutoffPow2:
		return true
	}
	return false
}

// Converter maps quantized energy codes to decay-rate codes at a fixed
// temperature. Both hardware realizations from the paper are provided: the
// previous design's look-up table and the new design's boundary-comparison
// logic; they implement the same function (Sec. IV-B-3) and the tests check
// agreement across the full energy-code range.
type Converter interface {
	// Code returns the decay-rate code for energy code ecode (the value
	// *after* the E_min subtraction when decay-rate scaling is enabled).
	Code(ecode int) int
	// MemoryBits returns the storage the realization needs, used by the
	// area/power model (1024 bits for the 256x4 LUT vs 32 bits for four
	// 8-bit boundary registers in the paper).
	MemoryBits() int
}

// LUTConverter is the previous design's table: one precomputed decay-rate
// code per energy code.
type LUTConverter struct {
	table []int
	width int // lambda code width in bits, for MemoryBits
	// cut is the probability cut-off index K: table[k] == 0 exactly for
	// k >= cut (len(table) when no entry is 0), or -1 when the zero entries
	// do not form a contiguous tail. With K > 0, a label whose (scaled)
	// energy code is K or more can never fire, which lets the sampling
	// kernel skip it without converting it (Unit.sampleLive).
	cut int
}

// NewLUTConverter builds the table for configuration c at temperature T.
// The configuration must use quantized energies (EnergyBits > 0).
func NewLUTConverter(c Config, T float64) *LUTConverter {
	n := 1 << c.EnergyBits
	step := c.EnergyMax / float64(n-1)
	t := &LUTConverter{table: make([]int, n), width: c.LambdaBits}
	for ecode := 0; ecode < n; ecode++ {
		t.table[ecode] = c.lambdaCodeFloat(float64(ecode)*step, T)
	}
	t.cut = cutIndex(t.table)
	return t
}

// cutIndex returns the first index of table's all-zero tail (len(table)
// when the last entry is non-zero), or -1 when a zero entry precedes that
// tail.
func cutIndex(table []int) int {
	k := len(table)
	for k > 0 && table[k-1] == 0 {
		k--
	}
	for _, c := range table[:k] {
		if c == 0 {
			return -1
		}
	}
	return k
}

// Code returns the decay-rate code for an energy code, clamping the index to
// the table (the E_min subtraction guarantees in-range codes in hardware).
func (t *LUTConverter) Code(ecode int) int {
	return t.table[quant.ClampInt(ecode, 0, len(t.table)-1)]
}

// MemoryBits returns entries x code-width, e.g. 256 x 4 = 1024 bits for the
// paper's previous design.
func (t *LUTConverter) MemoryBits() int { return len(t.table) * t.width }

// BoundaryConverter is the new design's comparison-based converter: it
// stores one energy boundary per unique decay-rate code and finds the
// interval the energy falls into with at most len(boundaries) comparisons.
type BoundaryConverter struct {
	codes      []int // unique codes, descending (e.g. 8,4,2,1)
	boundaries []int // inclusive upper energy-code bound for each code
	defaultTo  int   // code when energy exceeds every boundary (0 or 1)
	energyBits int
}

// NewBoundaryConverter derives the boundary registers for configuration c at
// temperature T. Boundaries are stored in energy-code units, as the hardware
// registers would be; updating the temperature only rewrites these few
// registers (4 cycles over the 8-bit interface in the paper) instead of the
// whole LUT.
func NewBoundaryConverter(c Config, T float64) *BoundaryConverter {
	n := 1 << c.EnergyBits
	step := c.EnergyMax / float64(n-1)
	var codes []int
	if c.Mode == ConvertScaledCutoffPow2 {
		for v := c.MaxLambdaCode(); v >= 1; v >>= 1 {
			codes = append(codes, v)
		}
	} else {
		for v := c.MaxLambdaCode(); v >= 1; v-- {
			codes = append(codes, v)
		}
	}
	b := &BoundaryConverter{codes: codes, energyBits: c.EnergyBits}
	switch c.Mode {
	case ConvertPrev, ConvertScaled:
		b.defaultTo = 1
	default:
		b.defaultTo = 0
	}
	scale := c.lambdaScale()
	for _, code := range codes {
		// Largest energy code whose conversion value still reaches `code`:
		// exp(-e/T)*scale >= code  <=>  e <= T ln(scale/code).
		eMax := T * math.Log(scale/float64(code))
		bound := int(math.Floor(eMax/step + 1e-9))
		b.boundaries = append(b.boundaries, quant.ClampInt(bound, -1, n-1))
	}
	return b
}

// Code compares the energy code against the boundary registers, returning
// the code of the first (largest-lambda) interval that admits it.
func (b *BoundaryConverter) Code(ecode int) int {
	ecode = quant.ClampInt(ecode, 0, (1<<b.energyBits)-1)
	for i, bound := range b.boundaries {
		if ecode <= bound {
			return b.codes[i]
		}
	}
	return b.defaultTo
}

// MemoryBits returns boundary-count x energy width, e.g. 4 x 8 = 32 bits for
// the new design's four 2^n codes.
func (b *BoundaryConverter) MemoryBits() int { return len(b.boundaries) * b.energyBits }
