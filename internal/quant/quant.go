// Package quant provides the fixed-point quantization helpers used to model
// the limited-precision datapaths of the RSU-G: the 8-bit energy stage, the
// Lambda_bits decay-rate codes, and the Time_bits TTF bins. The paper's
// central question — how little precision each pipeline stage can get away
// with — is exercised by sweeping these quantizers.
package quant

import "math"

// Quantizer maps a real value in [Min, Max] onto an unsigned integer code of
// Bits bits by uniform rounding, and back. Bits == 0 is treated as "full
// precision" (identity), which the experiment drivers use to model the
// IEEE-float reference configuration from the paper's sequential evaluation
// methodology (Sec. III-C).
type Quantizer struct {
	Bits int
	Min  float64
	Max  float64
}

// Levels returns the number of representable codes (2^Bits), or 0 for the
// full-precision identity quantizer.
func (q Quantizer) Levels() int {
	if q.Bits <= 0 {
		return 0
	}
	return 1 << q.Bits
}

// MaxCode returns the largest code value (2^Bits - 1).
func (q Quantizer) MaxCode() int {
	if q.Bits <= 0 {
		return 0
	}
	return q.Levels() - 1
}

// Encode clamps v into [Min, Max] and rounds it to the nearest code.
func (q Quantizer) Encode(v float64) int {
	if q.Bits <= 0 {
		return 0
	}
	if math.IsNaN(v) {
		return 0
	}
	if v <= q.Min {
		return 0
	}
	if v >= q.Max {
		return q.MaxCode()
	}
	scale := float64(q.MaxCode()) / (q.Max - q.Min)
	return RoundPos((v - q.Min) * scale)
}

// RoundPos rounds a positive v below 2^52 to the nearest integer, half away
// from zero — bit-compatible with int(math.Round(v)) on that domain, but
// compiled to an add and a truncating conversion instead of math.Round's
// portable bit twiddling. It is the sampling pipeline's hot rounding
// primitive (one call per label per pixel per sweep).
//
// Why the truncation is exact: for v >= 0.5 the rounded sum fl(v+0.5) never
// crosses the next integer boundary k+1, because any v that could push it
// there would have to lie in the open half-ulp window just below k+0.5, and
// that window contains no representable doubles once v shares (at least)
// the binade spacing of k+0.5. The single exception is the binade below
// 0.5 — v = 0.5 - 2^-54 has fl(v+0.5) = 1 under ties-to-even — which the
// v < 0.5 guard resolves to 0, exactly as math.Round does.
func RoundPos(v float64) int {
	if v < 0.5 {
		return 0
	}
	return int(v + 0.5)
}

// Decode maps a code back to the center of its quantization cell.
func (q Quantizer) Decode(code int) float64 {
	if q.Bits <= 0 {
		return 0
	}
	if code < 0 {
		code = 0
	}
	if code > q.MaxCode() {
		code = q.MaxCode()
	}
	scale := (q.Max - q.Min) / float64(q.MaxCode())
	return q.Min + float64(code)*scale
}

// Apply quantizes v through an encode/decode round trip, or returns v
// unchanged for the full-precision quantizer. This is the hook the RSU-G
// functional simulator uses to inject precision loss at each pipeline stage.
func (q Quantizer) Apply(v float64) float64 {
	if q.Bits <= 0 {
		return v
	}
	return q.Decode(q.Encode(v))
}

// Step returns the width of one quantization cell.
func (q Quantizer) Step() float64 {
	if q.Bits <= 0 {
		return 0
	}
	return (q.Max - q.Min) / float64(q.MaxCode())
}

// ClampInt limits v to [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// FloorPow2 returns the largest power of two <= v, or 0 if v < 1. The new
// RSU-G design truncates lambda codes to the nearest 2^n value so only
// Lambda_bits unique decay rates (concentrations) are needed instead of
// 2^Lambda_bits (Sec. III-C-2).
func FloorPow2(v int) int {
	if v < 1 {
		return 0
	}
	p := 1
	for p<<1 <= v {
		p <<= 1
	}
	return p
}
