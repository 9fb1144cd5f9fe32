package quant

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeEndpoints(t *testing.T) {
	q := Quantizer{Bits: 8, Min: 0, Max: 255}
	if got := q.Encode(0); got != 0 {
		t.Errorf("Encode(0) = %d, want 0", got)
	}
	if got := q.Encode(255); got != 255 {
		t.Errorf("Encode(255) = %d, want 255", got)
	}
	if got := q.Encode(-10); got != 0 {
		t.Errorf("Encode(-10) = %d, want 0 (clamp)", got)
	}
	if got := q.Encode(1e9); got != 255 {
		t.Errorf("Encode(1e9) = %d, want 255 (clamp)", got)
	}
	if got := q.Decode(0); got != 0 {
		t.Errorf("Decode(0) = %v, want 0", got)
	}
	if got := q.Decode(255); got != 255 {
		t.Errorf("Decode(255) = %v, want 255", got)
	}
}

func TestFullPrecisionIdentity(t *testing.T) {
	q := Quantizer{Bits: 0}
	for _, v := range []float64{-3.7, 0, 1e-12, 42.42, 1e30} {
		if q.Apply(v) != v {
			t.Errorf("full-precision Apply(%v) = %v, want identity", v, q.Apply(v))
		}
	}
	if q.Levels() != 0 || q.Step() != 0 {
		t.Error("full-precision quantizer should report 0 levels and 0 step")
	}
}

func TestApplyErrorBound(t *testing.T) {
	// Round-trip error must be at most half a quantization step for
	// in-range values, for every bit width.
	for bits := 1; bits <= 12; bits++ {
		q := Quantizer{Bits: bits, Min: -2, Max: 5}
		half := q.Step() / 2
		err := quick.Check(func(raw float64) bool {
			v := math.Mod(math.Abs(raw), 7) - 2 // into [-2, 5)
			if math.IsNaN(v) {
				return true
			}
			return math.Abs(q.Apply(v)-v) <= half+1e-12
		}, &quick.Config{MaxCount: 300})
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
	}
}

func TestApplyIdempotent(t *testing.T) {
	q := Quantizer{Bits: 5, Min: 0, Max: 10}
	err := quick.Check(func(raw float64) bool {
		v := math.Mod(math.Abs(raw), 10)
		if math.IsNaN(v) {
			return true
		}
		once := q.Apply(v)
		return q.Apply(once) == once
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEncodeMonotone(t *testing.T) {
	q := Quantizer{Bits: 4, Min: 0, Max: 1}
	prev := -1
	for v := 0.0; v <= 1.0; v += 0.001 {
		c := q.Encode(v)
		if c < prev {
			t.Fatalf("Encode not monotone at %v: %d < %d", v, c, prev)
		}
		prev = c
	}
}

func TestEncodeNaN(t *testing.T) {
	q := Quantizer{Bits: 8, Min: 0, Max: 255}
	if got := q.Encode(math.NaN()); got != 0 {
		t.Errorf("Encode(NaN) = %d, want 0", got)
	}
}

func TestDecodeClampsCode(t *testing.T) {
	q := Quantizer{Bits: 3, Min: 0, Max: 7}
	if got := q.Decode(-5); got != 0 {
		t.Errorf("Decode(-5) = %v, want 0", got)
	}
	if got := q.Decode(99); got != 7 {
		t.Errorf("Decode(99) = %v, want 7", got)
	}
}

func TestFloorPow2(t *testing.T) {
	cases := map[int]int{-3: 0, 0: 0, 1: 1, 2: 2, 3: 2, 4: 4, 5: 4, 7: 4, 8: 8, 15: 8, 16: 16, 127: 64, 128: 128}
	for in, want := range cases {
		if got := FloorPow2(in); got != want {
			t.Errorf("FloorPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFloorPow2Property(t *testing.T) {
	err := quick.Check(func(raw uint16) bool {
		v := int(raw)
		p := FloorPow2(v)
		if v < 1 {
			return p == 0
		}
		// p is a power of two, p <= v < 2p.
		return p&(p-1) == 0 && p <= v && v < 2*p
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClampHelpers(t *testing.T) {
	if ClampInt(5, 0, 3) != 3 || ClampInt(-1, 0, 3) != 0 || ClampInt(2, 0, 3) != 2 {
		t.Error("ClampInt wrong")
	}
}

func TestLevelsAndMaxCode(t *testing.T) {
	q := Quantizer{Bits: 8}
	if q.Levels() != 256 || q.MaxCode() != 255 {
		t.Errorf("Levels/MaxCode = %d/%d, want 256/255", q.Levels(), q.MaxCode())
	}
}

// TestRoundPosMatchesMathRound pins RoundPos to int(math.Round(v)) on the
// positive sub-2^52 domain the sampling pipeline feeds it: adversarial
// boundary values (exact halves, half-ulp neighbors on both sides of every
// kind of boundary, binade crossings) plus a randomized sweep.
func TestRoundPosMatchesMathRound(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := RoundPos(v), int(math.Round(v)); got != want {
			t.Errorf("RoundPos(%.20g) = %d, want %d", v, got, want)
		}
	}
	adversarial := []float64{
		0, 1e-300, 0.25, 0.5, 1, 1.5, 2, 2.5, 3.5, 127.5, 128.5, 255,
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		math.Nextafter(1.5, 0), math.Nextafter(1.5, 2),
		math.Nextafter(2, 0), math.Nextafter(2, 3),
		math.Nextafter(1, 0), math.Nextafter(1, 2),
		1 << 20, float64(1<<20) + 0.5, math.Nextafter(float64(1<<20)+0.5, 0),
		float64(1<<51) - 0.5, math.Nextafter(float64(1<<51)-0.5, 0),
	}
	for _, v := range adversarial {
		check(v)
	}
	if err := quick.Check(func(raw float64) bool {
		v := math.Abs(raw)
		for v >= 1<<52 {
			v /= 1 << 30
		}
		return RoundPos(v) == int(math.Round(v))
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}
