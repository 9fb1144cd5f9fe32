package hw

import (
	"math"
	"testing"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestTableIIINewRSUGBreakdown(t *testing.T) {
	d := NewRSUGDesign()
	ret := d.Group("ret/")
	cmos := d.Group("cmos/")
	lut := d.Group("lut/")
	approx(t, "RET circuit area", ret.AreaUm2, 1120, 0.5)
	approx(t, "RET circuit power", ret.PowerMW, 0.08, 0.005)
	approx(t, "CMOS area", cmos.AreaUm2, 1128, 0.5)
	approx(t, "CMOS power", cmos.PowerMW, 3.49, 0.005)
	approx(t, "LUT area", lut.AreaUm2, 655, 0.5)
	approx(t, "LUT power", lut.PowerMW, 1.42, 0.005)
	total := d.Total()
	approx(t, "RSU total area", total.AreaUm2, 2903, 0.5)
	approx(t, "RSU total power", total.PowerMW, 4.99, 0.01)
}

func TestPrevRSUGTotals(t *testing.T) {
	d := PrevRSUGDesign()
	total := d.Total()
	// Paper Sec. II-C: 0.0029 mm^2, 3.91 mW.
	approx(t, "prev total area", total.AreaUm2, 2900, 1)
	approx(t, "prev total power", total.PowerMW, 3.91, 0.01)
}

func TestNewVsPrevRatios(t *testing.T) {
	nu := NewRSUGDesign().Total()
	pv := PrevRSUGDesign().Total()
	// Paper: 1.27x power at equivalent area.
	approx(t, "power ratio", nu.PowerMW/pv.PowerMW, 1.27, 0.01)
	approx(t, "area ratio", nu.AreaUm2/pv.AreaUm2, 1.0, 0.01)
}

func TestSingleRETCircuitRatios(t *testing.T) {
	// Paper Sec. IV-C: the new RET circuit alone is 0.7x area and 0.5x
	// power of the previous design's.
	nu := NewRSUGDesign().Group("ret/")
	pv := PrevRSUGDesign().Group("ret/")
	approx(t, "RET area ratio", nu.AreaUm2/pv.AreaUm2, 0.7, 0.01)
	approx(t, "RET power ratio", nu.PowerMW/pv.PowerMW, 0.5, 0.01)
}

func TestTableIVRSUGVariants(t *testing.T) {
	approx(t, "RSUG_noshare", RSUGArea(1), 2903, 0.5)
	approx(t, "RSUG_4share", RSUGArea(4), 2303, 0.5)
	approx(t, "RSUG_optimistic", RSUGOptimisticArea(), 1867, 0.5)
}

func TestTableIVRNGAlternatives(t *testing.T) {
	mt := MT19937Alt()
	for _, c := range []struct {
		share int
		want  float64
	}{{1, 19269}, {4, 6507}, {208, 2336}} {
		got, err := mt.AreaPerUnit(c.share)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "mt19937 area", got, c.want, 2)
	}
	lf, err := LFSR19Alt().AreaPerUnit(1)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "lfsr19 area", lf, 2186, 0.5)
	dr, err := IntelDRNGAlt().AreaPerUnit(1)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "intel drng area", dr, 3721, 0.5)
}

func TestRNGShareLimits(t *testing.T) {
	if _, err := IntelDRNGAlt().AreaPerUnit(2); err == nil {
		t.Error("DRNG cannot be shared (throughput limit)")
	}
	if _, err := MT19937Alt().AreaPerUnit(209); err == nil {
		t.Error("mt19937 sharing bounded at 208")
	}
	if _, err := MT19937Alt().AreaPerUnit(0); err == nil {
		t.Error("share 0 must error")
	}
}

func TestConverterMemoryMatchesCore(t *testing.T) {
	// The design's CMOS boundary-converter block is the comparison-based
	// converter (Sec. IV-B-3), not the LUT realization it replaces.
	d := NewRSUGDesign()
	if bc := d.Group("cmos/boundary-converter"); bc != (AreaPower{60, 0.12}) {
		t.Errorf("design converter %+v, want the comparison converter {60 0.12}", bc)
	}
}

func TestAreaPowerArithmetic(t *testing.T) {
	a := AreaPower{10, 1}.Add(AreaPower{5, 0.5})
	if a.AreaUm2 != 15 || a.PowerMW != 1.5 {
		t.Errorf("Add wrong: %+v", a)
	}
	s := AreaPower{10, 1}.Scale(3)
	if s.AreaUm2 != 30 || s.PowerMW != 3 {
		t.Errorf("Scale wrong: %+v", s)
	}
}

func TestEntropyPowerClaim(t *testing.T) {
	// Sec. II-C: RSU-G consumes ~13% of Intel DRNG power in similar area.
	pv := PrevRSUGDesign().Total()
	ratio := pv.PowerMW / IntelDRNGPowerMW
	if ratio < 0.10 || ratio > 0.16 {
		t.Errorf("power ratio vs DRNG = %v, want ~0.13", ratio)
	}
}

func TestRSUGAreaPanicsOnBadShare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for share 0")
		}
	}()
	RSUGArea(0)
}

func TestShareableAreaIsOptical(t *testing.T) {
	d := NewRSUGDesign()
	if got := d.ShareableArea(); got != 800 {
		t.Errorf("shareable area = %v, want 800 (QDLEDs + waveguides)", got)
	}
}
