package conformance

import (
	"math"
	"testing"
)

// TestExactDistMass checks the enumeration engine conserves probability
// through every sweep operator, for both site orders on every default grid
// and configuration.
func TestExactDistMass(t *testing.T) {
	for _, g := range DefaultMarginalGrids() {
		for _, pt := range DefaultMarginalPoints() {
			for _, checker := range []bool{false, true} {
				d, err := exactDist(g, pt.Config, g.T, g.siteOrder(checker))
				if err != nil {
					t.Fatalf("%s/%s: %v", g.Name, pt.Name, err)
				}
				var mass float64
				for _, p := range d {
					mass += p
				}
				if math.Abs(mass-1) > 1e-9 {
					t.Errorf("%s/%s checker=%v: mass %g", g.Name, pt.Name, checker, mass)
				}
			}
		}
	}
}

// TestSiteOrders pins the update orders the engine models: the serial
// solver's raster scan and the parallel solver's color-0-then-color-1 order.
func TestSiteOrders(t *testing.T) {
	grids := DefaultMarginalGrids()
	g12, g22 := grids[0], grids[1]
	check := func(name string, got, want []int) {
		if len(got) != len(want) {
			t.Fatalf("%s: got %v want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: got %v want %v", name, got, want)
			}
		}
	}
	check("1x2 raster", g12.siteOrder(false), []int{0, 1})
	check("1x2 checker", g12.siteOrder(true), []int{0, 1})
	check("2x2 raster", g22.siteOrder(false), []int{0, 1, 2, 3})
	check("2x2 checker", g22.siteOrder(true), []int{0, 3, 1, 2})
}

// TestMarginalBatteryConformance is the statistical gate: uq marginal
// estimates from real solver runs must match exact enumeration on every
// (grid, kernel path, tie policy, solver) cell. Reduced replicate count in
// -short mode keeps the per-commit run fast; cmd/rsu-verify runs the full
// battery.
func TestMarginalBatteryConformance(t *testing.T) {
	o := MarginalOptions{Replicates: 2000, Seed: 2026}
	if testing.Short() {
		o.Replicates = 600
	}
	rep, err := RunMarginalBattery(DefaultMarginalGrids(), DefaultMarginalPoints(), o)
	if err != nil {
		t.Fatal(err)
	}
	wantPaths := []string{"binned-codes", "binned-float", "continuous", "quantized"}
	got := rep.Paths()
	if len(got) != len(wantPaths) {
		t.Fatalf("covered kernel paths %v, want %v", got, wantPaths)
	}
	for i := range wantPaths {
		if got[i] != wantPaths[i] {
			t.Fatalf("covered kernel paths %v, want %v", got, wantPaths)
		}
	}
	for _, f := range rep.Failures() {
		t.Errorf("non-conformant: %s p=%g < %g (n=%d)",
			f.Name, f.P, rep.Threshold, f.N)
	}
	t.Logf("%d checks, min p %.4g, threshold %.4g", len(rep.Checks), rep.MinP(), rep.Threshold)
}
