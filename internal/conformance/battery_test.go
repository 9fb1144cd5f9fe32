package conformance

import (
	"testing"

	"rsu/internal/core"
	"rsu/internal/rng"
)

// TestBatteryConformance is the distribution gate: every kernel path at
// every design point must match its analytic distribution within the
// Bonferroni-corrected chi-square budget.
func TestBatteryConformance(t *testing.T) {
	points := DefaultBattery()
	rep, err := RunBattery(points, BatteryOptions{Samples: 20000, Alpha: 1e-3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * len(points); len(rep.Checks) != want {
		t.Fatalf("ran %d checks, want %d", len(rep.Checks), want)
	}
	for _, f := range rep.Failures() {
		t.Errorf("%s (%s): p = %.3g below threshold %.3g",
			f.Name, f.Path, f.P, rep.Threshold)
	}
	t.Logf("battery: %d checks over paths %v, min p = %.4g (threshold %.3g)",
		len(rep.Checks), rep.Paths(), rep.MinP(), rep.Threshold)
}

// TestBatteryRejectsWrongDistribution is the battery's power check: testing
// real samples against a deliberately tilted expectation must reject,
// proving the gate can actually fail when a kernel's distribution is wrong.
func TestBatteryRejectsWrongDistribution(t *testing.T) {
	pt := DefaultBattery()[0] // new-rsug
	energies := pt.Energies[0]
	want, err := ExpectedOutcome(pt.Config, pt.T, energies)
	if err != nil {
		t.Fatal(err)
	}
	wrong := Outcome{Win: append([]float64(nil), want.Win...), Keep: want.Keep}
	wrong.Win[0], wrong.Win[1] = want.Win[1], want.Win[0]

	const n = 20000
	u := core.MustUnit(pt.Config, rng.NewXoshiro256(3), true)
	core.MustSetTemperature(u, pt.T)
	obs := make([]float64, len(energies)+1)
	for i := 0; i < n; i++ {
		obs[cell(core.MustSample(u, energies, -1), len(energies))]++
	}

	if p, ok := conformanceP(obs, want, n); !ok || p < 1e-3 {
		t.Fatalf("honest expectation rejected: p = %v (ok %v)", p, ok)
	}
	p, ok := conformanceP(obs, wrong, n)
	if !ok {
		t.Fatal("tilted test degenerated")
	}
	if p > 1e-6 {
		t.Fatalf("tilted expectation not rejected: p = %v", p)
	}
}
