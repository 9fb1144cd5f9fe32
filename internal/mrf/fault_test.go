package mrf

import (
	"context"
	"testing"

	"rsu/internal/core"
	"rsu/internal/fault"
	"rsu/internal/rng"
)

// mkUnits builds n hardware RSU-G samplers on independent streams — the
// fault layer only attaches to hardware units, so the fault tests cannot use
// the software samplers of mkSamplers.
func mkUnits(n int, seed uint64) []core.LabelSampler {
	f := core.StreamFactory(seed, func(src rng.Source) core.LabelSampler {
		return core.MustUnit(core.NewRSUG(), src, true)
	})
	ss := make([]core.LabelSampler, n)
	for i := range ss {
		ss[i] = f(i)
	}
	return ss
}

func mustInjection(t *testing.T, cfg fault.Config) *fault.Injection {
	t.Helper()
	inj, err := fault.New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func labelsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var faultTestSched = Schedule{T0: 4, Alpha: 0.85, Iterations: 20}

// TestFaultZeroRateBitIdentical pins the zero-fault invariant on both solver
// paths: attaching a zero-rate injection must not change a single label
// relative to a run with no injection at all.
func TestFaultZeroRateBitIdentical(t *testing.T) {
	p := twoRegionProblem(12, 8)

	bare, err := solveOne(p, mkUnits(1, 5)[0], faultTestSched, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := solveOne(p, mkUnits(1, 5)[0], faultTestSched, SolveOptions{
		Faults: mustInjection(t, fault.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !labelsEqual(bare.L, faulted.L) {
		t.Error("serial: zero-rate injection changed the labeling")
	}

	pbare, err := solveSamplers(context.Background(), p, mkUnits(4, 5), faultTestSched, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pfaulted, err := solveSamplers(context.Background(), p, mkUnits(4, 5), faultTestSched, SolveOptions{
		Faults: mustInjection(t, fault.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !labelsEqual(pbare.L, pfaulted.L) {
		t.Error("parallel: zero-rate injection changed the labeling")
	}
}

// TestFaultSolveReproducible pins per-seed reproducibility of faulted runs:
// the same (sampler seed, fault seed) pair reproduces the labeling exactly,
// and active injection actually moves the result relative to the clean run.
func TestFaultSolveReproducible(t *testing.T) {
	p := twoRegionProblem(12, 8)
	cfg := fault.Config{DarkCountPerBin: 0.05, BleedThrough: 0.2, Seed: 9}

	run := func() []int {
		lab, err := solveOne(p, mkUnits(1, 5)[0], faultTestSched, SolveOptions{
			Faults: mustInjection(t, cfg),
		})
		if err != nil {
			t.Fatal(err)
		}
		return lab.L
	}
	a, b := run(), run()
	if !labelsEqual(a, b) {
		t.Error("identical faulted runs diverged")
	}

	clean, err := solveOne(p, mkUnits(1, 5)[0], faultTestSched, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if labelsEqual(a, clean.L) {
		t.Error("heavy fault injection left the labeling untouched (injection not reaching the sampler?)")
	}
}

// TestFaultExecutorInvariance pins the executor bit-invariance guarantee
// with faults enabled: tile w hosts fault stream w regardless of how many
// executor goroutines schedule the tiles, so the labeling is byte-identical
// at every executor count.
func TestFaultExecutorInvariance(t *testing.T) {
	p := twoRegionProblem(16, 12)
	cfg := fault.Config{DarkCountPerBin: 0.02, BleedThrough: 0.1, Drift: 0.001, Seed: 3}

	var want []int
	for _, execs := range []int{1, 2, 4} {
		lab, err := solveSamplers(context.Background(), p, mkUnits(4, 7), faultTestSched, SolveOptions{
			executors: execs,
			Faults:    mustInjection(t, cfg),
		})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = lab.L
			continue
		}
		if !labelsEqual(want, lab.L) {
			t.Errorf("faulted labeling at %d executors differs from 1 executor", execs)
		}
	}
}

// TestFaultDetached: the solver owns the attachment lifetime — after a solve
// returns, the caller's samplers must no longer carry an injector.
func TestFaultDetached(t *testing.T) {
	type faultGetter interface{ FaultInjector() core.FaultInjector }
	p := twoRegionProblem(12, 8)

	serial := mkUnits(1, 5)
	if _, err := solveOne(p, serial[0], faultTestSched, SolveOptions{
		Faults: mustInjection(t, fault.Config{DarkCountPerBin: 0.01}),
	}); err != nil {
		t.Fatal(err)
	}
	if fi := serial[0].(faultGetter).FaultInjector(); fi != nil {
		t.Error("serial solve left the injector attached")
	}

	units := mkUnits(4, 5)
	if _, err := solveSamplers(context.Background(), p, units, faultTestSched, SolveOptions{
		Faults: mustInjection(t, fault.Config{DarkCountPerBin: 0.01}),
	}); err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		if fi := u.(faultGetter).FaultInjector(); fi != nil {
			t.Errorf("parallel solve left the injector attached on sampler %d", i)
		}
	}
}
