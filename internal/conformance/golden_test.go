package conformance

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/uq"
)

var updateGolden = flag.Bool("update-golden", false,
	"regenerate the golden trace files instead of comparing against them")

const goldenDir = "testdata/golden"

// TestGoldenTraces runs the trace-gate table rsu-verify runs, one subtest
// per gate: every case must reproduce its reference trace byte for byte. Run
// with -update-golden after an intentional behavior change and review the
// diff.
func TestGoldenTraces(t *testing.T) {
	if *updateGolden {
		if err := UpdateGolden(goldenDir); err != nil {
			t.Fatal(err)
		}
		t.Log("golden traces regenerated")
	}
	for _, g := range Gates() {
		t.Run(g.Name, func(t *testing.T) {
			for _, err := range g.Verify(goldenDir) {
				t.Error(err)
			}
		})
	}
}

// TestGoldenDeterminism runs each scenario twice and demands identical bytes:
// the fixed-(seed, workers) bit-reproducibility guarantee the golden files
// rest on. Without it a drifted golden would be indistinguishable from a
// flaky solver.
func TestGoldenDeterminism(t *testing.T) {
	for _, s := range []Scenario{{App: "ising", Workers: 1}, {App: "stereo", Workers: 4}} {
		a, err := s.Run(mrf.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Run(mrf.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ea, eb := a.Encode(), b.Encode()
		if !bytes.Equal(ea, eb) {
			t.Errorf("%s: two runs diverge at byte %d", s.File(), firstDiff(ea, eb))
		}
	}
}

// TestGoldenSerialMatchesOneWorker pins that the workers=1 golden is exactly
// what a caller with one prebuilt sampler gets (a factory returning it, at
// Workers 1), so the single-sampler path is covered by the same file.
func TestGoldenSerialMatchesOneWorker(t *testing.T) {
	s := Scenario{App: "segment", Workers: 1}
	auto, err := s.Run(mrf.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	prob, sched, init, err := goldenProblem(s.App)
	if err != nil {
		t.Fatal(err)
	}
	serial := &Trace{App: s.App, Workers: 1}
	sampler := goldenFactory(0)
	one := func(int) core.LabelSampler { return sampler }
	lab, err := mrf.Solve(context.Background(), prob, one, sched, mrf.SolveOptions{
		Init:    init,
		Workers: 1,
		OnSweep: func(iter int, lab *img.Labels, st mrf.SolveStats) {
			serial.Energy = append(serial.Energy, prob.TotalEnergy(lab))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	serial.Labels = lab

	ea, eb := auto.Encode(), serial.Encode()
	if !bytes.Equal(ea, eb) {
		t.Fatalf("the w1 golden run diverges from a single-sampler solve at byte %d", firstDiff(ea, eb))
	}
}

// TestGoldenTracesWithCollector re-runs every golden scenario with a live
// uq.Accumulator attached and demands the trace still matches the checked-in
// bytes — the Collector trace-neutrality contract (observation only, no RNG
// consumption) verified against all 12 scenarios, both engines, every worker
// count. It also checks that collection actually happened.
func TestGoldenTracesWithCollector(t *testing.T) {
	g := Gate{Name: "golden (collector)", Cases: Scenarios(), want: ownGolden,
		run: solo(func(s Scenario) (*Trace, error) {
			prob, sched, _, err := goldenProblem(s.App)
			if err != nil {
				return nil, err
			}
			acc, err := uq.NewAccumulator(prob.W, prob.H, prob.Labels, uq.Options{BurnIn: 0, Thin: 1})
			if err != nil {
				return nil, err
			}
			tr, err := s.Run(mrf.SolveOptions{Collector: acc})
			if err == nil && acc.Samples() != sched.Iterations {
				err = fmt.Errorf("%s: collected %d samples, want %d", s, acc.Samples(), sched.Iterations)
			}
			return tr, err
		})}
	for _, err := range g.Verify(goldenDir) {
		t.Error(err)
	}
}

// TestGoldenFilesPresent enumerates the checked-in matrix so a deleted file
// fails loudly even if the gates' error wording changes.
func TestGoldenFilesPresent(t *testing.T) {
	for _, s := range Scenarios() {
		if _, err := os.Stat(filepath.Join(goldenDir, s.File())); err != nil {
			t.Errorf("golden file missing: %v", err)
		}
	}
	if n := len(Scenarios()); n != 12 {
		t.Errorf("golden matrix has %d scenarios, want 12 (4 apps x 3 worker counts)", n)
	}
}
