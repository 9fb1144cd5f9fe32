package uq_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/stats"
	"rsu/internal/uq"
)

// testProblem is a small 3-label MRF whose posterior is genuinely spread at
// the test temperature, so marginals exercise more than point masses.
func testProblem(w, h int) *mrf.Problem {
	return &mrf.Problem{
		W: w, H: h, Labels: 3,
		Singleton: func(x, y, l int) float64 {
			return float64((x*7+y*3+l*5)%13) + float64(l)
		},
		PairWeight: 3,
		Dist:       mrf.Absolute,
	}
}

func factory(seed uint64) func(int) core.LabelSampler {
	return core.StreamFactory(seed, func(src rng.Source) core.LabelSampler {
		return core.MustUnit(core.NewRSUG(), src, true)
	})
}

// solveWithUQ runs one solve with collection and returns the estimates.
func solveWithUQ(t *testing.T, w, h, workers int, seed uint64, o uq.Options) *uq.Result {
	t.Helper()
	prob := testProblem(w, h)
	sched := mrf.Schedule{T0: 8, Alpha: 1, Iterations: 40}
	acc, err := uq.NewForRun(o, prob.W, prob.H, prob.Labels, sched.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	_, err = mrf.SolveAuto(prob, factory(seed), sched, mrf.SolveOptions{
		Workers: workers, Collector: acc,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := acc.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMarginalsSumToOne: every pixel's marginal row is a probability
// distribution, across serial and parallel solves.
func TestMarginalsSumToOne(t *testing.T) {
	for _, workers := range []int{1, 3} {
		res := solveWithUQ(t, 9, 5, workers, 1, uq.Options{BurnIn: 10})
		for y := 0; y < res.H; y++ {
			for x := 0; x < res.W; x++ {
				var sum float64
				for _, p := range res.Marginal(x, y) {
					if p < 0 {
						t.Fatalf("workers=%d pixel (%d,%d): negative marginal %g", workers, x, y, p)
					}
					sum += p
				}
				if math.Abs(sum-1) > 1e-12 {
					t.Fatalf("workers=%d pixel (%d,%d): marginal mass %g", workers, x, y, sum)
				}
			}
		}
		if res.Samples != 30 {
			t.Fatalf("workers=%d: %d samples, want 30", workers, res.Samples)
		}
	}
}

// TestDeterministicPerSeed: identical (seed, workers) runs produce identical
// marginals; a different seed produces different ones.
func TestDeterministicPerSeed(t *testing.T) {
	a := solveWithUQ(t, 8, 6, 2, 7, uq.Options{BurnIn: 8})
	b := solveWithUQ(t, 8, 6, 2, 7, uq.Options{BurnIn: 8})
	c := solveWithUQ(t, 8, 6, 2, 8, uq.Options{BurnIn: 8})
	if len(a.Marginals) != len(b.Marginals) {
		t.Fatal("marginal shapes differ")
	}
	diffSeed := false
	for i := range a.Marginals {
		if a.Marginals[i] != b.Marginals[i] {
			t.Fatalf("same seed diverges at marginal %d: %g vs %g", i, a.Marginals[i], b.Marginals[i])
		}
		if a.Marginals[i] != c.Marginals[i] {
			diffSeed = true
		}
	}
	if !diffSeed {
		t.Fatal("different seeds produced identical marginals — collection is not seeing the solve")
	}
}

// TestExecutorInvariance: executor goroutines only schedule the tiles, so
// any GOMAXPROCS — and with it the default executor count — yields
// bit-identical histograms at a fixed worker count.
func TestExecutorInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := solveWithUQ(t, 10, 4, 4, 3, uq.Options{BurnIn: 5})
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		got := solveWithUQ(t, 10, 4, 4, 3, uq.Options{BurnIn: 5})
		for i := range base.Marginals {
			if base.Marginals[i] != got.Marginals[i] {
				t.Fatalf("GOMAXPROCS=%d diverges at marginal index %d", procs, i)
			}
		}
	}
}

// TestWorkerConsistency: different worker counts run different RNG streams
// and site orders, so their marginals cannot be bit-identical — but both
// sample the same stationary Gibbs distribution. Pool one near-stationary
// sample from each of R replicate chains per worker count and two-sample
// chi-square the per-pixel histograms; with fixed seeds the test is fully
// deterministic.
func TestWorkerConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated chains are slow in -short mode")
	}
	const (
		w, h       = 3, 2
		sweeps     = 60
		replicates = 700
	)
	prob := testProblem(w, h)
	sched := mrf.Schedule{T0: 8, Alpha: 1, Iterations: sweeps}
	collect := func(workers int, seed uint64) *uq.Accumulator {
		acc, err := uq.NewAccumulator(w, h, prob.Labels, uq.Options{BurnIn: sweeps - 1, Thin: 1})
		if err != nil {
			t.Fatal(err)
		}
		// One sampler per stream, reused across replicates so consecutive
		// chains continue the same streams.
		f := factory(seed)
		samplers := make([]core.LabelSampler, workers)
		for i := range samplers {
			samplers[i] = f(i)
		}
		reuse := func(i int) core.LabelSampler { return samplers[i] }
		for r := 0; r < replicates; r++ {
			if _, err := mrf.SolveAuto(prob, reuse, sched, mrf.SolveOptions{Workers: workers, Collector: acc}); err != nil {
				t.Fatal(err)
			}
		}
		return acc
	}
	serial := collect(1, 11)
	parallel := collect(2, 12)
	// Bonferroni across the w*h pixel tests at a 1e-6 budget: astronomically
	// unlikely to trip when both chains share the stationary law.
	threshold := 1e-6 / float64(w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			a := histFloats(serial.Histogram(x, y))
			b := histFloats(parallel.Histogram(x, y))
			res, err := stats.ChiSquareTwoSample(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if res.PValue < threshold {
				t.Errorf("pixel (%d,%d): workers 1 vs 2 marginals inconsistent, p=%g", x, y, res.PValue)
			}
		}
	}
}

func histFloats(h []uint32) []float64 {
	out := make([]float64, len(h))
	for i, c := range h {
		out[i] = float64(c)
	}
	return out
}

// TestOptionsResolve pins the burn-in/thin defaulting rules.
func TestOptionsResolve(t *testing.T) {
	if _, err := (uq.Options{}).Resolve(0); err == nil {
		t.Error("Resolve(0 sweeps): want error")
	}
	if _, err := (uq.Options{BurnIn: 10}).Resolve(10); err == nil {
		t.Error("burn-in == iterations: want error")
	}
	o, err := (uq.Options{BurnIn: -1, Thin: 0}).Resolve(100)
	if err != nil {
		t.Fatal(err)
	}
	if o.BurnIn != 50 || o.Thin != 1 {
		t.Errorf("Resolve(-1, 0) = %+v, want {50 1}", o)
	}
	o, err = (uq.Options{BurnIn: 3, Thin: 4}).Resolve(100)
	if err != nil || o.BurnIn != 3 || o.Thin != 4 {
		t.Errorf("Resolve(3, 4) = %+v, %v", o, err)
	}
}

// TestAccumulatorPolicy drives Collect directly and checks the burn-in and
// thinning arithmetic plus the shape guards.
func TestAccumulatorPolicy(t *testing.T) {
	if _, err := uq.NewAccumulator(0, 1, 3, uq.Options{}); err == nil {
		t.Error("zero width: want error")
	}
	if _, err := uq.NewAccumulator(2, 2, 1, uq.Options{}); err == nil {
		t.Error("single label: want error")
	}
	if _, err := uq.NewAccumulator(2, 2, 3, uq.Options{BurnIn: -1}); err == nil {
		t.Error("unresolved negative burn-in: want error")
	}
	acc, err := uq.NewAccumulator(2, 1, 3, uq.Options{BurnIn: 4, Thin: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Estimate(); err == nil {
		t.Error("Estimate with zero samples: want error")
	}
	lab := img.NewLabels(2, 1)
	lab.L[0], lab.L[1] = 1, 2
	for sweep := 0; sweep < 12; sweep++ {
		acc.Collect(sweep, lab)
	}
	// Collected sweeps: 4, 7, 10.
	if acc.Samples() != 3 {
		t.Fatalf("collected %d samples, want 3", acc.Samples())
	}
	if h := acc.Histogram(0, 0); h[1] != 3 || h[0] != 0 || h[2] != 0 {
		t.Errorf("pixel 0 histogram %v, want [0 3 0]", h)
	}
	if h := acc.Histogram(1, 0); h[2] != 3 {
		t.Errorf("pixel 1 histogram %v, want [0 0 3]", h)
	}
	defer func() {
		if recover() == nil {
			t.Error("Collect with mismatched labeling: want panic")
		}
	}()
	acc.Collect(4, img.NewLabels(3, 3))
}

// TestEstimatorMath checks Mode, Entropy, Confidence, CredibleSet and
// Disagreement on a hand-built histogram.
func TestEstimatorMath(t *testing.T) {
	acc, err := uq.NewAccumulator(2, 1, 4, uq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lab := img.NewLabels(2, 1)
	seq := [][2]int{{0, 3}, {0, 3}, {1, 3}, {2, 3}} // pixel0: 2x l0, 1x l1, 1x l2; pixel1: 4x l3
	for sweep, s := range seq {
		lab.L[0], lab.L[1] = s[0], s[1]
		acc.Collect(sweep, lab)
	}
	res, err := acc.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Marginal(0, 0); m[0] != 0.5 || m[1] != 0.25 || m[2] != 0.25 || m[3] != 0 {
		t.Errorf("pixel 0 marginal %v", m)
	}
	if mode := res.Mode(); mode.L[0] != 0 || mode.L[1] != 3 {
		t.Errorf("mode %v, want [0 3]", mode.L)
	}
	ent := res.Entropy()
	if math.Abs(ent[0]-1.5) > 1e-12 { // -0.5 lg 0.5 - 2*0.25 lg 0.25
		t.Errorf("pixel 0 entropy %g, want 1.5", ent[0])
	}
	if ent[1] != 0 {
		t.Errorf("pixel 1 entropy %g, want 0", ent[1])
	}
	conf := res.Confidence()
	if conf[0] != 0.5 || conf[1] != 1 {
		t.Errorf("confidence %v, want [0.5 1]", conf)
	}
	if cs := res.CredibleSet(0, 0, 0.9); len(cs) != 3 || cs[0] != 0 {
		t.Errorf("credible set %v, want [0 1 2] (any order after head)", cs)
	}
	if cs := res.CredibleSet(1, 0, 0.9); len(cs) != 1 || cs[0] != 3 {
		t.Errorf("credible set %v, want [3]", cs)
	}
	point := img.NewLabels(2, 1)
	point.L[0], point.L[1] = 1, 3
	n, mask, err := res.Disagreement(point)
	if err != nil || n != 1 || mask.L[0] != 1 || mask.L[1] != 0 {
		t.Errorf("disagreement n=%d mask=%v err=%v, want 1 [1 0]", n, mask.L, err)
	}
	if _, _, err := res.Disagreement(img.NewLabels(5, 5)); err == nil {
		t.Error("mismatched point estimate: want error")
	}
	sum, err := res.Summarize(point)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Samples != 4 || sum.DisagreementPct != 50 || sum.MinConfidence != 0.5 {
		t.Errorf("summary %+v", sum)
	}
	if math.Abs(sum.MeanEntropyBits-0.75) > 1e-12 || math.Abs(sum.Credible90MeanSize-2) > 1e-12 {
		t.Errorf("summary %+v", sum)
	}
}

// TestWriteArtifacts checks the CLI output contract: two PGMs plus a JSON
// summary that round-trips.
func TestWriteArtifacts(t *testing.T) {
	res := solveWithUQ(t, 6, 4, 1, 5, uq.Options{BurnIn: 20})
	dir := t.TempDir()
	paths, err := res.WriteArtifacts(dir, "probe", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("wrote %d artifacts, want 3: %v", len(paths), paths)
	}
	for _, name := range []string{"probe_confidence.pgm", "probe_entropy.pgm", "probe_uq.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact: %v", err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "probe_uq.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sum uq.Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("summary JSON does not parse: %v", err)
	}
	if sum.Samples != 20 || sum.MeanConfidence <= 0 || sum.MeanConfidence > 1 {
		t.Errorf("summary %+v", sum)
	}
}

// TestNewForRun covers the driver-facing constructor's error paths.
func TestNewForRun(t *testing.T) {
	if _, err := uq.NewForRun(uq.Options{BurnIn: 50}, 4, 4, 3, 40); err == nil {
		t.Error("burn-in past the run: want error")
	}
	acc, err := uq.NewForRun(uq.Options{BurnIn: -1}, 4, 4, 3, 40)
	if err != nil || acc == nil {
		t.Fatalf("NewForRun: %v", err)
	}
}

// TestCollectZeroAlloc pins the hot-loop contract: Collect performs zero
// allocations per sweep, on both the collecting path and the burn-in /
// thinning early-return path.
func TestCollectZeroAlloc(t *testing.T) {
	lab := img.NewLabels(64, 48)
	collecting, err := uq.NewAccumulator(64, 48, 8, uq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { collecting.Collect(0, lab) }); n != 0 {
		t.Errorf("Collect allocates %v per collected sweep", n)
	}
	skipping, err := uq.NewAccumulator(64, 48, 8, uq.Options{BurnIn: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { skipping.Collect(0, lab) }); n != 0 {
		t.Errorf("Collect allocates %v per skipped sweep", n)
	}
}

// TestEntropyGrayNormalization: a uniform posterior renders as 255, a
// deterministic one as 0.
func TestEntropyGrayNormalization(t *testing.T) {
	acc, err := uq.NewAccumulator(2, 1, 2, uq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lab := img.NewLabels(2, 1)
	lab.L[0] = 0
	lab.L[1] = 1
	acc.Collect(0, lab)
	lab.L[0] = 1
	acc.Collect(1, lab)
	res, err := acc.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	g := res.EntropyGray()
	if g.Pix[0] != 255 || g.Pix[1] != 0 {
		t.Errorf("entropy gray %v, want [255 0]", g.Pix)
	}
	c := res.ConfidenceGray()
	if c.Pix[0] != 127.5 || c.Pix[1] != 255 {
		t.Errorf("confidence gray %v, want [127.5 255]", c.Pix)
	}
}
