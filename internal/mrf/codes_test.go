package mrf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rsu/internal/core"
	"rsu/internal/fault"
	"rsu/internal/img"
	"rsu/internal/quant"
	"rsu/internal/rng"
)

// stepOneQuantizers are the step-1 energy quantizers the code form serves:
// the paper's 8-bit stage and a narrower one that saturates below 255.
var stepOneQuantizers = []quant.Quantizer{{Bits: 8, Max: 255}, {Bits: 4, Max: 15}}

// codeTestSingle draws one single for the code-form property test: 0, 255
// and above, +Inf, an exact tie k+½, a value just past codeMargin from a
// tie on either side, a value within ±4 ulps of a tie (which must reject
// the problem), or a uniform value in [0, 300).
func codeTestSingle(r *rand.Rand, nearTies bool) float64 {
	k := float64(r.Intn(255))
	switch r.Intn(9) {
	case 0:
		return 0
	case 1:
		return 255
	case 2:
		return 255 + float64(r.Intn(200)) + r.Float64()
	case 3:
		return math.Inf(1)
	case 4:
		return k + 0.5
	case 5:
		past := codeMargin + math.Ldexp(float64(1+r.Intn(4)), -45)
		if r.Intn(2) == 0 {
			return k + 0.5 - past
		}
		return k + 0.5 + past
	case 6:
		if nearTies {
			v := k + 0.5
			for n := 1 + r.Intn(4); n > 0; n-- {
				v = math.Nextafter(v, math.Inf(2*r.Intn(2)-1))
			}
			return v
		}
	}
	return r.Float64() * 300
}

// codeTestProblem draws a problem for the code-form tests: an integer pair
// LUT of a random distance kind with entries up to 255 (a Potts, a
// truncated linear or a truncated quadratic term), and singles from
// codeTestSingle, stored in raster order.
func codeTestProblem(r *rand.Rand, nearTies bool) *Problem {
	w, h, labels := 1+r.Intn(9), 1+r.Intn(6), 2+r.Intn(12)
	if r.Intn(4) == 0 {
		labels = 56 // stereo's label count, past the gather's unroll
	}
	singles := make([]float64, w*h*labels)
	for i := range singles {
		singles[i] = codeTestSingle(r, nearTies)
	}
	p := &Problem{
		W: w, H: h, Labels: labels,
		Singleton: func(x, y, l int) float64 { return singles[(y*w+x)*labels+l] },
		Dist:      DistanceKind(r.Intn(3)),
	}
	switch p.Dist {
	case Binary:
		p.PairWeight = float64(r.Intn(64))
	case Absolute:
		p.PairWeight, p.TruncateDist = float64(1+r.Intn(8)), float64(1+r.Intn(31))
	case Squared:
		p.PairWeight, p.TruncateDist = float64(1+r.Intn(5)), float64(1+r.Intn(50))
	}
	return p
}

// TestCodeFormGathersEncodeLikeFloat is the code form's exactness property:
// on random qualifying problems every slot of every code-form gather, and
// every slot minimum, encodes under each step-1 quantizer to the code of
// the float form's slot. Every row is gathered at steps 1 and 2 from every
// start, so top, bottom and interior rows, both edge columns and the
// per-pixel path all run. A problem holding a single within 4 ulps of a
// tie must have no code form.
func TestCodeFormGathersEncodeLikeFloat(t *testing.T) {
	const seed = 2714
	t.Logf("problem seed %d", seed)
	r := rand.New(rand.NewSource(seed))
	checked := 0
	for trial := 0; trial < 120; trial++ {
		p := codeTestProblem(r, trial%4 == 3)
		tab := p.BuildTables()
		codes := tab.CodeSingles()
		nearTie := false
		for i := range p.W * p.H * p.Labels {
			if _, ok := singleCode(p.Singleton(i/p.Labels%p.W, i/p.Labels/p.W, i%p.Labels)); !ok {
				nearTie = true
			}
		}
		if nearTie {
			if codes != nil {
				t.Fatalf("trial %d: a problem with a single near a tie got a code form", trial)
			}
			continue
		}
		if codes == nil {
			t.Fatalf("trial %d: a qualifying problem (%v, weight %v) got no code form", trial, p.Dist, p.PairWeight)
		}
		checked++
		fg, cg := tab.floatGather(), gather[uint8]{t: tab, s: codes}
		lab := randomLabeling(r, p.W, p.H, p.Labels)
		L := p.Labels
		for y := 0; y < p.H; y++ {
			for step := 1; step <= 2; step++ {
				for x0 := 0; x0 < p.W; x0++ {
					n := (p.W-1-x0)/step + 1
					want, got, seg := make([]float64, n*L), make([]float64, n*L), make([]float64, n*L)
					wmins, gmins := make([]float64, n), make([]float64, n)
					fg.labelEnergiesSegMin(want, wmins, lab, y, x0, step, n)
					cg.labelEnergiesSegMin(got, gmins, lab, y, x0, step, n)
					cg.labelEnergiesSeg(seg, lab, y, x0, step, n)
					for _, q := range stepOneQuantizers {
						for i := range want {
							if g, s, w := q.Encode(got[i]), q.Encode(seg[i]), q.Encode(want[i]); g != w || s != w {
								t.Fatalf("trial %d %d-bit y %d x0 %d step %d: slot %d label %d codes %d (min gather) %d (gather), float %v codes %d",
									trial, q.Bits, y, x0, step, i/L, i%L, g, s, want[i], w)
							}
						}
						for i := range wmins {
							if g, w := q.Encode(gmins[i]), q.Encode(wmins[i]); g != w {
								t.Fatalf("trial %d %d-bit y %d x0 %d step %d: slot %d minimum code %d, float %v codes %d",
									trial, q.Bits, y, x0, step, i, g, wmins[i], w)
							}
						}
					}
				}
			}
		}
	}
	if checked < 60 {
		t.Fatalf("only %d of 120 problems qualified", checked)
	}
}

// unitMethods is what a hardware sampler offers the engine and the fault
// layer, less its Config method.
type unitMethods interface {
	core.MinBatchSampler
	core.FaultInjectable
}

// hideConfig hides a Unit's Config method, so a solve with it takes the
// float form: the solve every earlier version of the engine ran.
type hideConfig struct{ unitMethods }

func floatFormFactory(f func(int) core.LabelSampler) func(int) core.LabelSampler {
	return func(i int) core.LabelSampler { return hideConfig{f(i).(*core.Unit)} }
}

// sweepEnergies solves p with opts and returns the labels and the OnSweep
// energy and flip stream.
func sweepEnergies(t *testing.T, p *Problem, factory func(int) core.LabelSampler, opts SolveOptions) (*img.Labels, []SolveStats) {
	t.Helper()
	var recs []SolveStats
	opts.OnSweep = func(_ int, _ *img.Labels, st SolveStats) {
		st.Elapsed = 0
		recs = append(recs, st)
	}
	lab, err := Solve(context.Background(), p, factory, Schedule{T0: 24, Alpha: 0.8, Iterations: 8}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return lab, recs
}

// checkSameSolve fails unless two solves left the same labels and the same
// OnSweep stream, energies bit for bit.
func checkSameSolve(t *testing.T, what string, lab, want *img.Labels, recs, wantRecs []SolveStats) {
	t.Helper()
	if !labelsEqual(lab.L, want.L) {
		t.Fatalf("%s: labels differ from the float-form solve", what)
	}
	if len(recs) != len(wantRecs) {
		t.Fatalf("%s: %d sweeps recorded, float form %d", what, len(recs), len(wantRecs))
	}
	for i := range recs {
		got, want := recs[i], wantRecs[i]
		got.Energy, want.Energy = 0, 0 // compared by bits: a NaN single makes them NaN
		if got != want || math.Float64bits(recs[i].Energy) != math.Float64bits(wantRecs[i].Energy) {
			t.Fatalf("%s: sweep %d record %+v, float form %+v", what, i, recs[i], wantRecs[i])
		}
	}
}

// codeQualifyingProblem is a stereo-like problem that takes the code form:
// truncated-linear integer pairs and singles on the grid of twentieths.
func codeQualifyingProblem(w, h, labels int) *Problem {
	return &Problem{
		W: w, H: h, Labels: labels,
		Singleton: func(x, y, l int) float64 {
			return float64((x*37+y*11+l*l*7)%4000) / 20
		},
		PairWeight: 8, Dist: Absolute, TruncateDist: 6,
	}
}

// TestSolveBuildsOneForm: a qualifying hardware solve on prebuilt tables
// builds the code form only, leaving Singles nil, and a software solve
// builds the float form only; the hardware solve's labels and OnSweep
// stream equal those of the same solve on the float form, on the serial
// plan and on the default tiles, with the new and the previous RSU-G and
// with faults attached.
func TestSolveBuildsOneForm(t *testing.T) {
	p := codeQualifyingProblem(23, 17, 12)
	prev := core.StreamFactory(5, func(src rng.Source) core.LabelSampler {
		return core.MustUnit(core.PrevRSUG(), src, true)
	})
	for _, tc := range []struct {
		name    string
		factory func(int) core.LabelSampler
		faults  bool
	}{
		{"new", rsugFactory(5), false},
		{"prev", prev, false},
		{"new with faults", rsugFactory(5), true},
	} {
		for _, workers := range []int{1, 2, 0} {
			name := fmt.Sprintf("%s workers %d", tc.name, workers)
			opts := func(tab *Tables) SolveOptions {
				o := SolveOptions{Tables: tab, Workers: workers}
				if tc.faults {
					o.Faults = mustInjection(t, fault.Config{DarkCountPerBin: 0.01, StuckRow: 0.05, Seed: 3})
				}
				return o
			}
			tab := p.BuildTables()
			lab, recs := sweepEnergies(t, p, tc.factory, opts(tab))
			if tab.Singles != nil || tab.Codes == nil {
				t.Fatalf("%s: hardware solve left Singles %d entries, Codes %d; want the code form only", name, len(tab.Singles), len(tab.Codes))
			}
			want, wantRecs := sweepEnergies(t, p, floatFormFactory(tc.factory), opts(p.BuildTables()))
			checkSameSolve(t, name, lab, want, recs, wantRecs)
		}
	}
	tab := p.BuildTables()
	software := core.StreamFactory(5, func(src rng.Source) core.LabelSampler { return core.NewSoftwareSampler(src) })
	sweepEnergies(t, p, software, SolveOptions{Tables: tab})
	if tab.Codes != nil || tab.Singles == nil {
		t.Fatalf("software solve left Singles %d entries, Codes %d; want the float form only", len(tab.Singles), len(tab.Codes))
	}
}

// TestSolveCodeFormRejects: a problem outside the code form's exactness
// argument leaves a hardware solve on the float form, with the labels of
// the float-form solve: a NaN single, a negative single, a non-integer
// pair (Ising with J = 0.7), a pair above 255, and a single within 2^-40
// of a rounding tie.
func TestSolveCodeFormRejects(t *testing.T) {
	ising := func(j float64) *Problem {
		return &Problem{W: 12, H: 9, Labels: 2, PairWeight: j, Dist: Binary,
			Singleton: func(x, y, l int) float64 { return float64(((x*3 + y + l) % 5) * 4) }}
	}
	withSingle := func(v float64) *Problem {
		p := codeQualifyingProblem(12, 9, 7)
		base := p.Singleton
		p.Singleton = func(x, y, l int) float64 {
			if x == 5 && y == 4 && l == 3 {
				return v
			}
			return base(x, y, l)
		}
		return p
	}
	abs := codeQualifyingProblem(12, 9, 7)
	abs.PairWeight, abs.TruncateDist = 100, 0
	for _, tc := range []struct {
		name string
		p    *Problem
	}{
		{"NaN single", withSingle(math.NaN())},
		{"negative single", withSingle(-1)},
		{"Ising J 0.7", ising(0.7)},
		{"pair above 255", abs},
		{"single near a tie", withSingle(17.5 + 0x1p-40)},
	} {
		if tc.p.BuildTables().CodeSingles() != nil {
			t.Fatalf("%s: got a code form", tc.name)
		}
		tab := tc.p.BuildTables()
		lab, recs := sweepEnergies(t, tc.p, rsugFactory(8), SolveOptions{Tables: tab})
		if tab.Singles == nil || tab.Codes != nil {
			t.Fatalf("%s: hardware solve left Singles %d entries, Codes %d; want the float form only", tc.name, len(tab.Singles), len(tab.Codes))
		}
		want, wantRecs := sweepEnergies(t, tc.p, floatFormFactory(rsugFactory(8)), SolveOptions{Tables: tc.p.BuildTables()})
		checkSameSolve(t, tc.name, lab, want, recs, wantRecs)
	}
	// The same Ising model with an integer coupling takes the code form.
	if ising(16).BuildTables().CodeSingles() == nil {
		t.Fatal("Ising J 16 got no code form")
	}
}

// TestTablesFirstUseConcurrentSolves: two hardware and two software solves
// that first use one shared prebuilt Tables at the same moment build each
// form once and leave the labels of solves on tables of their own (run
// under -race by make race-runtime).
func TestTablesFirstUseConcurrentSolves(t *testing.T) {
	p := codeQualifyingProblem(131, 67, 6) // past tableBandFloor: banded builds
	if p.W*p.H*p.Labels < tableBandFloor {
		t.Fatal("problem below tableBandFloor would not exercise the banded build")
	}
	sched := Schedule{T0: 16, Alpha: 0.8, Iterations: 3}
	factories := []func(int) core.LabelSampler{
		rsugFactory(1), rsugFactory(2),
		core.StreamFactory(3, func(src rng.Source) core.LabelSampler { return core.NewSoftwareSampler(src) }),
		core.StreamFactory(4, func(src rng.Source) core.LabelSampler { return core.NewSoftwareSampler(src) }),
	}
	shared := p.BuildTables()
	labs := make([]*img.Labels, len(factories))
	errs := make([]error, len(factories))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, f := range factories {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			labs[i], errs[i] = Solve(context.Background(), p, f, sched, SolveOptions{Tables: shared})
		}()
	}
	close(start)
	wg.Wait()
	for i, f := range factories {
		if errs[i] != nil {
			t.Fatalf("solve %d: %v", i, errs[i])
		}
		want, err := Solve(context.Background(), p, f, sched, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !labelsEqual(labs[i].L, want.L) {
			t.Fatalf("solve %d on shared tables: labels differ from a solve on its own tables", i)
		}
	}
	checkSinglesDirect(t, "shared", p, shared)
	checkCodesDirect(t, "shared", p, shared)
}

// TestTablesFirstUsePanicRepeats: a Singleton panic while a form is built
// reaches the caller on first use and again on the next use, through the
// exported builders and through a solve, and leaves no form behind for a
// later caller to read as built (run under -race by make race-runtime).
func TestTablesFirstUsePanicRepeats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := codeQualifyingProblem(97, 61, 9)
	base := p.Singleton
	p.Singleton = func(x, y, l int) float64 {
		if y == 60 && x == 96 && l == 8 {
			panic("last entry")
		}
		return base(x, y, l)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "last entry") {
				t.Fatalf("%s: recovered %v, want the Singleton panic", what, r)
			}
		}()
		f()
	}
	solve := func(factory func(int) core.LabelSampler, tab *Tables) func() {
		return func() {
			Solve(context.Background(), p, factory, Schedule{T0: 4, Alpha: 0.9, Iterations: 1}, SolveOptions{Tables: tab})
		}
	}
	software := core.StreamFactory(1, func(src rng.Source) core.LabelSampler { return core.NewSoftwareSampler(src) })
	tab := p.BuildTables()
	for use := 1; use <= 2; use++ {
		mustPanic(fmt.Sprintf("FloatSingles use %d", use), func() { tab.FloatSingles() })
		mustPanic(fmt.Sprintf("CodeSingles use %d", use), func() { tab.CodeSingles() })
		mustPanic(fmt.Sprintf("hardware solve %d", use), solve(rsugFactory(1), tab))
		mustPanic(fmt.Sprintf("software solve %d", use), solve(software, tab))
	}
	if tab.Singles != nil || tab.Codes != nil || tab.floatBuilt.Load() || tab.codesDone.Load() {
		t.Fatalf("panicking builds left Singles %d entries, Codes %d, float built %v, codes done %v",
			len(tab.Singles), len(tab.Codes), tab.floatBuilt.Load(), tab.codesDone.Load())
	}
}

// FuzzCompactSingles fuzzes the code form's margin argument directly: for
// any float64 single that singleCode accepts and any four integer pair
// terms in [0, 255], each prefix of the engine-order float sum (singles,
// left, right, up, down; a border pixel adds fewer terms) encodes under
// the 8-bit step-1 quantizer to min(255, code + its pair terms).
func FuzzCompactSingles(f *testing.F) {
	f.Add(0.0, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(0.5, uint8(1), uint8(2), uint8(3), uint8(4))
	f.Add(254.5, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(254.49999999, uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(17.5+0x1p-29, uint8(255), uint8(255), uint8(255), uint8(255))
	f.Add(17.5-0x1p-29, uint8(8), uint8(48), uint8(0), uint8(16))
	f.Add(17.5+0x1p-40, uint8(8), uint8(48), uint8(0), uint8(16))
	f.Add(300.25, uint8(7), uint8(0), uint8(0), uint8(0))
	f.Add(math.Inf(1), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(math.NaN(), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(-0.25, uint8(0), uint8(0), uint8(0), uint8(0))
	q := quant.Quantizer{Bits: 8, Max: 255}
	f.Fuzz(func(t *testing.T, s float64, a, b, c, d uint8) {
		code, ok := singleCode(s)
		if !ok {
			return
		}
		sum, pairs := s, 0
		for _, v := range [...]uint8{a, b, c, d} {
			if got, want := q.Encode(sum), min(255, int(code)+pairs); got != want {
				t.Fatalf("single %v (code %d) plus pairs summing to %d: float sum %v encodes to %d, want %d", s, code, pairs, sum, got, want)
			}
			sum += float64(v)
			pairs += int(v)
		}
		if got, want := q.Encode(sum), min(255, int(code)+pairs); got != want {
			t.Fatalf("single %v (code %d) plus pairs summing to %d: float sum %v encodes to %d, want %d", s, code, pairs, sum, got, want)
		}
	})
}
