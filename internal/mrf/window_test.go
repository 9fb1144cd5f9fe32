package mrf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/rng"
	"rsu/internal/shard"
)

// windowTestRows draws an integer pair LUT for L labels as rows[nb][l]:
// Potts, truncated linear or truncated quadratic rows (whose spans reach
// the first or last label near the ends, and span every label when the
// truncation is past L: no constant tail there), or a mix of arbitrary
// sparse rows, rows whose span touches an end, and all-constant rows.
func windowTestRows(r *rand.Rand, L int) ([][]uint8, string) {
	rows := make([][]uint8, L)
	kinds := []string{"potts", "linear", "quadratic", "mixed"}
	kind := kinds[r.Intn(len(kinds))]
	w := 1 + r.Intn(40)
	trunc := 1 + r.Intn(L)
	for nb := range rows {
		row := make([]uint8, L)
		rows[nb] = row
		switch kind {
		case "potts":
			for l := range row {
				if l != nb {
					row[l] = uint8(w)
				}
			}
		case "linear":
			for l := range row {
				row[l] = uint8(min(w*min(abs(l-nb), trunc), 255))
			}
		case "quadratic":
			for l := range row {
				d := min(abs(l-nb), trunc)
				row[l] = uint8(min(w*d*d, 255))
			}
		case "mixed":
			c := r.Intn(256)
			for l := range row {
				row[l] = uint8(c)
			}
			span := 1 + r.Intn(L)
			var lo int
			switch r.Intn(4) {
			case 0:
				continue // all constant
			case 1:
				lo = 0 // the span starts at the first label
			case 2:
				lo = L - span // it ends at the last
			default:
				lo = r.Intn(L - span + 1)
			}
			for l := lo; l < lo+span; l++ {
				if r.Intn(3) > 0 {
					row[l] = uint8(r.Intn(c + 1))
				}
			}
		}
	}
	return rows, kind
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// windowTestSingle draws one single: mostly small integers, so that live
// sets are narrow and some pixel's single outside its union span sits
// below the span's minimum, plus 0, 255, saturating values, +Inf and
// non-integers away from a rounding tie.
func windowTestSingle(r *rand.Rand) float64 {
	switch r.Intn(12) {
	case 0:
		return 0
	case 1:
		return 255
	case 2:
		return 255 + float64(r.Intn(100))
	case 3:
		return math.Inf(1)
	case 4:
		return float64(r.Intn(60)) + 0.25
	case 5:
		return float64(r.Intn(250))
	}
	return float64(r.Intn(24))
}

// windowTestProblem draws a problem whose code form has window tables:
// 2 to 60 labels, a pair LUT from windowTestRows and singles from
// windowTestSingle, stored in raster order.
func windowTestProblem(r *rand.Rand) (*Problem, string) {
	w, h, labels := 3+r.Intn(12), 3+r.Intn(8), 2+r.Intn(59)
	rows, kind := windowTestRows(r, labels)
	singles := make([]float64, w*h*labels)
	for i := range singles {
		singles[i] = windowTestSingle(r)
	}
	return &Problem{
		W: w, H: h, Labels: labels,
		Singleton:  func(x, y, l int) float64 { return singles[(y*w+x)*labels+l] },
		PairWeight: 1,
		PairDist:   func(l, nb int) float64 { return float64(rows[nb][l]) },
	}, kind
}

// windowTestConfig is one hardware unit the windowed gather serves.
type windowTestConfig struct {
	name string
	cfg  core.Config
}

// windowTestConfigs are the hardware units the windowed gather serves, in
// a fixed order so a seed replays the same draws: step-1 quantizers of 8
// and 4 bits, with and without decay-rate scaling, under both tie-break
// policies.
func windowTestConfigs() []windowTestConfig {
	firstWins := core.NewRSUG()
	firstWins.Tie = core.TieFirstWins
	noScale := core.NewRSUG()
	noScale.Mode = core.ConvertCutoffNoScale
	fourBit := core.NewRSUG()
	fourBit.EnergyBits, fourBit.EnergyMax = 4, 15
	cutoff := core.NewRSUG()
	cutoff.Mode = core.ConvertScaledCutoff
	return []windowTestConfig{
		{"new", core.NewRSUG()}, {"first-wins", firstWins}, {"cutoff-no-scale", noScale},
		{"four-bit", fourBit}, {"scaled-cutoff", cutoff},
	}
}

// The windowed gather's cases for one interior pixel, as the window
// decides them: its neighbors' rows all constant, an outside label that
// may lie below the union span's minimum (minS), every label live, an
// outside scan, and the union span alone.
const (
	caseConstant = iota
	caseMinS
	caseAllLive
	caseScan
	caseSpan
	windowCases
)

var windowCaseNames = [windowCases]string{"constant", "minS fallback", "all live", "outside scan", "span only"}

// windowTally counts what checkWindowSegments met: interior pixels by the
// window's case; pixels that took their live set from the memo (hits); and
// pixels whose memo word matched their neighbors but was written at a
// lower cut index than the stage's while more than one label is live now
// (raisedK), where only the K compare keeps the memo from answering wrong.
type windowTally struct {
	cases   [windowCases]int
	hits    int
	raisedK int
}

// windowTestGather returns the windowed gather a multi-tile solve of tab by
// sampler s takes, with an empty live-set memo when the problem has at
// most memoMaxLabels labels.
func windowTestGather(tb testing.TB, tab *Tables, s core.LabelSampler) *windowed {
	tb.Helper()
	g := tab.windowFor(tab.gatherFor([]core.LabelSampler{s}), SolveOptions{})
	if g == nil {
		tb.Fatal("no windowed gather for a code-form problem")
	}
	if tab.p.Labels <= memoMaxLabels {
		g.memo = make([]uint64, tab.p.W*tab.p.H)
	}
	return g
}

// memoState classifies pixel (x, y)'s memo word against its present
// neighbors at cut index K: 1 when it holds (the gather takes it), -1 when
// its neighbors match but it was written at a cut index below K, else 0.
func memoState(g *windowed, lab *img.Labels, x, y, K int) int {
	p := g.t.p
	w := g.memo[p.base(x, y)/p.Labels]
	nb := func(x, y int) uint64 {
		if x < 0 || y < 0 || x >= p.W || y >= p.H {
			return memoNone
		}
		return uint64(lab.At(x, y))
	}
	key := nb(x-1, y) | nb(x+1, y)<<8 | nb(x, y-1)<<16 | nb(x, y+1)<<24
	stored := int(w>>memoKShift) & 0xff
	switch {
	case uint32(w) != uint32(key) || stored == 0:
		return 0
	case K <= stored:
		return 1
	}
	return -1
}

// checkWindowSegments gathers every same-color row segment of the grid
// through the windowed gather g (and its memo, when it keeps one) and
// compares each pixel's live set, codes and minimum with those the dense
// code gather gives against the same cut-off: its labels with energy at
// most the live code limit (all, when it is 255), codes and minimum
// saturated at 255. It counts what it met into tally.
func checkWindowSegments(tb testing.TB, g *windowed, lab *img.Labels, cut core.LiveCut, tally *windowTally) {
	tb.Helper()
	tab := g.t
	p := tab.p
	L := p.Labels
	c := newCandidates((p.W+1)/2, L)
	dense := make([]float64, L)
	memo := make([]int, (p.W+1)/2)
	for y := 0; y < p.H; y++ {
		for color := 0; color < 2; color++ {
			x0 := (y + color) & 1
			n := (p.W - x0 + 1) / 2
			if n == 0 {
				continue
			}
			for i := range memo[:n] {
				memo[i] = 0
				if g.memo != nil && cut.Scales {
					memo[i] = memoState(g, lab, x0+2*i, y, cut.K)
				}
			}
			g.segment(&c, lab, y, x0, n, cut)
			start := int32(0)
			for i := 0; i < n; i++ {
				x := x0 + 2*i
				labelEnergies(tab, g.codes, dense, lab, x, y)
				m := math.Inf(1)
				for _, e := range dense {
					m = math.Min(m, e)
				}
				m = math.Min(m, 255)
				limit := cut.Limit(int(m))
				var wantLabels []int32
				var wantCodes []uint8
				for l, e := range dense {
					if limit >= 255 || e <= float64(limit) {
						wantLabels, wantCodes = append(wantLabels, int32(l)), append(wantCodes, uint8(math.Min(e, 255)))
					}
				}
				end := c.ends[i]
				gotLabels, gotCodes := c.labels[start:end], c.codes[start:end]
				if len(gotLabels) != len(wantLabels) || c.mins[i] != uint8(m) {
					tb.Fatalf("pixel (%d,%d), memo state %d: live set %v codes %v min %d, dense gather %v codes %v min %v (limit %d)",
						x, y, memo[i], gotLabels, gotCodes, c.mins[i], wantLabels, wantCodes, m, limit)
				}
				for j := range gotLabels {
					if gotLabels[j] != wantLabels[j] || gotCodes[j] != wantCodes[j] {
						tb.Fatalf("pixel (%d,%d), memo state %d: live set %v codes %v, dense gather %v codes %v (limit %d)",
							x, y, memo[i], gotLabels, gotCodes, wantLabels, wantCodes, limit)
					}
				}
				start = end
				switch {
				case memo[i] > 0:
					tally.hits++
				case memo[i] < 0 && len(wantLabels) > 1:
					tally.raisedK++
				}
				if x > 0 && x+1 < p.W && y > 0 && y+1 < p.H {
					tally.cases[windowCase(tab, g, lab, x, y, dense, cut)]++
				}
			}
		}
	}
}

// perturbLabeling redraws about a quarter of lab's labels, so that some
// memo words stop matching their pixels' neighbors.
func perturbLabeling(r *rand.Rand, lab *img.Labels, labels int) {
	for i := range lab.L {
		if r.Intn(4) == 0 {
			lab.L[i] = r.Intn(labels)
		}
	}
}

// windowCase classifies interior pixel (x, y), whose dense energies are
// dense, by the case the window meets it in.
func windowCase(tab *Tables, g *windowed, lab *img.Labels, x, y int, dense []float64, cut core.LiveCut) int {
	p, w := tab.p, g.w
	L := p.Labels
	i := y*p.W + x
	lo, hi, C := int32(L), int32(-1), int32(0)
	for _, nb := range []int{lab.L[i-1], lab.L[i+1], lab.L[i-p.W], lab.L[i+p.W]} {
		row := w.rows[nb]
		lo, hi, C = min(lo, row.lo), max(hi, row.hi), C+row.c
	}
	if lo > hi {
		return caseConstant
	}
	mU := math.Inf(1)
	for l := lo; l <= hi; l++ {
		mU = math.Min(mU, dense[l])
	}
	base := p.base(x, y)
	minS := int32(255)
	for _, s := range g.codes[base : base+L] {
		minS = min(minS, int32(s))
	}
	if float64(minS+C) < mU {
		return caseMinS
	}
	limit := cut.Limit(int(mU))
	switch {
	case limit >= 255:
		return caseAllLive
	case minS+C <= int32(limit):
		return caseScan
	}
	return caseSpan
}

// windowRecord is what one solve shows: its labels, every sweep's OnSweep
// temperature, energy and flip bits, and every stream's state.
type windowRecord struct {
	labels []int
	sweeps [][3]uint64
	states []core.SamplerState
}

func windowSolve(t *testing.T, p *Problem, tab *Tables, cfg core.Config, seed uint64, geom shard.Geometry, sched Schedule, init *img.Labels, dense bool) windowRecord {
	t.Helper()
	rec, err := windowSolveErr(p, tab, cfg, seed, geom, sched, init, dense)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// windowSolveErr is windowSolve returning its error, for goroutines.
func windowSolveErr(p *Problem, tab *Tables, cfg core.Config, seed uint64, geom shard.Geometry, sched Schedule, init *img.Labels, dense bool) (windowRecord, error) {
	var units []*core.Unit
	var rec windowRecord
	factory := func(stream int) core.LabelSampler {
		u := core.MustUnit(cfg, rng.NewXoshiro256(core.StreamSeed(seed, stream)), true)
		units = append(units, u)
		return u
	}
	opts := SolveOptions{Init: init, Shards: geom, Tables: tab, denseCodes: dense,
		OnSweep: func(_ int, _ *img.Labels, st SolveStats) {
			rec.sweeps = append(rec.sweeps, [3]uint64{math.Float64bits(st.T), math.Float64bits(st.Energy), uint64(st.Flips)})
		}}
	lab, err := Solve(context.Background(), p, factory, sched, opts)
	if err != nil {
		return rec, err
	}
	rec.labels = lab.L
	for _, u := range units {
		st, err := u.CaptureState()
		if err != nil {
			return rec, err
		}
		rec.states = append(rec.states, st)
	}
	return rec, nil
}

// compareWindowSolve solves p on tab twice, through the windowed gather
// and through the dense one, and requires the same labels, OnSweep bits and
// stream states. It also requires the windowed solve to have kept a
// live-set memo exactly when the memo serves it: a multi-tile geometry, at
// most memoMaxLabels labels and a unit with decay-rate scaling.
func compareWindowSolve(t *testing.T, what string, p *Problem, tab *Tables, cfg core.Config, seed uint64, geom shard.Geometry, sched Schedule, init *img.Labels) {
	t.Helper()
	dense := windowSolve(t, p, tab, cfg, seed, geom, sched, init, true)
	tab.memo.Store(nil)
	win := windowSolve(t, p, tab, cfg, seed, geom, sched, init, false)
	if cut, ok := core.MustUnit(cfg, rng.NewXoshiro256(1), true).LiveCut(); ok {
		want := cut.Scales && p.Labels <= memoMaxLabels && geom.Tiles() > 1
		if kept := tab.memo.Load() != nil; kept != want {
			t.Fatalf("%s: windowed solve kept a live-set memo %v, want %v", what, kept, want)
		}
	}
	for i := range dense.labels {
		if win.labels[i] != dense.labels[i] {
			t.Fatalf("%s (%d labels, %s): label[%d] = %d windowed, %d dense", what, p.Labels, geom, i, win.labels[i], dense.labels[i])
		}
	}
	for k := range dense.sweeps {
		if win.sweeps[k] != dense.sweeps[k] {
			t.Fatalf("%s: sweep %d OnSweep bits %v windowed, %v dense", what, k, win.sweeps[k], dense.sweeps[k])
		}
	}
	for s := range dense.states {
		if win.states[s] != dense.states[s] {
			t.Fatalf("%s: stream %d state %+v windowed, %+v dense", what, s, win.states[s], dense.states[s])
		}
	}
}

// TestWindowedGatherExact is the windowed code gather's exactness property,
// live-set memo included. On random problems with integer pair LUTs
// (windowTestRows) and singles at 0, 255, saturating and small, it solves
// each problem on a random multi-tile geometry with every unit of
// windowTestConfigs twice, through the windowed gather and through the
// dense one (compareWindowSolve), on annealing schedules and on schedules
// that hold one temperature, so the cut index falls or repeats from sweep
// to sweep. It also gathers every segment of random labelings through one
// memo-keeping gather per unit, at temperatures from 64 down to 1e-3, each
// twice, redrawing a quarter of the labels between temperatures, and
// compares each live set with the dense gather's (checkWindowSegments). It
// requires every case of the window and memo hits to have occurred. A
// 300-label problem checks that the memo is off past memoMaxLabels.
func TestWindowedGatherExact(t *testing.T) {
	const seed = 2801
	t.Logf("seed %d", seed)
	r := rand.New(rand.NewSource(seed))
	var tally windowTally
	configs := windowTestConfigs()
	for trial := 0; trial < 24; trial++ {
		p, kind := windowTestProblem(r)
		tab := p.BuildTables()
		if tab.CodeSingles() == nil || tab.WindowBytes() == 0 {
			t.Fatalf("trial %d (%s rows): no code form with window tables", trial, kind)
		}
		geom := shard.Geometry{Rows: 1 + r.Intn(2), Cols: 1 + r.Intn(2)}
		if geom.Tiles() == 1 {
			geom.Rows = 2
		}
		init := randomLabeling(r, p.W, p.H, p.Labels)
		sched := Schedule{T0: 0.5 + 64*r.Float64(), Alpha: 0.5 + 0.45*r.Float64(), Iterations: 6 + r.Intn(6), TFloor: 1e-3}
		if trial%3 == 0 {
			// One temperature throughout: every sweep repeats the cut index.
			sched.T0, sched.Alpha = 0.05+2*r.Float64(), 1
		}
		for ci, c := range configs {
			what := fmt.Sprintf("trial %d (%s rows) %s", trial, kind, c.name)
			compareWindowSolve(t, what, p, tab, c.cfg, uint64(trial*100+ci), geom, sched, init)

			u := core.MustUnit(c.cfg, rng.NewXoshiro256(1), true)
			g := windowTestGather(t, tab, u)
			lab := randomLabeling(r, p.W, p.H, p.Labels)
			for T := 64.0; T >= 1e-3; T /= 4 {
				core.MustSetTemperature(u, T)
				cut, ok := u.LiveCut()
				if !ok {
					t.Fatalf("%s: LiveCut reports no live kernel at T %v", what, T)
				}
				for rep := 0; rep < 2; rep++ {
					checkWindowSegments(t, g, lab, cut, &tally)
				}
				perturbLabeling(r, lab, p.Labels)
			}
		}
	}

	// Past memoMaxLabels the memo is off and the window alone serves.
	p := &Problem{
		W: 9, H: 7, Labels: 300,
		Singleton:  func(x, y, l int) float64 { return float64((x*31 + y*17 + l*l) % 97) },
		PairWeight: 1,
		PairDist:   func(l, nb int) float64 { return float64(6 * min(abs(l-nb), 3)) },
	}
	tab := p.BuildTables()
	if tab.CodeSingles() == nil {
		t.Fatal("300-label problem: no code form")
	}
	compareWindowSolve(t, "300 labels", p, tab, core.NewRSUG(), 7, shard.Geometry{Rows: 2, Cols: 2},
		Schedule{T0: 8, Alpha: 0.7, Iterations: 10}, randomLabeling(r, p.W, p.H, p.Labels))

	t.Logf("interior pixels by case: %v %v; memo hits %d, raised cut index %d", windowCaseNames, tally.cases, tally.hits, tally.raisedK)
	for c, n := range tally.cases {
		if n == 0 {
			t.Errorf("no interior pixel met the window's %s case", windowCaseNames[c])
		}
	}
	if tally.hits == 0 {
		t.Error("no pixel took its live set from the memo")
	}
}

// TestLiveMemoRaisedCut holds the memo's K compare: one memo-keeping
// gather per problem gathers a labeling at a low temperature, where many
// pixels have one live label and write their memo words, and then at
// rising temperatures, where the cut index K rises and some of those
// pixels have more than one live label. Every live set must match the
// dense gather's, and some pixel must have met a memo word that matched its
// neighbors at a lower K (a memo that ignored K would answer it wrong). An
// annealing schedule never raises K; this calls windowed.segment directly.
func TestLiveMemoRaisedCut(t *testing.T) {
	const seed = 2901
	t.Logf("seed %d", seed)
	r := rand.New(rand.NewSource(seed))
	var tally windowTally
	for trial := 0; trial < 12; trial++ {
		p, kind := windowTestProblem(r)
		tab := p.BuildTables()
		if tab.CodeSingles() == nil {
			t.Fatalf("trial %d (%s rows): no code form", trial, kind)
		}
		u := core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(uint64(trial)), true)
		g := windowTestGather(t, tab, u)
		lab := randomLabeling(r, p.W, p.H, p.Labels)
		for T := 1e-3; T <= 64; T *= 4 {
			core.MustSetTemperature(u, T)
			cut, ok := u.LiveCut()
			if !ok {
				t.Fatalf("trial %d: LiveCut reports no live kernel at T %v", trial, T)
			}
			checkWindowSegments(t, g, lab, cut, &tally)
		}
	}
	t.Logf("memo hits %d, raised cut index %d", tally.hits, tally.raisedK)
	if tally.raisedK == 0 {
		t.Fatal("no pixel met a memo word written at a lower cut index with more than one label live")
	}
}

// FuzzWindowedGather fuzzes the windowed gather against the dense one: a
// problem, labeling and temperature drawn from the fuzzer's seed, every
// segment's live sets, codes and minima compared by checkWindowSegments
// over four passes on one live-set memo: at T, at T again (the memo's hit
// path), at T/4 on a quarter-redrawn labeling (a lower cut index) and at
// 4T (a raised one; the largest float when 4T overflows).
func FuzzWindowedGather(f *testing.F) {
	for _, s := range []int64{1, 2, 3, 28} {
		f.Add(s, 0.5, uint8(0))
	}
	configs := windowTestConfigs()
	f.Fuzz(func(t *testing.T, seed int64, T float64, unit uint8) {
		if !(T > 0) || math.IsInf(T, 1) {
			return
		}
		r := rand.New(rand.NewSource(seed))
		p, _ := windowTestProblem(r)
		tab := p.BuildTables()
		if tab.CodeSingles() == nil {
			t.Fatal("no code form")
		}
		u := core.MustUnit(configs[int(unit)%len(configs)].cfg, rng.NewXoshiro256(1), true)
		g := windowTestGather(t, tab, u)
		lab := randomLabeling(r, p.W, p.H, p.Labels)
		var tally windowTally
		for pass, temp := range []float64{T, T, T / 4, min(4*T, math.MaxFloat64)} {
			if pass == 2 {
				perturbLabeling(r, lab, p.Labels)
			}
			if temp == 0 {
				continue // T/4 underflowed
			}
			core.MustSetTemperature(u, temp)
			cut, ok := u.LiveCut()
			if !ok {
				t.Fatalf("LiveCut reports no live kernel at T %v", temp)
			}
			checkWindowSegments(t, g, lab, cut, &tally)
		}
	})
}

// TestCheckerSweepSteadyStateZeroAlloc is the checker tiles' allocation
// contract, the multi-tile companion of
// TestSerialSweepSteadyStateZeroAlloc: once a 2×1 plan's tiles and the
// sampler scratch are warm, a full sweep with energy tracking allocates
// nothing, through the windowed code gather, on sweeps where most pixels
// take their live set from the memo, and through the dense SegMin one.
func TestCheckerSweepSteadyStateZeroAlloc(t *testing.T) {
	rows := make([][]uint8, 24)
	for nb := range rows {
		rows[nb] = make([]uint8, 24)
		for l := range rows[nb] {
			rows[nb][l] = uint8(8 * min(abs(l-nb), 2))
		}
	}
	p := &Problem{
		W: 24, H: 16, Labels: 24,
		Singleton:  func(x, y, l int) float64 { return float64((x*7 + y*3 + l*l) % 40) },
		PairWeight: 1,
		PairDist:   func(l, nb int) float64 { return float64(rows[nb][l]) },
	}
	for _, tc := range []struct {
		name  string
		dense bool
	}{{"windowed", false}, {"segmin", true}} {
		t.Run(tc.name, func(t *testing.T) {
			tab := p.BuildTables()
			lab := img.NewLabels(p.W, p.H)
			samplers := []core.LabelSampler{
				core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(9), true),
				core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(10), true),
			}
			for _, s := range samplers {
				core.MustSetTemperature(s, 1)
			}
			g := tab.gatherFor(samplers)
			r := &run{p: p, lab: lab, samplers: samplers, tab: tab, gather: g,
				win: tab.windowFor(g, SolveOptions{denseCodes: tc.dense}), track: true, energy: tab.TotalEnergy(lab)}
			if (r.win == nil) != tc.dense {
				t.Fatalf("windowed gather %v, want %v", r.win != nil, !tc.dense)
			}
			sw, err := newShardPool(r, shard.Geometry{Rows: 2, Cols: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer sw.stop()
			if live := sw.tiles[0].live; (live != nil) == tc.dense {
				t.Fatalf("tile takes live sets %v, want %v", live != nil, !tc.dense)
			}
			const warm = 4
			for k := 0; k < warm; k++ {
				if _, err := sw.sweep(k); err != nil {
					t.Fatalf("warm-up sweep %d: %v", k, err)
				}
			}
			if !tc.dense {
				// The measured sweeps must take the memo's hit path: count
				// the pixels whose memo word holds for the grid as it stands.
				if r.win.memo == nil {
					t.Fatal("windowed checker tiles keep no live-set memo")
				}
				cut, _ := sw.tiles[0].live.LiveCut()
				hits := 0
				for y := 0; y < p.H; y++ {
					for x := 0; x < p.W; x++ {
						if memoState(r.win, lab, x, y, cut.K) > 0 {
							hits++
						}
					}
				}
				t.Logf("%d of %d pixels hold a memo word for the next sweep", hits, p.W*p.H)
				if hits < p.W*p.H/4 {
					t.Fatalf("only %d of %d pixels hold a memo word", hits, p.W*p.H)
				}
			}
			k := warm
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := sw.sweep(k); err != nil {
					t.Fatalf("sweep %d: %v", k, err)
				}
				k++
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s checker sweep allocated %.1f objects/run, want 0", tc.name, allocs)
			}
		})
	}
}

// TestLiveMemoCheckpointResume holds the live-set memo out of snapshots.
// A 2×2 windowed solve, annealed until most pixels keep one live label,
// captures the same snapshots as the dense gather's solve, field for field,
// and resuming from each of them, with an empty memo, gives the
// uninterrupted run's labels, OnSweep bits and stream states.
func TestLiveMemoCheckpointResume(t *testing.T) {
	p := &Problem{
		W: 30, H: 22, Labels: 24,
		Singleton:  func(x, y, l int) float64 { return float64((x*7 + y*3 + l*l) % 40) },
		PairWeight: 8,
		PairDist:   func(l, nb int) float64 { return float64(min(abs(l-nb), 2)) },
	}
	tab := p.BuildTables()
	sched := Schedule{T0: 12, Alpha: 0.8, Iterations: 24}
	geom := shard.Geometry{Rows: 2, Cols: 2}
	const every = 8
	type result struct {
		rec   windowRecord
		snaps []*SolverState
	}
	solve := func(dense bool, resume *SolverState) result {
		t.Helper()
		var res result
		var units []*core.Unit
		factory := func(stream int) core.LabelSampler {
			u := core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(core.StreamSeed(5, stream)), true)
			units = append(units, u)
			return u
		}
		opts := SolveOptions{Shards: geom, Tables: tab, denseCodes: dense, Resume: resume, CheckpointEvery: every,
			OnCheckpoint: func(st *SolverState) error {
				res.snaps = append(res.snaps, st)
				return nil
			},
			OnSweep: func(_ int, _ *img.Labels, st SolveStats) {
				res.rec.sweeps = append(res.rec.sweeps, [3]uint64{math.Float64bits(st.T), math.Float64bits(st.Energy), uint64(st.Flips)})
			}}
		lab, err := Solve(context.Background(), p, factory, sched, opts)
		if err != nil {
			t.Fatal(err)
		}
		res.rec.labels = lab.L
		for _, u := range units {
			st, err := u.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			res.rec.states = append(res.rec.states, st)
		}
		return res
	}
	same := func(what string, got, want windowRecord) {
		t.Helper()
		if !reflect.DeepEqual(got.labels, want.labels) {
			t.Fatalf("%s: labels differ", what)
		}
		if !reflect.DeepEqual(got.sweeps, want.sweeps) {
			t.Fatalf("%s: OnSweep bits %v, want %v", what, got.sweeps, want.sweeps)
		}
		if !reflect.DeepEqual(got.states, want.states) {
			t.Fatalf("%s: stream states %+v, want %+v", what, got.states, want.states)
		}
	}

	dense := solve(true, nil)
	tab.memo.Store(nil)
	win := solve(false, nil)
	same("windowed against dense", win.rec, dense.rec)
	if len(win.snaps) != sched.Iterations/every-1 || !reflect.DeepEqual(win.snaps, dense.snaps) {
		t.Fatalf("windowed solve captured %d snapshots, dense %d, or their fields differ", len(win.snaps), len(dense.snaps))
	}
	m := tab.memo.Load()
	if m == nil {
		t.Fatal("the windowed solve kept no live-set memo")
	}
	held := 0
	for _, w := range *m {
		if w != 0 {
			held++
		}
	}
	t.Logf("%d of %d memo words held at the end", held, len(*m))
	if held < len(*m)/2 {
		t.Fatalf("only %d of %d memo words held at the end: the memo was not warm", held, len(*m))
	}

	for _, snap := range win.snaps {
		got := solve(false, snap)
		got.rec.sweeps = append(append([][3]uint64(nil), win.rec.sweeps[:snap.NextSweep]...), got.rec.sweeps...)
		same(fmt.Sprintf("resumed at sweep %d", snap.NextSweep), got.rec, win.rec)
	}
}

// TestLiveMemoConcurrentSolves: solves on one Tables at once share no
// memo. The first to start takes the tables' spare memo and the others
// allocate their own, so each gives the labels and stream states of the
// same solve run alone, and the tables keep one spare afterwards.
func TestLiveMemoConcurrentSolves(t *testing.T) {
	p := &Problem{
		W: 26, H: 18, Labels: 16,
		Singleton:  func(x, y, l int) float64 { return float64((x*5 + y*11 + l*l) % 37) },
		PairWeight: 6,
		PairDist:   func(l, nb int) float64 { return float64(min(abs(l-nb), 3)) },
	}
	tab := p.BuildTables()
	sched := Schedule{T0: 8, Alpha: 0.8, Iterations: 16}
	geom := shard.Geometry{Rows: 2, Cols: 2}
	cfg := core.NewRSUG()
	want := windowSolve(t, p, tab, cfg, 3, geom, sched, nil, false)
	const solves = 3
	got := make([]windowRecord, solves)
	errs := make([]error, solves)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = windowSolveErr(p, tab, cfg, 3, geom, sched, nil, false)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent solve %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("concurrent solve %d differs from the solve run alone", i)
		}
	}
	if tab.memo.Load() == nil {
		t.Fatal("the tables keep no spare memo after the solves")
	}
}
