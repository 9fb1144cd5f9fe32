package mrf

import (
	"context"
	"math"
	"math/rand"
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

// checkWindowSegments gathers every same-color row segment of the grid
// through the windowed gather and compares each pixel's live set, codes
// and minimum with those the dense code gather gives against the same live
// code limit: its labels with energy at most the limit (all, when it is
// 255), codes and minimum saturated at 255. It counts the interior
// pixels' cases into tally.
func checkWindowSegments(tb testing.TB, tab *Tables, lab *img.Labels, lim core.LiveCodeSampler, tally *[windowCases]int) {
	tb.Helper()
	p := tab.p
	L := p.Labels
	g := tab.windowFor(tab.gatherFor([]core.LabelSampler{lim.(core.LabelSampler)}), SolveOptions{})
	if g == nil {
		tb.Fatal("no windowed gather for a code-form problem")
	}
	cut, ok := lim.LiveCut()
	if !ok {
		tb.Fatal("LiveCut reports no live kernel")
	}
	c := newCandidates((p.W+1)/2, L)
	dense := make([]float64, L)
	for y := 0; y < p.H; y++ {
		for color := 0; color < 2; color++ {
			x0 := (y + color) & 1
			n := (p.W - x0 + 1) / 2
			if n == 0 {
				continue
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
					tb.Fatalf("pixel (%d,%d): live set %v codes %v min %d, dense gather %v codes %v min %v (limit %d)",
						x, y, gotLabels, gotCodes, c.mins[i], wantLabels, wantCodes, m, limit)
				}
				for j := range gotLabels {
					if gotLabels[j] != wantLabels[j] || gotCodes[j] != wantCodes[j] {
						tb.Fatalf("pixel (%d,%d): live set %v codes %v, dense gather %v codes %v (limit %d)",
							x, y, gotLabels, gotCodes, wantLabels, wantCodes, limit)
					}
				}
				start = end
				if x > 0 && x+1 < p.W && y > 0 && y+1 < p.H {
					tally[windowCase(tab, g, lab, x, y, dense, cut)]++
				}
			}
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
		t.Fatal(err)
	}
	rec.labels = lab.L
	for _, u := range units {
		st, err := u.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		rec.states = append(rec.states, st)
	}
	return rec
}

// TestWindowedGatherExact is the windowed code gather's exactness property.
// On random problems with integer pair LUTs (windowTestRows) and
// singles at 0, 255, saturating and small, it solves each problem on a
// random multi-tile geometry with every unit of windowTestConfigs twice,
// through the windowed gather and through the dense one, and requires the
// same labels, OnSweep temperature, energy and flip bits, and every
// stream's RNG state and Stats. It also gathers every segment of random
// labelings through the window at temperatures from 64 down to 1e-3 and
// compares each live set with the dense gather's (checkWindowSegments),
// and requires every case of the window to have occurred.
func TestWindowedGatherExact(t *testing.T) {
	const seed = 2801
	t.Logf("seed %d", seed)
	r := rand.New(rand.NewSource(seed))
	var tally [windowCases]int
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
		for ci, c := range configs {
			name, cfg := c.name, c.cfg
			useed := uint64(trial*100 + ci)
			dense := windowSolve(t, p, tab, cfg, useed, geom, sched, init, true)
			win := windowSolve(t, p, tab, cfg, useed, geom, sched, init, false)
			for i := range dense.labels {
				if win.labels[i] != dense.labels[i] {
					t.Fatalf("trial %d (%s rows, %d labels, %s) %s: label[%d] = %d windowed, %d dense",
						trial, kind, p.Labels, geom, name, i, win.labels[i], dense.labels[i])
				}
			}
			for k := range dense.sweeps {
				if win.sweeps[k] != dense.sweeps[k] {
					t.Fatalf("trial %d (%s rows) %s: sweep %d OnSweep bits %v windowed, %v dense", trial, kind, name, k, win.sweeps[k], dense.sweeps[k])
				}
			}
			for s := range dense.states {
				if win.states[s] != dense.states[s] {
					t.Fatalf("trial %d (%s rows) %s: stream %d state %+v windowed, %+v dense", trial, kind, name, s, win.states[s], dense.states[s])
				}
			}

			u := core.MustUnit(cfg, rng.NewXoshiro256(1), true)
			for T := 64.0; T >= 1e-3; T /= 4 {
				core.MustSetTemperature(u, T)
				checkWindowSegments(t, tab, randomLabeling(r, p.W, p.H, p.Labels), u, &tally)
			}
		}
	}
	t.Logf("interior pixels by case: %v %v", windowCaseNames, tally)
	for c, n := range tally {
		if n == 0 {
			t.Errorf("no interior pixel met the window's %s case", windowCaseNames[c])
		}
	}
}

// FuzzWindowedGather fuzzes the windowed gather against the dense one: a
// problem, labeling and temperature drawn from the fuzzer's seed, every
// segment's live sets, codes and minima compared by checkWindowSegments.
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
		core.MustSetTemperature(u, T)
		var tally [windowCases]int
		checkWindowSegments(t, tab, randomLabeling(r, p.W, p.H, p.Labels), u, &tally)
	})
}

// TestCheckerSweepSteadyStateZeroAlloc is the checker tiles' allocation
// contract, the multi-tile companion of
// TestSerialSweepSteadyStateZeroAlloc: once a 2×1 plan's tiles and the
// sampler scratch are warm, a full sweep with energy tracking allocates
// nothing, through the windowed code gather and through the dense SegMin
// one.
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
			if _, err := sw.sweep(0); err != nil {
				t.Fatalf("warm-up sweep: %v", err)
			}
			k := 1
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
