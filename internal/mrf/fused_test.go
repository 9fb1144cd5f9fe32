package mrf

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/rng"
)

// randomProblem builds a randomized MRF instance. Odd widths are the
// interesting case for the fused kernels: with W odd the checkerboard color
// classes' linear indices run contiguously across row boundaries, which the
// segment-extension logic must not mistake for one row.
func randomProblem(r *rand.Rand) *Problem {
	w := 3 + r.Intn(9)
	h := 2 + r.Intn(7)
	labels := 2 + r.Intn(6)
	singles := make([]float64, w*h*labels)
	for i := range singles {
		singles[i] = r.Float64() * 12
	}
	p := &Problem{
		W: w, H: h, Labels: labels,
		Singleton:  func(x, y, l int) float64 { return singles[(y*w+x)*labels+l] },
		PairWeight: 0.2 + r.Float64()*2,
		Dist:       DistanceKind(r.Intn(3)),
	}
	if r.Intn(3) == 0 {
		p.TruncateDist = 0.5 + r.Float64()*3
	}
	if r.Intn(4) == 0 {
		// Asymmetric distance: pins the orientation-exact Pair indexing in
		// FlipDelta and the row gathers (no dist(a,b) == dist(b,a) crutch).
		p.PairDist = func(a, b int) float64 { return float64(2*a+b) * 0.25 }
	}
	return p
}

// randomLabeling fills a labeling uniformly at random.
func randomLabeling(r *rand.Rand, w, h, labels int) *img.Labels {
	lab := img.NewLabels(w, h)
	for i := range lab.L {
		lab.L[i] = r.Intn(labels)
	}
	return lab
}

// TestLabelEnergiesSegMatchesPerPixel pins the fused gathers bit-for-bit
// against per-pixel LabelEnergies: full rows (step 1, the serial sweep) and
// both checkerboard parities (step 2, the parallel sweep).
func TestLabelEnergiesSegMatchesPerPixel(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(r)
		tab := p.BuildTables()
		lab := randomLabeling(r, p.W, p.H, p.Labels)
		L := p.Labels
		want := make([]float64, L)
		row := make([]float64, p.W*L)
		for y := 0; y < p.H; y++ {
			tab.LabelEnergiesRow(row, lab, y)
			for x := 0; x < p.W; x++ {
				tab.LabelEnergies(want, lab, x, y)
				for l := 0; l < L; l++ {
					if got := row[x*L+l]; got != want[l] {
						t.Fatalf("trial %d: row gather (%d,%d) label %d: %v != %v", trial, x, y, l, got, want[l])
					}
				}
			}
			for x0 := 0; x0 < 2 && x0 < p.W; x0++ {
				n := (p.W - x0 + 1) / 2
				seg := make([]float64, n*L)
				tab.LabelEnergiesSeg(seg, lab, y, x0, 2, n)
				for i := 0; i < n; i++ {
					x := x0 + 2*i
					tab.LabelEnergies(want, lab, x, y)
					for l := 0; l < L; l++ {
						if got := seg[i*L+l]; got != want[l] {
							t.Fatalf("trial %d: seg gather (%d,%d) label %d: %v != %v", trial, x, y, l, got, want[l])
						}
					}
				}
			}
		}
	}
}

// TestFlipDeltaMatchesTotalEnergy is the incremental-energy invariant at the
// single-flip level: FlipDelta must equal the TotalEnergy difference of the
// relabeling, for every distance kind including asymmetric PairDist.
func TestFlipDeltaMatchesTotalEnergy(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for trial := 0; trial < 80; trial++ {
		p := randomProblem(r)
		tab := p.BuildTables()
		lab := randomLabeling(r, p.W, p.H, p.Labels)
		for flip := 0; flip < 20; flip++ {
			x, y := r.Intn(p.W), r.Intn(p.H)
			from := lab.At(x, y)
			to := r.Intn(p.Labels)
			before := tab.TotalEnergy(lab)
			delta := tab.FlipDelta(lab, x, y, from, to)
			lab.Set(x, y, to)
			after := tab.TotalEnergy(lab)
			want := after - before
			scale := math.Abs(before) + math.Abs(after) + 1
			if math.Abs(delta-want) > 1e-9*scale {
				t.Fatalf("trial %d: flip (%d,%d) %d->%d: delta %v, recompute %v", trial, x, y, from, to, delta, want)
			}
		}
	}
}

// TestIncrementalEnergyMatchesRecompute is the randomized acceptance
// property: over full solves (serial and parallel), the incrementally
// tracked SolveStats.Energy must match a TotalEnergy recomputation of the
// hook's labeling to 1e-9 relative error on every sweep.
func TestIncrementalEnergyMatchesRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	for trial := 0; trial < 12; trial++ {
		p := randomProblem(r)
		tab := p.BuildTables()
		init := randomLabeling(r, p.W, p.H, p.Labels)
		sched := Schedule{T0: 1 + r.Float64()*16, Alpha: 0.85 + r.Float64()*0.15, Iterations: 8}
		for _, workers := range []int{1, 3} {
			seed := uint64(1000*trial + workers)
			factory := func(w int) core.LabelSampler {
				return core.NewSoftwareSampler(rng.NewXoshiro256(core.StreamSeed(seed, w)))
			}
			sweeps := 0
			_, err := Solve(context.Background(), p, factory, sched, SolveOptions{
				Init: init, Workers: workers, Tables: tab,
				OnSweep: func(iter int, lab *img.Labels, st SolveStats) {
					sweeps++
					want := tab.TotalEnergy(lab)
					if math.Abs(st.Energy-want) > 1e-9*math.Abs(want) {
						t.Errorf("trial %d workers %d sweep %d: incremental Energy %v, recompute %v", trial, workers, iter, st.Energy, want)
					}
				},
			})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if sweeps != sched.Iterations {
				t.Fatalf("trial %d workers %d: %d sweeps observed", trial, workers, sweeps)
			}
		}
	}
}

// referenceSolve is the pre-fusion solver loop (per-pixel gather + Sample,
// per-sweep closed-form temperature), kept as the behavioral oracle for the
// fused engines: for identical seeds the serial engine (workers == 1) and the
// tile engine at Workers = workers must reproduce it label for label. The
// parallel branch emulates workerGeometry pixel by pixel without the tile
// machinery: the grid splits into n row bands when it has at least n rows,
// otherwise into min(n, W) column bands, with the even split w*i/n, and band
// i draws from samplers[i].
func referenceSolve(t *testing.T, p *Problem, samplers []core.LabelSampler, sched Schedule, init *img.Labels, workers int) *img.Labels {
	t.Helper()
	tab := p.BuildTables()
	lab := init.Clone()
	energies := make([]float64, p.Labels)
	draw := func(s core.LabelSampler, x, y int) {
		tab.LabelEnergies(energies, lab, x, y)
		lab.Set(x, y, core.MustSample(s, energies, lab.At(x, y)))
	}
	rowBands := workers <= p.H
	bands := workers
	if !rowBands {
		bands = min(workers, p.W)
	}
	for k := 0; k < sched.Iterations; k++ {
		T := sched.Temperature(k)
		for _, s := range samplers {
			core.MustSetTemperature(s, T)
		}
		if workers == 1 {
			for y := 0; y < p.H; y++ {
				for x := 0; x < p.W; x++ {
					draw(samplers[0], x, y)
				}
			}
			continue
		}
		// Bands write disjoint same-color cells and read only other-color
		// neighbors, so emulating them one after another is exact.
		for color := 0; color < 2; color++ {
			for b := 0; b < bands; b++ {
				x0, x1, y0, y1 := 0, p.W, p.H*b/bands, p.H*(b+1)/bands
				if !rowBands {
					x0, x1, y0, y1 = p.W*b/bands, p.W*(b+1)/bands, 0, p.H
				}
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						if (x+y)%2 == color {
							draw(samplers[b], x, y)
						}
					}
				}
			}
		}
	}
	return lab
}

// TestFusedSolversMatchReference races the fused serial engine and the tile
// engine at Workers = 2, 3 against the pre-fusion reference loop on random
// problems with identically seeded RSU-G units. Any divergence — a stale
// row-block slot, a mis-split segment, a temperature-iterator draw shift —
// shows up as a label mismatch.
func TestFusedSolversMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(r)
		init := randomLabeling(r, p.W, p.H, p.Labels)
		sched := Schedule{T0: 8, Alpha: 0.9, Iterations: 20}
		for _, workers := range []int{1, 2, 3} {
			seed := uint64(500*trial + workers)
			mk := func() []core.LabelSampler {
				s := make([]core.LabelSampler, workers)
				for w := range s {
					s[w] = core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(core.StreamSeed(seed, w)), true)
				}
				return s
			}
			want := referenceSolve(t, p, mk(), sched, init, workers)
			got, err := solveSamplers(context.Background(), p, mk(), sched, SolveOptions{Init: init})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			for i := range got.L {
				if got.L[i] != want.L[i] {
					t.Fatalf("trial %d workers %d: label[%d] = %d, reference %d (grid %dx%d, %d labels)",
						trial, workers, i, got.L[i], want.L[i], p.W, p.H, p.Labels)
				}
			}
		}
	}
}

// TestWorkerGeometryMatchesReference is the randomized property test of the
// Workers → tile-geometry mapping: Solve at Workers n must reproduce the
// band-by-band reference pixel for pixel on random grids, including H % n ≠ 0
// (uneven row bands), n == H (one-row bands) and n > H (column bands). The seed is fixed and logged,
// so a failing configuration replays exactly.
func TestWorkerGeometryMatchesReference(t *testing.T) {
	const seed = 20261017
	t.Logf("seed %d", seed)
	r := rand.New(rand.NewSource(seed))
	// setup randomizes one configuration.
	setup := func() (p *Problem, n int, init *img.Labels, sched Schedule, executors int) {
		// w, h ∈ [1, 30]: from single pixels to grids with ragged bands.
		w, h := 1+r.Intn(30), 1+r.Intn(30)
		// n ∈ [2, 6] workers; any n > h selects column bands.
		n = 2 + r.Intn(5)
		// labels ∈ [2, 5].
		labels := 2 + r.Intn(4)
		p = randomShardProblem(r, w, h, labels)
		init = randomLabeling(r, w, h, labels)
		// 2-7 sweeps, from fixed-temperature sampling to a fast anneal.
		sched = Schedule{T0: 1 + r.Float64()*15, Alpha: 0.8 + r.Float64()*0.2, Iterations: 2 + r.Intn(6)}
		// executors ∈ [0, 4], 0 = the default rule; never changes the output.
		executors = r.Intn(5)
		return p, n, init, sched, executors
	}
	uneven, short, exact := 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		p, n, init, sched, executors := setup()
		switch {
		case n > p.H:
			short++
		case n == p.H:
			exact++
		case p.H%n != 0:
			uneven++
		}
		mk := func() []core.LabelSampler {
			s := make([]core.LabelSampler, n)
			for w := range s {
				s[w] = core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(core.StreamSeed(seed+uint64(trial), w)), true)
			}
			return s
		}
		want := referenceSolve(t, p, mk(), sched, init, n)
		got, err := solveSamplers(context.Background(), p, mk(), sched, SolveOptions{Init: init, executors: executors})
		if err != nil {
			t.Fatalf("trial %d (%dx%d, n=%d): %v", trial, p.W, p.H, n, err)
		}
		for i := range got.L {
			if got.L[i] != want.L[i] {
				t.Fatalf("trial %d (%dx%d, n=%d, %d labels): label[%d] = %d, reference %d",
					trial, p.W, p.H, n, p.Labels, i, got.L[i], want.L[i])
			}
		}
	}
	if uneven == 0 || short == 0 || exact == 0 {
		t.Fatalf("configurations exercised %d uneven-band, %d n > H and %d n == H cases, want all three", uneven, short, exact)
	}
}

// TestTemperatureIterMatchesClosedForm pins the running-product iterator to
// the public closed form within 1-ulp-per-step accumulation error, exact at
// the first two sweeps and for power-of-two Alpha.
func TestTemperatureIterMatchesClosedForm(t *testing.T) {
	scheds := []Schedule{
		{T0: 32, Alpha: 0.9, Iterations: 500},
		{T0: 4, Alpha: 0.5, Iterations: 200},
		{T0: 10, Alpha: 0.99, Iterations: 800},
		{T0: 7, Alpha: 1, Iterations: 50},
		{T0: 2, Alpha: 0.7, Iterations: 100, TFloor: 1e-2},
	}
	for si, s := range scheds {
		it := s.iter()
		for k := 0; k < s.Iterations; k++ {
			got := it.next()
			want := s.Temperature(k)
			// One rounding per multiplication: allow k half-ulps of drift.
			tol := float64(k+1) * want * 0x1p-52
			if math.Abs(got-want) > tol {
				t.Fatalf("schedule %d sweep %d: iter %v, closed form %v (tol %g)", si, k, got, want, tol)
			}
			if (k < 2 || s.Alpha == 1 || s.Alpha == 0.5) && got != want {
				t.Fatalf("schedule %d sweep %d: iter %v != closed form %v, want exact", si, k, got, want)
			}
		}
	}
}

// TestSerialSweepSteadyStateZeroAlloc is the fused-sweep allocation
// contract: once the sweeper and the sampler scratch are warm, a full sweep
// (including incremental energy tracking) performs zero allocations.
func TestSerialSweepSteadyStateZeroAlloc(t *testing.T) {
	p := twoRegionProblem(24, 16)
	tab := p.BuildTables()
	lab := img.NewLabels(p.W, p.H)
	u := core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(9), true)
	core.MustSetTemperature(u, 4)
	r := &run{p: p, lab: lab, samplers: []core.LabelSampler{u}, track: true, energy: tab.TotalEnergy(lab)}
	sw := newSerialSweeper(r, tab)
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
		t.Fatalf("steady-state fused serial sweep allocated %.1f objects/run, want 0", allocs)
	}
}

// TestSolveParallelExecutorInvariance pins the executors/workers split at
// Workers = 4: tiles (samplers, owned cells, RNG streams) fix the output,
// executors only schedule them, so every executor count — including the
// clamped and auto-resolved ones — must produce the bit-identical labeling.
// Running the full executor range also drives the cross-goroutine barriers
// under the race detector regardless of the host's core count.
func TestSolveParallelExecutorInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(4096))
	for trial := 0; trial < 4; trial++ {
		p := randomProblem(r)
		init := randomLabeling(r, p.W, p.H, p.Labels)
		sched := Schedule{T0: 8, Alpha: 0.9, Iterations: 12}
		const workers = 4
		mk := func() []core.LabelSampler {
			s := make([]core.LabelSampler, workers)
			for w := range s {
				s[w] = core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(core.StreamSeed(9000+uint64(trial), w)), true)
			}
			return s
		}
		var want *img.Labels
		for _, executors := range []int{1, 2, 3, 4, 7, 0} {
			got, err := solveSamplers(context.Background(), p, mk(), sched, SolveOptions{Init: init, executors: executors})
			if err != nil {
				t.Fatalf("trial %d executors %d: %v", trial, executors, err)
			}
			if want == nil {
				want = got
				continue
			}
			for i := range got.L {
				if got.L[i] != want.L[i] {
					t.Fatalf("trial %d executors %d: label[%d] = %d, want %d",
						trial, executors, i, got.L[i], want.L[i])
				}
			}
		}
	}
}
