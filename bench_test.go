package rsu

import (
	"context"
	"testing"

	"rsu/internal/apps/stereo"
	"rsu/internal/core"
	"rsu/internal/experiments"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/perf"
	"rsu/internal/phase"
	"rsu/internal/ret"
	"rsu/internal/rng"
	"rsu/internal/rsim"
	"rsu/internal/shard"
	"rsu/internal/synth"
	"rsu/internal/uq"
)

// The experiment benchmarks run each paper table/figure driver end to end
// on reduced annealing schedules (IterScale) so the whole suite finishes in
// minutes; cmd/rsu-bench regenerates the full-fidelity numbers.

func benchOpts(iterScale float64) experiments.Options {
	return experiments.Options{Seed: 1, Scale: 1, IterScale: iterScale}
}

func runExperiment(b *testing.B, id string, iterScale float64) {
	b.Helper()
	r, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(benchOpts(iterScale)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B)       { runExperiment(b, "fig3", 0.1) }
func BenchmarkFig4(b *testing.B)       { runExperiment(b, "fig4", 0.1) }
func BenchmarkEnergyBits(b *testing.B) { runExperiment(b, "energybits", 0.05) }
func BenchmarkFig5a(b *testing.B)      { runExperiment(b, "fig5a", 0.05) }
func BenchmarkFig5b(b *testing.B)      { runExperiment(b, "fig5b", 0.1) }
func BenchmarkFig6(b *testing.B)       { runExperiment(b, "fig6", 0.1) }
func BenchmarkFig7(b *testing.B)       { runExperiment(b, "fig7", 0.05) }
func BenchmarkFig8(b *testing.B)       { runExperiment(b, "fig8", 0.05) }
func BenchmarkFig9a(b *testing.B)      { runExperiment(b, "fig9a", 0.1) }
func BenchmarkFig9b(b *testing.B)      { runExperiment(b, "fig9b", 0.1) }
func BenchmarkFig9c(b *testing.B)      { runExperiment(b, "fig9c", 0.1) }
func BenchmarkFig9d(b *testing.B)      { runExperiment(b, "fig9d", 0.2) }
func BenchmarkTable1(b *testing.B)     { runExperiment(b, "table1", 0.2) }
func BenchmarkTable2(b *testing.B)     { runExperiment(b, "table2", 1) }
func BenchmarkTable3(b *testing.B)     { runExperiment(b, "table3", 1) }
func BenchmarkTable4(b *testing.B)     { runExperiment(b, "table4", 0.1) }

func BenchmarkAccelerator(b *testing.B) { runExperiment(b, "accelerator", 0.1) }

func BenchmarkAblateTieBreak(b *testing.B)  { runExperiment(b, "ablate-tiebreak", 0.05) }
func BenchmarkAblateConverter(b *testing.B) { runExperiment(b, "ablate-converter", 0.1) }
func BenchmarkAblatePipeline(b *testing.B)  { runExperiment(b, "ablate-pipeline", 1) }
func BenchmarkAblateDevice(b *testing.B)    { runExperiment(b, "ablate-device", 0.05) }

func BenchmarkExtBarker(b *testing.B)    { runExperiment(b, "ext-barker", 0.02) }
func BenchmarkExtPhaseType(b *testing.B) { runExperiment(b, "ext-phasetype", 0.1) }
func BenchmarkExtPyramid(b *testing.B)   { runExperiment(b, "ext-pyramid", 0.1) }
func BenchmarkExtBleaching(b *testing.B) { runExperiment(b, "ext-bleaching", 0.3) }

// --- microbenchmarks of the sampler hot paths ---

func benchUnitSample(b *testing.B, cfg core.Config, labels int) {
	b.Helper()
	u := core.MustUnit(cfg, rng.NewXoshiro256(1), true)
	u.SetTemperature(20)
	energies := make([]float64, labels)
	for i := range energies {
		energies[i] = float64(i * 200 / labels)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Sample(energies, 0)
	}
}

func BenchmarkUnitSampleNew8(b *testing.B)   { benchUnitSample(b, core.NewRSUG(), 8) }
func BenchmarkUnitSampleNew56(b *testing.B)  { benchUnitSample(b, core.NewRSUG(), 56) }
func BenchmarkUnitSamplePrev56(b *testing.B) { benchUnitSample(b, core.PrevRSUG(), 56) }

// benchLabelEnergies times the per-pixel energy stage on a stereo problem,
// either through the precomputed pairwise LUT (tables=true, the solver
// default) or the direct per-call evaluation it replaced.
func benchLabelEnergies(b *testing.B, tables bool) {
	b.Helper()
	prob := stereo.BuildProblem(synth.Poster(1), stereo.DefaultParams())
	tab := prob.BuildTables()
	tab.FloatSingles()
	lab := img.NewLabels(prob.W, prob.H)
	for i := range lab.L {
		lab.L[i] = i % prob.Labels
	}
	dst := make([]float64, prob.Labels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := i%prob.W, (i/prob.W)%prob.H
		if tables {
			tab.LabelEnergies(dst, lab, x, y)
		} else {
			prob.LabelEnergies(dst, lab, x, y)
		}
	}
}

func BenchmarkLabelEnergiesTables(b *testing.B) { benchLabelEnergies(b, true) }
func BenchmarkLabelEnergiesDirect(b *testing.B) { benchLabelEnergies(b, false) }

// BenchmarkBuildTablesStereo times the table build of the teddy ×4 stereo
// problem (256×192 pixels, 56 labels, 2.75 M singleton entries) with each
// form of the data term built on first use: the data-term closure and the
// row-banded fill, writing 8-byte floats (float) or 1-byte codes (code).
// Run it at -cpu 1,2 to see the single-core cost next to the banded one.
func BenchmarkBuildTablesStereo(b *testing.B) {
	prob := stereo.BuildProblem(synth.Teddy(4), stereo.DefaultParams())
	b.Run("float", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			prob.BuildTables().FloatSingles()
		}
	})
	b.Run("code", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if prob.BuildTables().CodeSingles() == nil {
				b.Fatal("teddy x4 does not qualify for the code form")
			}
		}
	})
}

// BenchmarkLabelEnergiesRow times the fused row gather the serial sweep
// uses: one op fills a whole W×Labels block (compare against W iterations
// of BenchmarkLabelEnergiesTables).
func BenchmarkLabelEnergiesRow(b *testing.B) {
	prob := stereo.BuildProblem(synth.Poster(1), stereo.DefaultParams())
	tab := prob.BuildTables()
	tab.FloatSingles()
	lab := img.NewLabels(prob.W, prob.H)
	for i := range lab.L {
		lab.L[i] = i % prob.Labels
	}
	block := make([]float64, prob.W*prob.Labels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.LabelEnergiesRow(block, lab, i%prob.H)
	}
}

// BenchmarkSampleBatch times the fused batched draw: one op draws a whole
// 96-pixel same-color segment through Unit.SampleBatch.
func BenchmarkSampleBatch(b *testing.B) {
	const seg, labels = 96, 8
	u := core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(1), true)
	u.SetTemperature(20)
	block := make([]float64, seg*labels)
	for i := range block {
		block[i] = float64((i % labels) * 200 / labels)
	}
	currents := make([]int, seg)
	out := make([]int, seg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := u.SampleBatch(block, labels, currents, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlipDelta times the incremental-energy building block the
// fused sweeps charge per accepted flip.
func BenchmarkFlipDelta(b *testing.B) {
	prob := stereo.BuildProblem(synth.Poster(1), stereo.DefaultParams())
	tab := prob.BuildTables()
	tab.FloatSingles() // FlipDelta reads the float form once it is built
	lab := img.NewLabels(prob.W, prob.H)
	for i := range lab.L {
		lab.L[i] = i % prob.Labels
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		idx := (i * 37) % (prob.W * prob.H)
		x, y := idx%prob.W, idx/prob.W
		cur := lab.At(x, y)
		sink += tab.FlipDelta(lab, x, y, cur, (cur+1)%prob.Labels)
	}
	_ = sink
}

func BenchmarkSoftwareSample56(b *testing.B) {
	s := core.NewSoftwareSampler(rng.NewXoshiro256(1))
	s.SetTemperature(20)
	energies := make([]float64, 56)
	for i := range energies {
		energies[i] = float64(i * 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(energies, 0)
	}
}

func BenchmarkMachineSample8(b *testing.B) {
	m, err := rsim.NewMachine(core.NewRSUG(), ret.SPAD{}, rng.NewXoshiro256(1))
	if err != nil {
		b.Fatal(err)
	}
	m.SetTemperature(20)
	energies := []float64{0, 25, 50, 75, 100, 125, 150, 175}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sample(energies, 0)
	}
}

func BenchmarkBarkerSample56(b *testing.B) {
	s, err := core.NewBarkerSampler(core.NewRSUG(), rng.NewXoshiro256(1))
	if err != nil {
		b.Fatal(err)
	}
	s.SetTemperature(20)
	energies := make([]float64, 56)
	for i := range energies {
		energies[i] = float64(i * 4)
	}
	state := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state = core.MustSample(s, energies, state)
	}
}

func BenchmarkPhaseCascade8(b *testing.B) {
	codes := []int{4, 4, 4, 4, 4, 4, 4, 4}
	s, err := phase.NewRETSampler(core.NewRSUG(), codes, rng.NewXoshiro256(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}

func BenchmarkLUTRebuild(b *testing.B) {
	b.ReportAllocs()
	cfg := core.NewRSUG()
	for i := 0; i < b.N; i++ {
		core.NewLUTConverter(cfg, 1+float64(i%50))
	}
}

func BenchmarkBoundaryRebuild(b *testing.B) {
	b.ReportAllocs()
	cfg := core.NewRSUG()
	for i := 0; i < b.N; i++ {
		core.NewBoundaryConverter(cfg, 1+float64(i%50))
	}
}

func BenchmarkGibbsSweepStereo(b *testing.B) {
	pair := synth.Poster(1)
	p := stereo.DefaultParams()
	p.Schedule = mrf.Schedule{T0: 32, Alpha: 0.99, Iterations: 1}
	u := core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(1), true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stereo.Solve(pair, u, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGibbsSweepStereoParallel is the full-app solve on the
// checkerboard-parallel path: per-worker sampler streams, 4 workers.
func BenchmarkGibbsSweepStereoParallel(b *testing.B) {
	pair := synth.Poster(1)
	p := stereo.DefaultParams()
	p.Schedule = mrf.Schedule{T0: 32, Alpha: 0.99, Iterations: 1}
	p.Workers = 4
	p.SamplerFactory = core.StreamFactory(1, func(src rng.Source) core.LabelSampler {
		return core.MustUnit(core.NewRSUG(), src, true)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stereo.Solve(pair, nil, p); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSolveWithCollector measures the uq collection overhead on a full
// stereo sweep at the mrf.Solve level: the accumulator is built once outside
// the loop (its allocation is setup, not per-solve cost), so the with/without
// delta is exactly the per-sweep histogram pass. Compare the two benchmarks
// to read off the Collector hook's cost; with collect=false the hook is a
// nil check and the numbers must match the plain solve.
func benchSolveWithCollector(b *testing.B, collect bool) {
	b.Helper()
	prob := stereo.BuildProblem(synth.Poster(1), stereo.DefaultParams())
	sched := mrf.Schedule{T0: 32, Alpha: 0.99, Iterations: 1}
	u := core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(1), true)
	one := func(int) core.LabelSampler { return u }
	opts := mrf.SolveOptions{Workers: 1}
	if collect {
		acc, err := uq.NewAccumulator(prob.W, prob.H, prob.Labels, uq.Options{BurnIn: 0, Thin: 1})
		if err != nil {
			b.Fatal(err)
		}
		opts.Collector = acc
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mrf.Solve(context.Background(), prob, one, sched, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveWithCollector(b *testing.B)    { benchSolveWithCollector(b, true) }
func BenchmarkSolveWithoutCollector(b *testing.B) { benchSolveWithCollector(b, false) }

// BenchmarkSolveTeddyX10 times two sweeps of the teddy ×10 stereo problem
// (640×480 pixels, 56 labels) on the default geometry (Workers 0,
// shard.Auto: 2×3 tiles) from prebuilt tables. The new RSU-G reads the
// 17 MB code form of the data term, which is still far past L2, so this is
// the suite's one solve that streams the table from memory: the benchmark
// for the gather's layout. It reports the bytes of each form the solves
// built (float_B, code_B) and of the code form's window tables (window_B,
// mostly one minimum single per pixel); the float form would be 138 MB.
func BenchmarkSolveTeddyX10(b *testing.B) {
	prob := stereo.BuildProblem(synth.Teddy(10), stereo.DefaultParams())
	opts := mrf.SolveOptions{Tables: prob.BuildTables()}
	sched := mrf.Schedule{T0: 32, Alpha: 0.7, Iterations: 2}
	factory := core.StreamFactory(1, func(src rng.Source) core.LabelSampler {
		return core.MustUnit(core.NewRSUG(), src, true)
	})
	// A warm-up solve builds the form of the data term the solves read.
	if _, err := mrf.Solve(context.Background(), prob, factory, sched, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mrf.Solve(context.Background(), prob, factory, sched, opts); err != nil {
			b.Fatal(err)
		}
	}
	reportFormBytes(b, opts.Tables)
}

// BenchmarkSolveTeddyAnneal times the stereo app's whole solve of teddy ×1
// (64×48 pixels, 56 labels, the app's 500-sweep schedule from T0 32) on
// 2×1 tiles from prebuilt tables: the table fits in cache, so the
// sampler, the gather and the barriers dominate. Most of its sweeps run
// at temperatures where the cut-off leaves a few labels live, which the
// checker tiles' windowed code gather exploits; from about sweep 100 on
// few pixels flip and most keep one live label, so most visits take that
// label from the live-set memo and skip the gather. It reports the same
// form bytes as BenchmarkSolveTeddyX10.
func BenchmarkSolveTeddyAnneal(b *testing.B) {
	params := stereo.DefaultParams()
	prob := stereo.BuildProblem(synth.Teddy(1), params)
	opts := mrf.SolveOptions{Tables: prob.BuildTables(), Shards: shard.Geometry{Rows: 2, Cols: 1}}
	factory := core.StreamFactory(1, func(src rng.Source) core.LabelSampler {
		return core.MustUnit(core.NewRSUG(), src, true)
	})
	// A warm-up solve builds the form of the data term the solves read.
	if _, err := mrf.Solve(context.Background(), prob, factory, params.Schedule, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mrf.Solve(context.Background(), prob, factory, params.Schedule, opts); err != nil {
			b.Fatal(err)
		}
	}
	reportFormBytes(b, opts.Tables)
}

// reportFormBytes reports the bytes of each form of the data term tab has
// built (float_B, code_B) and of the code form's window tables (window_B).
func reportFormBytes(b *testing.B, tab *mrf.Tables) {
	b.ReportMetric(float64(len(tab.Singles)*8), "float_B")
	b.ReportMetric(float64(len(tab.Codes)), "code_B")
	b.ReportMetric(float64(tab.WindowBytes()), "window_B")
}

func BenchmarkPerfModel(b *testing.B) {
	b.ReportAllocs()
	m := perf.DefaultModel()
	for i := 0; i < b.N; i++ {
		m.TableII()
	}
}

func BenchmarkXoshiro(b *testing.B) {
	b.ReportAllocs()
	src := rng.NewXoshiro256(1)
	for i := 0; i < b.N; i++ {
		src.Uint64()
	}
}

func BenchmarkMT19937(b *testing.B) {
	b.ReportAllocs()
	src := rng.NewMT19937(1)
	for i := 0; i < b.N; i++ {
		src.Uint32()
	}
}

func BenchmarkLFSR19Bit(b *testing.B) {
	b.ReportAllocs()
	src := rng.NewLFSR19(1)
	for i := 0; i < b.N; i++ {
		src.NextBit()
	}
}

func BenchmarkExponentialDraw(b *testing.B) {
	b.ReportAllocs()
	src := rng.NewXoshiro256(1)
	for i := 0; i < b.N; i++ {
		rng.Exponential(src, 4)
	}
}

func BenchmarkExtForster(b *testing.B) { runExperiment(b, "ext-forster", 0.2) }
func BenchmarkExtMixing(b *testing.B)  { runExperiment(b, "ext-mixing", 0.2) }

func BenchmarkExtPareto(b *testing.B) { runExperiment(b, "ext-pareto", 0.05) }

func BenchmarkExtRNGBattery(b *testing.B) { runExperiment(b, "ext-rng", 0.25) }

func BenchmarkExtIsing(b *testing.B) { runExperiment(b, "ext-ising", 0.15) }
