// Package benchkit measures the repository's performance-critical paths
// before and after the optimized implementations: the legacy sampling
// kernels vs the categorical/inverse-CDF fast kernels, the direct
// per-call energy evaluation vs the pairwise-distance LUT, and the serial
// solver vs the checkerboard-parallel solver. cmd/rsu-bench -perf runs the
// suite and writes the machine-readable BENCH_<n>.json report that tracks
// the performance trajectory across PRs.
package benchkit

import (
	"fmt"
	"runtime"
	"time"

	"rsu/internal/apps/stereo"
	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/synth"
)

// Schema identifies the report format.
const Schema = "rsu-bench-perf/v1"

// Result is one before/after benchmark pair.
type Result struct {
	Name       string  `json:"name"`
	NsOpBefore float64 `json:"ns_op_before"`
	NsOpAfter  float64 `json:"ns_op_after"`
	Speedup    float64 `json:"speedup"`
}

// Report is the full suite output. NumCPU and GOMAXPROCS record the host
// the suite ran on (reports written before NumCPU existed load it as 0); a
// parallel number is only valid when GOMAXPROCS and Workers do not exceed
// NumCPU.
type Report struct {
	Schema     string   `json:"schema"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Workers    int      `json:"workers"`
	Benchmarks []Result `json:"benchmarks"`
}

// measure times fn(n) with testing.B-style calibration: n grows until one
// run takes at least minTime, and the fastest of three such runs wins
// (per-op noise shrinks as n grows).
func measure(minTime time.Duration, fn func(n int)) float64 {
	n := 1
	var elapsed time.Duration
	for {
		// Collect garbage left by earlier pairs (or the other side of this
		// one) so its mark phase doesn't tax the timed region — on a
		// single-core box the background collector competes directly with
		// the benchmark. Applied identically to both sides of every pair.
		runtime.GC()
		start := time.Now()
		fn(n)
		elapsed = time.Since(start)
		if elapsed >= minTime || n >= 1<<30 {
			break
		}
		grow := int64(n) * 2
		if elapsed > 0 {
			// Aim directly for 1.2x minTime.
			grow = int64(float64(n) * 1.2 * float64(minTime) / float64(elapsed))
			if grow < int64(n)+1 {
				grow = int64(n) + 1
			}
			if grow > int64(n)*10 {
				grow = int64(n) * 10
			}
		}
		n = int(grow)
	}
	best := float64(elapsed) / float64(n)
	for r := 0; r < 2; r++ {
		runtime.GC()
		start := time.Now()
		fn(n)
		if v := float64(time.Since(start)) / float64(n); v < best {
			best = v
		}
	}
	return best
}

func pair(name string, minTime time.Duration, before, after func(n int)) Result {
	b := measure(minTime, before)
	a := measure(minTime, after)
	return Result{Name: name, NsOpBefore: b, NsOpAfter: a, Speedup: b / a}
}

// benchEnergies builds the energy vector the Unit.Sample benchmarks share.
func benchEnergies(labels int) []float64 {
	energies := make([]float64, labels)
	for i := range energies {
		energies[i] = float64(i * 200 / labels)
	}
	return energies
}

// unitSamplePair benchmarks Unit.Sample with legacy vs fast kernels.
func unitSamplePair(name string, cfg core.Config, labels int) Result {
	run := func(legacy bool) func(n int) {
		return func(n int) {
			u := core.MustUnit(cfg, rng.NewXoshiro256(1), true)
			u.SetLegacyKernels(legacy)
			core.MustSetTemperature(u, 20)
			energies := benchEnergies(labels)
			cur := 0
			for i := 0; i < n; i++ {
				cur = core.MustSample(u, energies, cur)
			}
		}
	}
	return pair(name, 50*time.Millisecond, run(true), run(false))
}

// labelEnergiesPair benchmarks the energy stage: direct per-call evaluation
// vs the precomputed pairwise-distance LUT, over every pixel of a stereo
// problem.
func labelEnergiesPair() Result {
	prob := stereo.BuildProblem(synth.Poster(1), stereo.DefaultParams())
	tab := prob.BuildTables()
	lab := img.NewLabels(prob.W, prob.H)
	for i := range lab.L {
		lab.L[i] = i % prob.Labels
	}
	dst := make([]float64, prob.Labels)
	before := func(n int) {
		for i := 0; i < n; i++ {
			x, y := i%prob.W, (i/prob.W)%prob.H
			prob.LabelEnergies(dst, tab.Singles, lab, x, y)
		}
	}
	after := func(n int) {
		for i := 0; i < n; i++ {
			x, y := i%prob.W, (i/prob.W)%prob.H
			tab.LabelEnergies(dst, lab, x, y)
		}
	}
	return pair("label-energies-stereo", 50*time.Millisecond, before, after)
}

// benchLabeling builds the striped labeling the kernel benchmarks share.
func benchLabeling(prob *mrf.Problem) *img.Labels {
	lab := img.NewLabels(prob.W, prob.H)
	for i := range lab.L {
		lab.L[i] = i % prob.Labels
	}
	return lab
}

// rowKernelPair benchmarks one row's energy gathers on the stereo problem:
// per-pixel LabelEnergies calls vs one fused LabelEnergiesRow block.
func rowKernelPair() Result {
	prob := stereo.BuildProblem(synth.Poster(1), stereo.DefaultParams())
	tab := prob.BuildTables()
	lab := benchLabeling(prob)
	dst := make([]float64, prob.Labels)
	block := make([]float64, prob.W*prob.Labels)
	before := func(n int) {
		for i := 0; i < n; i++ {
			y := i % prob.H
			for x := 0; x < prob.W; x++ {
				tab.LabelEnergies(dst, lab, x, y)
			}
		}
	}
	after := func(n int) {
		for i := 0; i < n; i++ {
			tab.LabelEnergiesRow(block, lab, i%prob.H)
		}
	}
	return pair("sweep-row-kernel", 50*time.Millisecond, before, after)
}

// sampleBatchPair benchmarks drawing one same-color row segment through the
// RSU-G unit: a per-pixel Sample loop vs one fused SampleBatch call (one op
// = one whole segment either way).
func sampleBatchPair() Result {
	const seg, labels = 96, 8
	energies := benchEnergies(labels)
	block := make([]float64, seg*labels)
	for i := 0; i < seg; i++ {
		copy(block[i*labels:(i+1)*labels], energies)
	}
	currents := make([]int, seg)
	out := make([]int, seg)
	run := func(batched bool) func(n int) {
		return func(n int) {
			u := core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(1), true)
			core.MustSetTemperature(u, 20)
			for i := 0; i < n; i++ {
				if batched {
					if err := u.SampleBatch(block, labels, currents, out); err != nil {
						panic(err)
					}
				} else {
					for j := 0; j < seg; j++ {
						out[j] = core.MustSample(u, block[j*labels:(j+1)*labels], currents[j])
					}
				}
			}
		}
	}
	return pair("sample-batch", 50*time.Millisecond, run(false), run(true))
}

// energyIncrementalPair benchmarks per-sweep energy observability on the
// stereo problem: a full TotalEnergy recomputation vs replaying a typical
// mid-anneal sweep's flips (5% of pixels) through FlipDelta.
func energyIncrementalPair() Result {
	prob := stereo.BuildProblem(synth.Poster(1), stereo.DefaultParams())
	tab := prob.BuildTables()
	lab := benchLabeling(prob)
	flips := prob.W * prob.H / 20
	before := func(n int) {
		var sink float64
		for i := 0; i < n; i++ {
			sink += tab.TotalEnergy(lab)
		}
		_ = sink
	}
	after := func(n int) {
		var sink float64
		for i := 0; i < n; i++ {
			for f := 0; f < flips; f++ {
				idx := (f*37 + i) % (prob.W * prob.H)
				x, y := idx%prob.W, idx/prob.W
				cur := lab.At(x, y)
				sink += tab.FlipDelta(lab, x, y, cur, (cur+1)%prob.Labels)
			}
		}
		_ = sink
	}
	return pair("energy-incremental", 50*time.Millisecond, before, after)
}

// stereoSweeps is the annealing slice the full-app benchmark runs: enough
// sweeps to dominate setup costs while keeping the suite fast.
const stereoSweeps = 12

// stereoFullAppPair benchmarks the end-to-end stereo hot loop: the seed
// implementation (serial sweeps, per-call LabelEnergies, legacy kernels)
// against the current default path (checkerboard-parallel solver with
// `workers` workers, LUT energy stage, fast kernels).
func stereoFullAppPair(workers int) Result {
	pairData := synth.Poster(1)
	params := stereo.DefaultParams()
	prob := stereo.BuildProblem(pairData, params)
	sched := mrf.Schedule{T0: 32, Alpha: 0.99, Iterations: stereoSweeps}

	before := func(n int) {
		for it := 0; it < n; it++ {
			// The pre-optimization solver loop: raster scan, direct energy
			// evaluation, legacy sampling kernels.
			u := core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(1), true)
			u.SetLegacyKernels(true)
			singles := prob.BuildTables().Singles
			lab := img.NewLabels(prob.W, prob.H)
			energies := make([]float64, prob.Labels)
			for k := 0; k < sched.Iterations; k++ {
				core.MustSetTemperature(u, sched.Temperature(k))
				for y := 0; y < prob.H; y++ {
					for x := 0; x < prob.W; x++ {
						prob.LabelEnergies(energies, singles, lab, x, y)
						lab.Set(x, y, core.MustSample(u, energies, lab.At(x, y)))
					}
				}
			}
		}
	}
	tab := prob.BuildTables()
	after := func(n int) {
		for it := 0; it < n; it++ {
			// Workers share one converter cache, as the serving layer does:
			// every worker replays the same deterministic temperature ladder,
			// so one LUT build per sweep serves all of them.
			cc := core.NewConverterCache(0)
			factory := core.StreamFactory(1, func(src rng.Source) core.LabelSampler {
				u := core.MustUnit(core.NewRSUG(), src, true)
				u.SetConverterCache(cc)
				return u
			})
			opts := mrf.SolveOptions{Workers: workers, Tables: tab}
			if _, err := mrf.SolveAuto(prob, factory, sched, opts); err != nil {
				panic(err)
			}
		}
	}
	return pair("stereo-full-app", 400*time.Millisecond, before, after)
}

// scheduleTemperaturePair benchmarks a full annealing ladder's temperature
// computation: the closed form vs the O(k) loop it replaced.
func scheduleTemperaturePair() Result {
	s := mrf.Schedule{T0: 32, Alpha: 0.9885, Iterations: 500}
	before := func(n int) {
		var sink float64
		for i := 0; i < n; i++ {
			for k := 0; k < s.Iterations; k++ {
				t := s.T0
				for j := 0; j < k; j++ {
					t *= s.Alpha
				}
				if t < 1e-4 {
					t = 1e-4
				}
				sink += t
			}
		}
		_ = sink
	}
	after := func(n int) {
		var sink float64
		for i := 0; i < n; i++ {
			for k := 0; k < s.Iterations; k++ {
				sink += s.Temperature(k)
			}
		}
		_ = sink
	}
	return pair("schedule-temperature-500", 50*time.Millisecond, before, after)
}

// Run executes the full suite. workers selects the parallel solver's worker
// count for the full-app benchmark (0 = GOMAXPROCS). The micro-benchmarks
// are single-threaded; the full-app pair runs on however many cores the
// host gives it — the suite never raises GOMAXPROCS.
func Run(workers int) Report {
	w := mrf.ResolveWorkers(workers)
	rep := Report{Schema: Schema, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: w}
	rep.Benchmarks = []Result{
		unitSamplePair("unit-sample-new8", core.NewRSUG(), 8),
		unitSamplePair("unit-sample-new56", core.NewRSUG(), 56),
		unitSamplePair("unit-sample-prev56", core.PrevRSUG(), 56),
		labelEnergiesPair(),
		rowKernelPair(),
		sampleBatchPair(),
		energyIncrementalPair(),
		scheduleTemperaturePair(),
		stereoFullAppPair(w),
	}
	return rep
}

// String renders the report as an aligned table.
func (r Report) String() string {
	s := fmt.Sprintf("%s (NumCPU %d, GOMAXPROCS %d, workers %d)\n", r.Schema, r.NumCPU, r.GOMAXPROCS, r.Workers)
	s += fmt.Sprintf("%-28s %14s %14s %9s\n", "benchmark", "before ns/op", "after ns/op", "speedup")
	for _, b := range r.Benchmarks {
		s += fmt.Sprintf("%-28s %14.1f %14.1f %8.2fx\n", b.Name, b.NsOpBefore, b.NsOpAfter, b.Speedup)
	}
	return s
}
