package benchkit

import (
	"runtime"
	"time"

	"rsu/internal/apps/stereo"
	"rsu/internal/core"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/shard"
	"rsu/internal/synth"
)

// ShardSchema identifies the shard-sweep report format (BENCH_3.json).
const ShardSchema = "rsu-bench-shard/v1"

// shardSweepScale is the synthetic dataset scale of the sweep's stereo
// problem. Scale 4 is 256x192 — 16x the area of the micro-suite's poster
// scene, far past the auto-sharding threshold, with per-pixel label tables
// that no longer fit the L2 slice of one core.
const shardSweepScale = 4

// shardSweepSweeps matches the micro-suite's stereo-full-app sweep count so
// the two reports' per-solve times are comparable.
const shardSweepSweeps = 12

// shardSweepGeometries are the tilings the sweep measures against the
// worker-count baseline: a row split (north/south halos only), a square
// split, and an over-decomposed 4x2.
func shardSweepGeometries() []shard.Geometry {
	return []shard.Geometry{
		{Rows: 2, Cols: 1},
		{Rows: 2, Cols: 2},
		{Rows: 4, Cols: 2},
	}
}

// ShardSweep benchmarks tile geometries on an out-of-cache grid: one stereo
// solve of the scale-4 poster scene per op, first at the worker-count
// default (Workers = workers, i.e. workers×1 row-band tiles) and then at
// each explicit geometry. Result.NsOpBefore is the shared row-band
// baseline, NsOpAfter the geometry's time, so Speedup > 1 means that
// geometry won. workers selects the baseline's worker count (0 =
// GOMAXPROCS).
func ShardSweep(workers int) Report {
	w := mrf.ResolveWorkers(workers)
	prob := stereo.BuildProblem(synth.Poster(shardSweepScale), stereo.DefaultParams())
	tab := prob.BuildTables()
	sched := mrf.Schedule{T0: 32, Alpha: 0.99, Iterations: shardSweepSweeps}

	solve := func(g shard.Geometry) func(n int) {
		return func(n int) {
			for it := 0; it < n; it++ {
				// One converter cache per op, shared across workers/tiles —
				// the same reuse the serving layer gets (see stereoFullAppPair).
				cc := core.NewConverterCache(0)
				factory := core.StreamFactory(1, func(src rng.Source) core.LabelSampler {
					u := core.MustUnit(core.NewRSUG(), src, true)
					u.SetConverterCache(cc)
					return u
				})
				opts := mrf.SolveOptions{Workers: w, Tables: tab, Shards: g}
				if _, err := mrf.SolveAuto(prob, factory, sched, opts); err != nil {
					panic(err)
				}
			}
		}
	}

	// One solve per op is already seconds of work, so the nanosecond minTime
	// pins n to 1 and measure reduces to best-of-three whole solves.
	base := measure(time.Nanosecond, solve(shard.Geometry{}))
	rep := Report{Schema: ShardSchema, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: w}
	for _, g := range shardSweepGeometries() {
		after := measure(time.Nanosecond, solve(g))
		rep.Benchmarks = append(rep.Benchmarks, Result{
			Name:       "stereo-poster4-shard-" + g.String(),
			NsOpBefore: base,
			NsOpAfter:  after,
			Speedup:    base / after,
		})
	}
	return rep
}
