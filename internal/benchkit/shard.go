package benchkit

import (
	"context"
	"fmt"
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

// ShardResult is one tile geometry's solve time against the row-band
// baseline's: Speedup = NsOpBefore / NsOpAfter, so > 1 means the geometry
// won.
type ShardResult struct {
	Name       string  `json:"name"`
	NsOpBefore float64 `json:"ns_op_before"`
	NsOpAfter  float64 `json:"ns_op_after"`
	Speedup    float64 `json:"speedup"`
}

// ShardReport is the shard-sweep output. NumCPU and GOMAXPROCS record the
// host; a parallel number is only valid when GOMAXPROCS and Workers do not
// exceed NumCPU (reports written before NumCPU existed load it as 0).
type ShardReport struct {
	Schema     string        `json:"schema"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Workers    int           `json:"workers"`
	Benchmarks []ShardResult `json:"benchmarks"`
}

// shardSweepScale is the synthetic dataset scale of the sweep's stereo
// problem. Scale 4 is 256x192 — 16x the area of the micro-suite's poster
// scene, far past the auto-sharding threshold, with per-pixel label tables
// that no longer fit the L2 slice of one core.
const shardSweepScale = 4

// shardSweepSweeps is the annealing slice each solve runs: enough sweeps to
// dominate setup costs while keeping the sweep fast.
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
// each explicit geometry; each time is the best of three solves. workers
// selects the baseline's worker count (0 = GOMAXPROCS).
func ShardSweep(workers int) ShardReport {
	w := mrf.ResolveWorkers(workers)
	prob := stereo.BuildProblem(synth.Poster(shardSweepScale), stereo.DefaultParams())
	tab := prob.BuildTables()
	sched := mrf.Schedule{T0: 32, Alpha: 0.99, Iterations: shardSweepSweeps}

	// solve returns the best of three solves' ns at geometry g.
	solve := func(g shard.Geometry) float64 {
		best := 0.0
		for r := 0; r < 3; r++ {
			// One converter cache per solve, shared across workers/tiles —
			// the same reuse the serving layer gets.
			cc := core.NewConverterCache(0)
			factory := core.StreamFactory(1, func(src rng.Source) core.LabelSampler {
				u := core.MustUnit(core.NewRSUG(), src, true)
				u.SetConverterCache(cc)
				return u
			})
			opts := mrf.SolveOptions{Workers: w, Tables: tab, Shards: g}
			runtime.GC()
			start := time.Now()
			if _, err := mrf.Solve(context.Background(), prob, factory, sched, opts); err != nil {
				panic(err)
			}
			if ns := float64(time.Since(start)); r == 0 || ns < best {
				best = ns
			}
		}
		return best
	}

	base := solve(shard.Geometry{})
	rep := ShardReport{Schema: ShardSchema, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: w}
	for _, g := range shardSweepGeometries() {
		after := solve(g)
		rep.Benchmarks = append(rep.Benchmarks, ShardResult{
			Name:       "stereo-poster4-shard-" + g.String(),
			NsOpBefore: base,
			NsOpAfter:  after,
			Speedup:    base / after,
		})
	}
	return rep
}

// String renders the report as an aligned table.
func (r ShardReport) String() string {
	s := fmt.Sprintf("%s (NumCPU %d, GOMAXPROCS %d, workers %d)\n", r.Schema, r.NumCPU, r.GOMAXPROCS, r.Workers)
	s += fmt.Sprintf("%-28s %14s %14s %9s\n", "benchmark", "before ns/op", "after ns/op", "speedup")
	for _, b := range r.Benchmarks {
		s += fmt.Sprintf("%-28s %14.1f %14.1f %8.2fx\n", b.Name, b.NsOpBefore, b.NsOpAfter, b.Speedup)
	}
	return s
}
