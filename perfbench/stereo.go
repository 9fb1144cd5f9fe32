package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"rsu/internal/apps/stereo"
	"rsu/internal/checkpoint"
	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/metrics"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/shard"
	"rsu/internal/synth"
)

// stereoCase fixes one closed-loop stereo workload: one client solving the
// same scene back to back, cycling through a few seeds so every seed's
// labels can be compared with an earlier solve of the same seed.
type stereoCase struct {
	scale int
	// sched overrides the app's 500-sweep schedule when Iterations > 0.
	sched mrf.Schedule
	// viaApp runs stereo.Solve with `workers` solver workers (the pool
	// engine); otherwise mrf.SolveAuto runs on prebuilt tables with
	// Workers 0, which shards grids of mrf.AutoShardPixels or more.
	viaApp  bool
	workers int
	// shards forces a geometry; only the tiny size uses it, to keep the
	// sharded engine on a grid below the auto-shard threshold.
	shards          shard.Geometry
	checkpointEvery int
	seeds           int
	setupReps       int
	band            band
	calib           speedLog
}

func stereoCaseFor(name string, tiny bool) stereoCase {
	switch {
	case name == "stereo-anneal" && !tiny:
		return stereoCase{scale: 1, viaApp: true, workers: 2, seeds: 8, setupReps: 7, band: refAnnealBP, calib: refCalibAnneal}
	case name == "stereo-anneal":
		return stereoCase{scale: 1, viaApp: true, workers: 2, seeds: 2, setupReps: 2, band: tinyBP,
			sched: mrf.Schedule{T0: 32, Alpha: 0.9, Iterations: 20}, calib: refCalibAnneal}
	case !tiny:
		return stereoCase{scale: 10, sched: largeSchedule, checkpointEvery: 4, seeds: 2, setupReps: 3, band: refLargeBP, calib: refCalibLarge}
	default:
		return stereoCase{scale: 2, sched: largeSchedule, shards: shard.Geometry{Rows: 2, Cols: 3}, checkpointEvery: 4,
			seeds: 2, setupReps: 2, band: tinyBP, calib: refCalibLarge}
	}
}

// stereoRun is a stereo workload after set-up.
type stereoRun struct {
	c     stereoCase
	cfg   config
	build func(src rng.Source) core.LabelSampler
	pair  *synth.StereoPair
	prob  *mrf.Problem
	tab   *mrf.Tables
	sched mrf.Schedule
	seeds []uint64
	ref   map[uint64]uint64 // seed → label hash of its first untraced solve
	// tracedSame counts traced solves whose labels equal the untraced
	// solve of the same seed, out of tracedAll.
	tracedSame, tracedAll int
	synthS                []float64
	tableS                []float64
	setup                 timings
	cal                   speedLog
}

// setup builds the scene, problem and tables and runs one warm-up solve,
// setupReps times, calibrating the host's speed between the repetitions;
// setup_s is the median of the scaled times.
func (r *stereoRun) runSetup(rep *report) error {
	for i := 0; i < r.c.setupReps; i++ {
		r.pair, r.prob, r.tab = nil, nil, nil
		runtime.GC()
		debug.FreeOSMemory()
		r.cal.sample(calibPerOp)
		t0 := time.Now()
		pair := synth.Teddy(r.c.scale)
		t1 := time.Now()
		prob := stereo.BuildProblem(pair, stereo.DefaultParams())
		tab := prob.BuildTables()
		t2 := time.Now()
		r.pair, r.prob, r.tab = pair, prob, tab
		// The warm-up solve fixes the reference hash of the first seed.
		if _, err := r.solve(rep, r.seeds[0], nil, nil, nil); err != nil {
			return fmt.Errorf("warm-up solve: %w", err)
		}
		r.synthS = append(r.synthS, t1.Sub(t0).Seconds())
		r.tableS = append(r.tableS, t2.Sub(t1).Seconds())
		r.setup.add(t0, time.Now(), 0)
	}
	r.cal.sample(calibPerOp)
	return nil
}

// solveOut is one solve's observable result.
type solveOut struct {
	wall time.Duration
	bp   float64
}

// solve runs one solve and checks its output: BP inside the reference band,
// and labels identical to every earlier solve of the same seed (traced or
// not). probe, when non-nil, observes the solve and its spans go to tr.
func (r *stereoRun) solve(rep *report, seed uint64, probe *solveProbe, tr *tracer, acc *layerAcc) (solveOut, error) {
	factory := core.StreamFactory(seed, r.build)
	if probe != nil {
		factory = probe.factory(factory, r.cfg.wrapTraced)
	}
	start := time.Now()
	var (
		lab      *img.Labels
		bp       float64
		mrfStart time.Time
		mrfEnd   time.Time
		err      error
	)
	if r.c.viaApp {
		p := stereo.DefaultParams()
		if r.c.sched.Iterations > 0 {
			p.Schedule = r.c.sched
		}
		p.SamplerFactory, p.Workers = factory, r.c.workers
		if probe != nil {
			p.OnSweep = probe.onSweep
		}
		var res *stereo.Result
		res, err = stereo.Solve(r.pair, nil, p)
		if err == nil {
			lab, bp = res.Disparity, res.BP
		}
	} else {
		opts := mrf.SolveOptions{Workers: r.c.workers, Shards: r.c.shards, Tables: r.tab, CheckpointEvery: r.c.checkpointEvery}
		if probe != nil {
			opts.OnSweep = probe.onSweep
		}
		if r.c.checkpointEvery > 0 {
			opts.OnCheckpoint = func(st *mrf.SolverState) error {
				entry := time.Now()
				b := checkpoint.Encode(&checkpoint.Snapshot{App: "stereo", Sampler: "new", Seed: seed, Schedule: r.sched, State: *st})
				if probe != nil {
					probe.captures = append(probe.captures, captureObs{sweepReturn: probe.lastReturn, entry: entry,
						encStart: entry, encEnd: time.Now(), bytes: len(b)})
				}
				return nil
			}
		}
		mrfStart = time.Now()
		lab, err = mrf.SolveAuto(r.prob, factory, r.sched, opts)
		mrfEnd = time.Now()
		if err == nil {
			bp = metrics.BadPixelPct(lab, r.pair.GT, 1, r.pair.Mask)
		}
	}
	end := time.Now()
	rep.Attempted++
	if err != nil {
		rep.fail("seed %d: %v", seed, err)
		return solveOut{}, err
	}
	if !r.c.band.contains(bp) {
		rep.fail("seed %d: BP %.4f%% outside the reference band [%g, %g]", seed, bp, r.c.band.lo, r.c.band.hi)
	}
	h := labelHash(lab)
	if want, ok := r.ref[seed]; !ok {
		if probe == nil {
			r.ref[seed] = h
		}
	} else if h != want {
		what := "an earlier solve"
		if probe != nil {
			what = "the untraced solve"
		}
		rep.fail("seed %d: label hash %016x differs from %s of the same seed (%016x)", seed, h, what, want)
	} else if probe != nil {
		r.tracedSame++
	}
	if probe != nil {
		r.tracedAll++
	}
	if probe != nil {
		req := rep.Attempted
		app := tr.add(span{Req: req, Name: "app.solve", Start: tr.at(start), End: tr.at(end)})
		if r.c.viaApp {
			// stereo.Solve enters the solver where it first calls the
			// factory and leaves it after the last sweep.
			mrfStart, mrfEnd = probe.firstFactory, probe.lastReturn
		}
		ms := tr.add(span{Parent: app, Req: req, Name: "mrf.solve", Start: tr.at(mrfStart), End: tr.at(mrfEnd)})
		probe.emit(tr, acc, req, ms, r.prob.W*r.prob.H)
		acc.tiles = r.tiles()
	}
	return solveOut{wall: end.Sub(start), bp: bp}, nil
}

// phase is the solves of one side of a closed loop.
type phase struct {
	timings
	bps  []float64
	pxSw float64
}

// loop solves back to back for d, and at least once per seed, calibrating
// the host's speed before every solve. Without a tracer every solve is
// untraced. With one, solves alternate: each seed is solved untraced, then
// traced, so drift of the host's speed falls on both sides alike, and the
// traced labels are compared with the untraced ones just before.
func (r *stereoRun) loop(rep *report, d time.Duration, tr *tracer, acc *layerAcc) (plain, traced phase) {
	start := time.Now()
	for i := 0; time.Since(start) < d || i < len(r.seeds); i++ {
		seed := r.seeds[i%len(r.seeds)]
		sides := []*phase{&plain}
		if tr != nil {
			sides = append(sides, &traced)
		}
		for _, ph := range sides {
			var probe *solveProbe
			if ph == &traced {
				probe = &solveProbe{}
			}
			r.cal.sample(calibPerOp)
			t0 := time.Now()
			out, err := r.solve(rep, seed, probe, tr, acc)
			if err != nil {
				continue
			}
			ph.add(t0, t0.Add(out.wall), 0)
			ph.bps = append(ph.bps, out.bp)
			ph.pxSw += float64(r.prob.W * r.prob.H * r.sched.Iterations)
		}
	}
	r.cal.sample(calibPerOp)
	return plain, traced
}

// tiles is the tile count of the solve's geometry, 1 when unsharded.
func (r *stereoRun) tiles() int {
	if r.c.viaApp {
		return 1
	}
	if !r.c.shards.IsZero() {
		return r.c.shards.Tiles()
	}
	if r.c.workers == 0 && r.prob.W*r.prob.H >= mrf.AutoShardPixels {
		return shard.Auto(r.prob.W, r.prob.H).Tiles()
	}
	return 1
}

// streams is the number of sampler streams one solve builds.
func (r *stereoRun) streams() int {
	if t := r.tiles(); t > 1 {
		return t
	}
	return max(r.c.workers, 1)
}

func runStereo(cfg config) (*report, error) {
	c := stereoCaseFor(cfg.workload, cfg.tiny)
	build, err := core.SamplerBuilder("new")
	if err != nil {
		return nil, err
	}
	r := &stereoRun{c: c, cfg: cfg, build: build, ref: map[uint64]uint64{}, cal: c.calib}
	r.sched = stereo.DefaultParams().Schedule
	if c.sched.Iterations > 0 {
		r.sched = c.sched
	}
	for i := 0; i < c.seeds; i++ {
		r.seeds = append(r.seeds, core.StreamSeed(cfg.seed, i))
	}
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	if err := r.runSetup(rep); err != nil {
		return nil, err
	}
	rep.SolverThreads = solverExecutors(r.streams())

	d := time.Duration(cfg.seconds * float64(time.Second))
	var tr *tracer
	acc := &layerAcc{}
	if cfg.trace {
		tr = newTracer()
	}
	plain, traced := r.loop(rep, d, tr, acc)
	rep.EndToEnd = append(rep.EndToEnd, setupMetric(r.setup, &r.cal,
		"median of repeated scene, problem and table builds plus one warm-up solve"))
	rep.EndToEnd = append(rep.EndToEnd, r.endToEnd(plain)...)
	rep.calibNote(&r.cal)
	rep.Samples = map[string][]float64{"solve_s": plain.raw, "solve_scaled_s": plain.scaled(&r.cal), "calib_s": r.cal.cost, "setup_raw_s": r.setup.raw}
	if !cfg.trace {
		return rep, nil
	}
	rep.spans = tr.spans

	L := r.prob.Labels
	px := r.prob.W * r.prob.H
	tableBytes := float64(len(r.tab.Singles)+len(r.tab.Pair)) * 8
	rep.PerLayer = append(rep.PerLayer,
		metric{Name: "synth.build_s", Value: median(r.synthS), Unit: "s", N: len(r.synthS), Note: "p50 of setup builds"},
		metric{Name: "mrf.tables.build_s", Value: median(r.tableS), Unit: "s", N: len(r.tableS), Note: "p50 of setup builds"},
		metric{Name: "mrf.tables.bytes", Value: tableBytes, Unit: "B", N: 1, Note: "computed: singles + pair arrays"},
		metric{Name: "mrf.bytes_per_px_sweep", Value: bytesPerPxSweep(L), Unit: "B", N: 1, Note: "computed"},
	)
	rep.PerLayer = append(rep.PerLayer, acc.layerMetrics()...)
	rep.PerLayer = append(rep.PerLayer, metric{Name: "core.convcache.hit_ratio", Value: 0, Unit: "ratio", N: 0,
		Note: "the stereo CLIs' sampler builder attaches no conversion cache"})
	rep.PerLayer = append(rep.PerLayer, zeroServeMetrics("the stereo workloads bypass serve")...)
	rep.note("traced labels byte-identical to the untraced solve of the same seed: %d of %d traced solves", r.tracedSame, r.tracedAll)
	share := reconcile(rep, "app.solve", "app.solve")
	rep.PerLayer = append(rep.PerLayer,
		metric{Name: "trace.reconciled_share", Value: share, Unit: "ratio", N: len(traced.raw)},
		overhead(median(traced.raw), median(plain.raw), len(traced.raw)),
	)
	if cfg.workload == "stereo-large" {
		workingSet(rep, tableBytes, px)
	}
	return rep, nil
}

// endToEnd renders the closed-loop metrics from the untraced solves. Times
// are scaled to the reference host's speed; the raw p50 is in the note.
func (r *stereoRun) endToEnd(ph phase) []metric {
	n := len(ph.raw)
	scaled := ph.scaled(&r.cal)
	ms := []metric{
		{Name: "solve_p50_s", Value: median(scaled), Unit: "s", N: n, Note: fmt.Sprintf("raw wall p50 %.6g s", median(ph.raw))},
		{Name: "throughput_px_sweeps_per_s", Value: ph.pxSw / sumOf(scaled), Unit: "px_sweep/s", N: n, Note: "W×H×sweeps ÷ summed solve time"},
	}
	if r.cfg.workload == "stereo-anneal" {
		tv, tp, tb := tail(scaled)
		ms = append(ms, metric{Name: "solve_tail_s", Value: tv, Unit: "s", N: n, Note: fmt.Sprintf("p%.1f, %d solves beyond", tp, tb)})
	}
	return append(ms, metric{Name: "quality_bp_pct", Value: mean(ph.bps), Unit: "%", N: n})
}

// bytesPerPxSweep is the computed table traffic of one pixel update: its
// row of the singles table plus the four neighbours' rows of the pair LUT,
// all float64.
func bytesPerPxSweep(labels int) float64 { return float64(8 * labels * 5) }

func overhead(traced, plain float64, n int) metric {
	v := 0.0
	if plain > 0 {
		v = 100 * (traced - plain) / plain
	}
	return metric{Name: "trace.overhead_pct", Value: v, Unit: "%", N: n, Note: "traced p50 vs untraced p50"}
}

// workingSet states the table footprint against the host's caches.
func workingSet(rep *report, tableBytes float64, px int) {
	l2, llc := cacheSizes()
	mib := func(b float64) float64 { return b / (1 << 20) }
	rep.note("working set: tables %.1f MiB for %d px; L2 %.1f MiB per core, LLC %.1f MiB", mib(tableBytes), px, mib(float64(l2)), mib(float64(llc)))
	switch {
	case l2 > 0 && llc > 0 && tableBytes > float64(l2) && tableBytes < 4*float64(llc):
		rep.note("  the grid is out of L2 but not 4x the LLC on this host: this workload makes no memory-bandwidth claim")
	case llc > 0 && tableBytes >= 4*float64(llc):
		rep.note("  the tables exceed 4x the LLC on this host")
	default:
		rep.note("  the tables fit in L2 on this host")
	}
}
