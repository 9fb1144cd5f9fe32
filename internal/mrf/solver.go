package mrf

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"time"

	"rsu/internal/core"
	"rsu/internal/fault"
	"rsu/internal/img"
	"rsu/internal/shard"
)

// DefaultTFloor is the temperature floor a Schedule applies when its TFloor
// field is zero — the historical hard-coded value.
const DefaultTFloor = 1e-4

// Schedule is a geometric simulated-annealing schedule: iteration k runs at
// temperature T0 * Alpha^k, for Iterations full Gibbs sweeps. Alpha = 1
// gives fixed-temperature Gibbs sampling (used by image segmentation, which
// the paper runs for 30 plain iterations).
type Schedule struct {
	T0         float64
	Alpha      float64
	Iterations int
	// TFloor is the minimum temperature the schedule ever emits. Late
	// annealing sweeps are clamped here so they stay numerically valid.
	// 0 selects DefaultTFloor (1e-4, the historical behavior); schedules
	// that intentionally anneal below that set a smaller positive floor.
	TFloor float64
}

// floor resolves the effective temperature floor.
func (s Schedule) floor() float64 {
	if s.TFloor > 0 {
		return s.TFloor
	}
	return DefaultTFloor
}

// Validate reports schedule errors. Non-finite parameters (NaN, ±Inf) are
// rejected: a NaN or +Inf T0 used to slip through the sign checks and
// produce a schedule whose temperatures never change any label.
func (s Schedule) Validate() error {
	switch {
	case !(s.T0 > 0) || math.IsInf(s.T0, 1):
		return fmt.Errorf("mrf: T0 must be positive and finite, got %v", s.T0)
	case !(s.Alpha > 0 && s.Alpha <= 1):
		return fmt.Errorf("mrf: Alpha must be in (0,1], got %v", s.Alpha)
	case s.Iterations <= 0:
		return fmt.Errorf("mrf: Iterations must be positive")
	case s.TFloor < 0 || math.IsNaN(s.TFloor) || math.IsInf(s.TFloor, 1):
		return fmt.Errorf("mrf: TFloor must be finite and non-negative, got %v", s.TFloor)
	}
	return nil
}

// Temperature returns the temperature of sweep k, floored at the schedule's
// TFloor (DefaultTFloor when unset) so late annealing iterations stay
// numerically valid. The closed form keeps an N-sweep anneal at O(N)
// multiplications total (the per-sweep O(k) loop it replaces made it O(N²)).
func (s Schedule) Temperature(k int) float64 {
	t := s.T0 * math.Pow(s.Alpha, float64(k))
	if floor := s.floor(); t < floor {
		t = floor
	}
	return t
}

// tempIter streams the schedule's temperatures T(0), T(1), ... via a running
// product — one multiplication per sweep instead of Temperature's math.Pow.
// Temperature stays the public closed form; the solvers use the iterator, and
// a regression test pins the two within 1-ulp-per-step accumulation error
// (they agree exactly for the first dozen sweeps and whenever Alpha is a
// power of two or one).
type tempIter struct {
	t, alpha, floor float64
}

// iter returns the running-product iterator for the schedule.
func (s Schedule) iter() tempIter {
	return tempIter{t: s.T0, alpha: s.Alpha, floor: s.floor()}
}

// next returns the current sweep's temperature and advances the product.
// Once the product reaches the floor it is pinned there, mirroring the
// closed form's clamp (both sequences are non-increasing).
func (it *tempIter) next() float64 {
	t := it.t
	if t <= it.floor {
		it.t = it.floor
		return it.floor
	}
	it.t = t * it.alpha
	return t
}

// SolveStats is the per-sweep observability record delivered to the OnSweep
// hook — the software analogue of the per-iteration chain statistics the
// RSU-G's follow-up work treats as first-class outputs.
type SolveStats struct {
	// Sweep is the 0-based sweep index (equal to OnSweep's iter argument).
	Sweep int
	// T is the annealing temperature the sweep ran at.
	T float64
	// Energy is the total MRF energy of the labeling after the sweep.
	Energy float64
	// Flips is the number of variables whose label changed during the sweep.
	Flips int
	// Elapsed is the wall-clock duration of the sweep (sampling only, not
	// the hook itself).
	Elapsed time.Duration
}

// Collector receives the labeling after every completed sweep — the hook the
// uncertainty-quantification subsystem (internal/uq) accumulates posterior
// samples through. The contract is identical at every worker count and tile
// geometry, the serial one-tile plan included:
//
//   - Collect runs on the goroutine driving the solve, after the sweep's
//     label writes are published (the second color barrier)
//     and after the OnSweep hook, so its cost is never charged to
//     SolveStats.Elapsed.
//   - The *img.Labels argument is the solver's reused working buffer, exactly
//     as for OnSweep: a collector that retains labels beyond the call must
//     copy them. Collectors that only fold the labeling into an aggregate
//     (histograms, moments) need no copy.
//   - Collection is observation only. It consumes no RNG draws and never
//     mutates the labeling, so attaching a Collector leaves the label trace
//     bit-identical to a run without one.
type Collector interface {
	Collect(sweep int, lab *img.Labels)
}

// SolveOptions tunes a Solve run.
type SolveOptions struct {
	// Init is the starting labeling; nil starts from all-zero labels.
	Init *img.Labels
	// OnSweep, if non-nil, is called after each sweep with the sweep index,
	// the current labeling, and the sweep's SolveStats record.
	//
	// The *img.Labels argument is the solver's working buffer: the solver
	// reuses the same storage across sweeps and keeps mutating it after the
	// hook returns. Callers that retain the labeling beyond the hook
	// invocation MUST take a copy (lab.Clone()); retaining the pointer
	// observes later sweeps' mutations. The SolveStats value is safe to
	// retain.
	OnSweep func(iter int, lab *img.Labels, st SolveStats)
	// Workers selects the tile geometry when Shards is unset: 0 =
	// shard.Auto(W, H), a pure function of the grid shape, 1 = the exact
	// serial raster scan on factory(0) (the one-tile plan), n > 1 = n row
	// bands (n×1 tiles, one sampler each), or one band of min(n, W) columns
	// when the grid has fewer than n rows; negative counts are an error. The
	// host's core count never enters the geometry: GOMAXPROCS only sizes the
	// executor pool. With Workers 0 a Resume snapshot keeps the geometry it
	// was captured on. Workers and Shards stay two fields while the
	// benchmark harness (perfbench/) sets them by name.
	Workers int
	// executors caps how many goroutines run the tile engine's tiles; 0 =
	// min(tiles, NumCPU, GOMAXPROCS). Tiles fix the output and executors only
	// schedule them, so every count yields a bit-identical labeling — an
	// in-package test seam, like shardPhaseHook.
	executors int
	// Tables, when non-nil, supplies precomputed lookup tables for the
	// problem (see Problem.BuildTables), letting multi-restart callers
	// amortize table construction across solves. Must have been built
	// from the same Problem value passed to the solver.
	Tables *Tables
	// Collector, when non-nil, observes the labeling after every sweep
	// (see the Collector interface for the retention and neutrality
	// contract). nil — the default — adds no work to the sweep loop.
	Collector Collector
	// Faults, when non-nil, attaches the device-fault injection layer to
	// every hardware sampler for the duration of the solve: worker w's
	// sampler hosts Faults.Model(w), whose randomness comes from a dedicated
	// per-stream RNG (never the label stream). Samplers that model no device
	// (the software baseline) are silently left ideal. A nil Faults — or an
	// attached injection whose rates are all zero — leaves every solver path
	// byte-identical to the golden traces (the zero-fault invariant).
	Faults *fault.Injection
	// CheckpointEvery, with OnCheckpoint set, captures a SolverState snapshot
	// after every CheckpointEvery-th sweep (never after the final one). 0
	// disables periodic capture; OnCheckpoint then still fires once on
	// cancellation. Captures happen between sweeps on the goroutine driving
	// the solve, so they never race the workers and cost nothing when off.
	CheckpointEvery int
	// OnCheckpoint, when non-nil, receives each captured snapshot (periodic
	// and on-cancellation). The SolverState and everything it references is
	// freshly allocated per capture and safe to retain. An error aborts the
	// solve (periodic) or is joined onto the cancellation cause — a caller
	// that asked for durability must hear that it was not delivered.
	// Checkpointing requires every sampler (and the Collector, if any) to be
	// checkpointable; the first capture reports a violation as an error.
	OnCheckpoint func(*SolverState) error
	// Shards selects the tile geometry: the grid is split into Shards.Rows ×
	// Shards.Cols tiles that sweep the one label grid in place, one
	// checkerboard color per barrier, each tile drawing from its own RNG
	// stream (factory(tileIndex)). The zero value — the default — leaves the
	// geometry to Workers (shard.Auto when that is 0 too). A 1×1 geometry is
	// the serial raster scan, byte-identical to Workers 1. Multi-tile output differs
	// from the serial solver only through the sweep order and RNG stream
	// assignment — the stationary distribution is identical, which
	// rsu-verify's marginal and sharding-equivalence batteries gate. For a
	// fixed geometry and seed the result is bit-exactly reproducible at any
	// executor count. Workers is ignored when Shards is set.
	Shards shard.Geometry
	// denseCodes turns the windowed code gather off, so the checker tiles
	// gather every label even when the code form has window tables — an
	// in-package test seam the exactness tests compare the two gathers
	// through.
	denseCodes bool
	// shardPhaseHook, when non-nil, observes the labeling after every
	// color-phase barrier of the tile engine — a test-only seam the property
	// test uses to compare against a whole-grid checkerboard reference at
	// each barrier.
	shardPhaseHook func(sweep, color int, lab *img.Labels)
	// Resume, when non-nil, restores a previously captured snapshot instead
	// of starting fresh: the grid, every stream's RNG state and counters,
	// the schedule position, the incremental energy, and the fault/collector
	// state. The run configuration must match the capturing run (problem
	// shape, worker count or tile geometry, schedule, fault and collector
	// presence); Init is ignored. A resumed run is bit-identical to the
	// uninterrupted one — the guarantee rsu-verify's checkpoint gate
	// enforces against all golden traces.
	Resume *SolverState
}

// attachFaults installs opts.Faults' per-stream models on the samplers and
// returns the detach func to defer (solvers must not leave a past run's
// injector on a caller-owned sampler). Sampler i hosts fault stream i.
func attachFaults(opts SolveOptions, samplers ...core.LabelSampler) func() {
	if opts.Faults == nil {
		return func() {}
	}
	var detach []func()
	for w, s := range samplers {
		if d := opts.Faults.Attach(s, w); d != nil {
			detach = append(detach, d)
		}
	}
	return func() {
		for _, d := range detach {
			d()
		}
	}
}

// prepare validates the problem, the tile geometry and the schedule, clones
// or allocates the initial labeling, and resolves the lookup tables.
func prepare(p *Problem, sched Schedule, geom shard.Geometry, opts SolveOptions) (*img.Labels, *Tables, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if err := geom.Validate(p.W, p.H); err != nil {
		return nil, nil, fmt.Errorf("mrf: %w", err)
	}
	if err := sched.Validate(); err != nil {
		return nil, nil, err
	}
	lab := opts.Init
	if st := opts.Resume; st != nil {
		// A snapshot overrides Init: its grid IS the labeling mid-run.
		if st.W != p.W || st.H != p.H || st.Labels != p.Labels {
			return nil, nil, fmt.Errorf("mrf: snapshot shape %dx%d/%d labels does not match problem %dx%d/%d",
				st.W, st.H, st.Labels, p.W, p.H, p.Labels)
		}
		if len(st.Grid) != p.W*p.H {
			return nil, nil, fmt.Errorf("mrf: snapshot grid has %d labels, problem needs %d", len(st.Grid), p.W*p.H)
		}
		lab = img.NewLabels(p.W, p.H)
		copy(lab.L, st.Grid)
	} else if lab == nil {
		lab = img.NewLabels(p.W, p.H)
	} else {
		if lab.W != p.W || lab.H != p.H {
			return nil, nil, fmt.Errorf("mrf: init labeling %dx%d does not match problem %dx%d", lab.W, lab.H, p.W, p.H)
		}
		lab = lab.Clone()
	}
	for i, l := range lab.L {
		if l < 0 || l >= p.Labels {
			return nil, nil, fmt.Errorf("mrf: init label %d at index %d out of range [0,%d)", l, i, p.Labels)
		}
	}
	tab := opts.Tables
	if tab == nil {
		tab = p.BuildTables()
	} else if tab.p != p {
		return nil, nil, fmt.Errorf("mrf: SolveOptions.Tables built from a different problem")
	}
	return lab, tab, nil
}

// gatherFor picks the form of the data term a solve with these samplers
// reads and builds it on first use: the code form when every sampler takes
// codes (takesCodes) and the problem qualifies for it, else the float form.
// Either way every energy a sampler encodes gets the code it gets from the
// float form, so the choice never shows in a draw.
func (t *Tables) gatherFor(samplers []core.LabelSampler) energyGather {
	if takesCodes(samplers) {
		if codes := t.CodeSingles(); codes != nil {
			return gather[uint8]{t: t, s: codes}
		}
	}
	return t.floatGather()
}

// windowFor returns the windowed gather the checker tiles of a solve that
// reads g take, or nil: it needs the code form with window tables, and
// opts not to turn it off.
func (t *Tables) windowFor(g energyGather, opts SolveOptions) *windowed {
	cg, ok := g.(gather[uint8])
	if !ok || t.win == nil || opts.denseCodes {
		return nil
	}
	return &windowed{t: t, codes: cg.s, w: t.win}
}

// takesCodes reports whether every sampler sees its energies only as the
// codes of a step-1 quantizer of at most 8 bits: a core.Config, reported
// through a Config method, with EnergyBits in [1, 8] and EnergyMax
// 2^EnergyBits − 1. A quantized core.Unit reads an energy only through its
// encode, whatever its λ and time stages, so it draws the same from two
// energies with one code. A sampler without the method (the software
// baseline, or a wrapper that does not forward it) takes the float form.
func takesCodes(samplers []core.LabelSampler) bool {
	for _, s := range samplers {
		c, ok := s.(interface{ Config() core.Config })
		if !ok {
			return false
		}
		cfg := c.Config()
		if cfg.EnergyBits < 1 || cfg.EnergyBits > 8 || cfg.EnergyMax != float64(int(1)<<cfg.EnergyBits-1) {
			return false
		}
	}
	return true
}

// run is the annealing driver's state between sweeps: what the tile engine
// advances and what the observers, captureState and the checkpoint hooks read.
type run struct {
	p     *Problem
	opts  SolveOptions
	iters int // Schedule.Iterations
	// lab is the global labeling; the tiles sweep it in place.
	lab *img.Labels
	// tab is the solve's tables and gather the energy stage its sweeps read
	// (Tables.gatherFor).
	tab    *Tables
	gather energyGather
	// win is the checker tiles' windowed gather (Tables.windowFor), or nil.
	win *windowed
	// samplers holds one sampler per RNG stream, stream i on tile i.
	samplers []core.LabelSampler
	// plan is the tile decomposition; a snapshot of a multi-tile plan
	// records its geometry and its tiles' halos.
	plan *shard.Plan
	// next is the first sweep that has not run; ti.t is its temperature.
	next int
	ti   tempIter
	// energy is the total MRF energy, tracked incrementally when track
	// (OnSweep is set): the initial TotalEnergy plus the FlipDelta of every
	// accepted flip, so observability costs O(flips) per sweep instead of a
	// full re-evaluation. A randomized property test pins it against
	// TotalEnergy recomputation to 1e-9 relative error.
	energy float64
	track  bool
}

// checkpointDue reports whether the periodic cadence captures after the sweep
// that just ran (sweep next-1). It never fires after the final sweep — the
// run is about to return its result, so there is nothing left worth resuming.
func (r *run) checkpointDue() bool {
	o := &r.opts
	return o.OnCheckpoint != nil && o.CheckpointEvery > 0 && r.next%o.CheckpointEvery == 0 && r.next < r.iters
}

// anneal is the one annealing driver behind Solve: the RSU-G's protocol of
// setting the temperature once per iteration, sweeping every variable, and
// moving on. It validates the run, builds one distinct sampler per stream
// through factory, attaches faults and restores a Resume snapshot;
// then, per sweep, it checks ctx (capturing the cancellation snapshot), sets
// the sweep's temperature on every stream, runs one tile-engine sweep on
// geom with tile i on stream i (a 1×1 geom is the serial raster scan), and
// feeds OnSweep, the Collector and the periodic checkpoint. An aborted solve
// hands back the labeling its sweeps left.
func anneal(ctx context.Context, p *Problem, factory func(stream int) core.LabelSampler, sched Schedule, geom shard.Geometry, opts SolveOptions) (*img.Labels, error) {
	lab, tab, err := prepare(p, sched, geom, opts)
	if err != nil {
		return nil, err
	}
	samplers := make([]core.LabelSampler, geom.Tiles())
	for i := range samplers {
		if samplers[i] = factory(i); samplers[i] == nil {
			return nil, fmt.Errorf("mrf: nil sampler for stream %d", i)
		}
	}
	if err := distinctSamplers(samplers); err != nil {
		return nil, err
	}
	// Stream i hosts fault stream i, fixed for a given geometry at every
	// executor count.
	defer attachFaults(opts, samplers...)()

	r := &run{p: p, opts: opts, iters: sched.Iterations, lab: lab, tab: tab, gather: tab.gatherFor(samplers),
		samplers: samplers, ti: sched.iter(), track: opts.OnSweep != nil}
	r.win = tab.windowFor(r.gather, opts)
	if r.track {
		r.energy = tab.TotalEnergy(lab)
	}
	if st := opts.Resume; st != nil {
		if err := checkResumeShards(st, geom); err != nil {
			return nil, err
		}
		if err := applyResume(st, sched, samplers, opts); err != nil {
			return nil, err
		}
		r.next, r.ti = st.NextSweep, resumeIter(st, sched)
		if r.track && st.EnergyTracked {
			// Restore the incremental accumulator rather than keeping the
			// TotalEnergy recomputation: the two agree only to rounding, and
			// resumed run logs must be byte-identical.
			r.energy = st.Energy
		}
	}

	pool, err := newShardPool(r, geom)
	if err != nil {
		return nil, err
	}
	defer pool.stop()

	for k := r.next; k < r.iters; k++ {
		if err := ctx.Err(); err != nil {
			return lab, cancelCheckpoint(err, r)
		}
		start := time.Now()
		T := r.ti.next()
		for _, s := range samplers {
			if err := s.SetTemperature(T); err != nil {
				return lab, fmt.Errorf("mrf: sweep %d: %w", k, err)
			}
		}
		flips, err := pool.sweep(k)
		if err != nil {
			return lab, err
		}
		r.next = k + 1
		if r.track {
			opts.OnSweep(k, lab, SolveStats{Sweep: k, T: T, Energy: r.energy, Flips: flips, Elapsed: time.Since(start)})
		}
		if opts.Collector != nil {
			opts.Collector.Collect(k, lab)
		}
		if r.checkpointDue() {
			if err := periodicCheckpoint(r); err != nil {
				return lab, err
			}
		}
	}
	return lab, nil
}

// distinctSamplers rejects a factory that handed one sampler to two streams:
// the tile engine would run it on two goroutines at once, and even one
// executor would interleave two streams' draws. Samplers compare by
// address, never with == (which panics on an uncomparable dynamic type); a
// non-pointer sampler is copied into each interface, so this check does not
// follow what it may point to.
func distinctSamplers(samplers []core.LabelSampler) error {
	seen := make(map[uintptr]int, len(samplers))
	for i, s := range samplers {
		v := reflect.ValueOf(s)
		if v.Kind() != reflect.Pointer || v.Type().Elem().Size() == 0 {
			continue // a copied value, or a zero-size one whose address may repeat
		}
		if j, ok := seen[v.Pointer()]; ok {
			return fmt.Errorf("mrf: streams %d and %d share one sampler (%T); the factory must return an independent sampler per stream", j, i, s)
		}
		seen[v.Pointer()] = i
	}
	return nil
}

// Solve runs simulated-annealing Gibbs sampling on the problem and returns
// the final labeling. It is the one entry point into the annealing driver:
// it picks the tile geometry (engineGeometry) and builds one sampler per RNG
// stream through factory, called once for each stream index, row-major over
// the tile lattice. Every stream must get its own sampler; a factory that
// hands one sampler to two streams is an error. Each sampler's
// SetTemperature is invoked at the start of every sweep, mirroring the
// RSU-G's per-iteration LUT/boundary update.
//
// Workers = 0 (the default) runs shard.Auto(W, H); Workers = 1 runs the
// exact serial raster scan on factory(0) — a caller with a single sampler
// passes a factory that returns it; Workers = n > 1 runs the tile engine on
// workerGeometry(n, W, H). An explicit Shards geometry or a Resume snapshot
// selects its geometry instead. Negative Workers is an error.
//
// The context is checked between sweeps (never mid-sweep, so a finished
// sweep is always a consistent labeling); on cancellation or deadline expiry
// the partial labeling computed so far is returned together with ctx.Err().
// A sampler error or panic likewise aborts the run with the partial
// labeling.
func Solve(ctx context.Context, p *Problem, factory func(stream int) core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	if factory == nil {
		return nil, fmt.Errorf("mrf: nil sampler factory")
	}
	geom, err := engineGeometry(p, opts)
	if err != nil {
		return nil, err
	}
	return anneal(ctx, p, factory, sched, geom, opts)
}

// SolveAuto is Solve without a context. It is kept only for the benchmark
// harness (perfbench/stereo.go), which calls it by name; new code calls
// Solve.
func SolveAuto(p *Problem, factory func(stream int) core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	return Solve(context.Background(), p, factory, sched, opts)
}

// engineGeometry is the one place Solve's tile lattice is chosen, 1×1 being
// the serial raster scan: an explicit Shards geometry wins; else a Resume
// snapshot fixes the lattice it was captured on (snapshotGeometry) when it
// is a multi-tile run, whatever Workers says, and for any snapshot when
// Workers is left at 0, so a snapshot written before Workers 0 meant
// shard.Auto still resumes on its own lattice; else Workers 0 gets
// shard.Auto and Workers = n runs workerGeometry(n, W, H), both pure
// functions of the grid shape, so the result never depends on the host.
// checkResumeShards later rejects an explicit Shards value that disagrees
// with the snapshot, or an explicit Workers value that disagrees with a
// serial or version-1 one.
func engineGeometry(p *Problem, opts SolveOptions) (shard.Geometry, error) {
	if opts.Workers < 0 {
		return shard.Geometry{}, fmt.Errorf("mrf: SolveOptions.Workers must be >= 0, got %d", opts.Workers)
	}
	geom, st := opts.Shards, opts.Resume
	switch {
	case !geom.IsZero():
	case st != nil && (opts.Workers == 0 || st.ShardRows*st.ShardCols > 1):
		geom = snapshotGeometry(st)
	case opts.Workers == 0:
		geom = shard.Auto(p.W, p.H)
	default:
		geom = workerGeometry(opts.Workers, p.W, p.H)
	}
	return geom, nil
}

// workerGeometry maps a Workers = n request onto the tile lattice that runs
// it: n row bands (n×1) when the grid has at least n rows — 1×1, the serial
// raster scan, for n = 1 — otherwise one band of min(n, W) columns, so short grids (the 1×2 marginal-battery grid
// among them) still run a genuinely multi-tile checkerboard. A pure function
// of (n, W, H): the same request on the same grid always draws the same
// streams in the same order, on any host.
func workerGeometry(n, w, h int) shard.Geometry {
	if n <= h {
		return shard.Geometry{Rows: n, Cols: 1}
	}
	return shard.Geometry{Rows: 1, Cols: min(n, w)}
}
