package mrf

import (
	"errors"
	"fmt"
	"math"

	"rsu/internal/core"
	"rsu/internal/shard"
)

// StatefulCollector is a Collector whose accumulated observations can be
// captured into and restored from an opaque blob, making it resumable. The
// uncertainty-quantification accumulator (internal/uq) implements it. A
// checkpointing run whose Collector does not implement this interface fails
// at capture time: silently dropping collector state would break the
// bit-exact resume guarantee for the run's UQ outputs.
type StatefulCollector interface {
	Collector
	CaptureState() ([]byte, error)
	RestoreState([]byte) error
}

// SolverState is the complete between-sweeps state of a solve — everything a
// bit-exact resume needs. It is deliberately a plain data value: the
// checkpoint container (internal/checkpoint) owns serialization, versioning
// and integrity checking.
//
// The bit-exactness argument, component by component (DESIGN.md §14):
//
//   - Grid is the labeling after sweep NextSweep-1; sweeps only read and
//     write the grid.
//   - Samplers holds each stream's RNG words and counters. All conversion,
//     survival and guide tables are deterministic functions of (config,
//     temperature) rebuilt identically on resume; the solver re-issues
//     SetTemperature at the top of every sweep.
//   - NextT is the running-product temperature for sweep NextSweep. The
//     iterator is a pure fold (t *= alpha, pinned at the floor), so seeding
//     it with the captured product continues the exact float sequence.
//   - Energy is the incremental accumulator (initial TotalEnergy plus every
//     accepted FlipDelta in tile order). Recomputing TotalEnergy on the
//     restored grid would agree only to rounding; restoring the accumulator
//     keeps run logs byte-identical.
//   - Faults and Collector are the opaque states of the per-stream fault
//     models and the attached collector, captured through their own
//     CaptureState methods.
type SolverState struct {
	// W, H, Labels pin the problem shape the snapshot belongs to.
	W, H, Labels int
	// Workers is the RNG stream count: 1 for the serial engine, the tile
	// count for the tile engine. The executor count is NOT part of solver
	// state: any executor count replays the same tiles bit-identically.
	Workers int
	// NextSweep is the index of the first sweep that has not run yet; it
	// equals Schedule.Iterations when the run finished.
	NextSweep int
	// NextT is the running-product temperature for sweep NextSweep.
	NextT float64
	// Grid is the labeling after sweep NextSweep-1, in row-major order.
	Grid []int
	// Energy is the incrementally tracked total MRF energy after sweep
	// NextSweep-1; valid only when EnergyTracked.
	Energy float64
	// EnergyTracked records whether the captured run maintained the
	// incremental energy (OnSweep was set).
	EnergyTracked bool
	// ShardRows, ShardCols record the tile geometry of a tile-engine run;
	// both are zero for serial runs and for the version-1 snapshots the
	// retired checkerboard worker pool wrote (Workers > 1, no halos), which
	// resume on workerGeometry(Workers, W, H). When set, Workers equals
	// ShardRows*ShardCols (one sampler per tile) and Halos carries the
	// per-tile halo buffers.
	ShardRows, ShardCols int
	// Halos holds, per tile in tile-index order, the labels of every
	// extended-rect cell outside the tile's owned rect (edge strips and
	// corners, extended-rect row-major — shard.TileGrid.HaloSnapshot's
	// order). The halos after sweep NextSweep-1's final exchange are part of
	// solver state: sweep NextSweep's first color phase reads them before any
	// exchange runs. nil for serial runs and version-1 worker snapshots.
	Halos [][]int
	// Samplers holds one state per stream, in stream (tile) order.
	Samplers []core.SamplerState
	// Faults holds one opaque fault-model state per stream when the
	// run had fault injection configured; nil otherwise.
	Faults [][]byte
	// Collector is the attached collector's opaque state; nil when the run
	// had no collector.
	Collector []byte
}

// captureState snapshots the complete solver state between sweeps: the
// run's labeling (the caller must have gathered the tiles into it), the
// first un-run sweep and its temperature, the incremental energy (zero
// unless tracked), every stream's sampler state and, on the tile engine, the
// lattice and every tile's halos.
func captureState(r *run) (*SolverState, error) {
	st := &SolverState{
		W: r.p.W, H: r.p.H, Labels: r.p.Labels,
		Workers:       len(r.samplers),
		NextSweep:     r.next,
		NextT:         r.ti.t,
		Grid:          append([]int(nil), r.lab.L...),
		EnergyTracked: r.track,
		Samplers:      make([]core.SamplerState, len(r.samplers)),
	}
	if r.track {
		st.Energy = r.energy
	}
	if grids := r.grids; len(grids) > 0 {
		last := grids[len(grids)-1].Tile
		st.ShardRows, st.ShardCols = last.R+1, last.C+1
		st.Halos = make([][]int, len(grids))
		for i, g := range grids {
			st.Halos[i] = g.HaloSnapshot()
		}
	}
	for i, s := range r.samplers {
		c, ok := s.(core.Checkpointable)
		if !ok {
			return nil, fmt.Errorf("mrf: sampler %d (%T) does not support checkpointing", i, s)
		}
		ss, err := c.CaptureState()
		if err != nil {
			return nil, fmt.Errorf("mrf: sampler %d: %w", i, err)
		}
		st.Samplers[i] = ss
	}
	opts := r.opts
	if opts.Faults != nil {
		fs, err := opts.Faults.CaptureStates(len(r.samplers))
		if err != nil {
			return nil, err
		}
		st.Faults = fs
	}
	if opts.Collector != nil {
		sc, ok := opts.Collector.(StatefulCollector)
		if !ok {
			return nil, fmt.Errorf("mrf: collector %T does not support checkpointing (implement StatefulCollector)", opts.Collector)
		}
		cb, err := sc.CaptureState()
		if err != nil {
			return nil, fmt.Errorf("mrf: collector: %w", err)
		}
		st.Collector = cb
	}
	return st, nil
}

// applyResume restores every stateful component from the snapshot into the
// already-constructed run (samplers built, faults attached, collector
// wired). Shape checks that depend only on the problem live in prepare; the
// checks here are the run-configuration ones — worker count, fault and
// collector presence must match the capturing run exactly, because a
// mismatch silently changes the draw sequence.
func applyResume(st *SolverState, sched Schedule, samplers []core.LabelSampler, opts SolveOptions) error {
	if st.Workers != len(samplers) || len(st.Samplers) != len(samplers) {
		return fmt.Errorf("mrf: snapshot captured %d workers (%d sampler states), resuming with %d",
			st.Workers, len(st.Samplers), len(samplers))
	}
	if st.NextSweep < 0 || st.NextSweep > sched.Iterations {
		return fmt.Errorf("mrf: snapshot resumes at sweep %d, schedule has %d iterations", st.NextSweep, sched.Iterations)
	}
	if !(st.NextT > 0) || math.IsInf(st.NextT, 1) {
		return fmt.Errorf("mrf: snapshot temperature %v must be positive and finite", st.NextT)
	}
	for i, s := range samplers {
		c, ok := s.(core.Checkpointable)
		if !ok {
			return fmt.Errorf("mrf: sampler %d (%T) does not support resume", i, s)
		}
		if err := c.RestoreState(st.Samplers[i]); err != nil {
			return fmt.Errorf("mrf: sampler %d: %w", i, err)
		}
	}
	switch {
	case opts.Faults != nil && st.Faults == nil:
		return fmt.Errorf("mrf: fault injection is configured but the snapshot carries no fault state")
	case opts.Faults == nil && st.Faults != nil:
		return fmt.Errorf("mrf: snapshot carries fault state but no fault injection is configured")
	case st.Faults != nil:
		if len(st.Faults) != len(samplers) {
			return fmt.Errorf("mrf: snapshot has %d fault states for %d workers", len(st.Faults), len(samplers))
		}
		if err := opts.Faults.RestoreStates(st.Faults); err != nil {
			return err
		}
	}
	switch {
	case opts.Collector != nil && st.Collector == nil:
		return fmt.Errorf("mrf: a collector is attached but the snapshot carries no collector state")
	case opts.Collector == nil && st.Collector != nil:
		return fmt.Errorf("mrf: snapshot carries collector state but no collector is attached")
	case st.Collector != nil:
		sc, ok := opts.Collector.(StatefulCollector)
		if !ok {
			return fmt.Errorf("mrf: collector %T cannot restore snapshot state (implement StatefulCollector)", opts.Collector)
		}
		if err := sc.RestoreState(st.Collector); err != nil {
			return fmt.Errorf("mrf: collector: %w", err)
		}
	}
	return nil
}

// snapshotGeometry returns the tile lattice a snapshot was captured on: the
// recorded geometry of a tile-engine run, workerGeometry(Workers, W, H) for a
// version-1 snapshot of the retired worker pool (whose row bands and streams
// that geometry reproduces), and the zero geometry for a serial run.
func snapshotGeometry(st *SolverState) shard.Geometry {
	if st.ShardRows != 0 || st.ShardCols != 0 {
		return shard.Geometry{Rows: st.ShardRows, Cols: st.ShardCols}
	}
	if st.Workers > 1 {
		return workerGeometry(st.Workers, st.W, st.H)
	}
	return shard.Geometry{}
}

// checkResumeShards rejects a snapshot whose tile lattice differs from the
// resuming run's (the zero geometry for the serial engine). The stream-count
// check in applyResume cannot catch every mismatch on its own (2×2 and 4×1
// tiles both say Workers = 4, yet their draw sequences differ).
func checkResumeShards(st *SolverState, geom shard.Geometry) error {
	got := snapshotGeometry(st)
	switch {
	case got == geom:
		return nil
	case got.IsZero():
		return fmt.Errorf("mrf: snapshot captured a serial run, resuming with %s tiles", geom)
	case geom.IsZero():
		return fmt.Errorf("mrf: snapshot captured a %s-tile run, resuming on the serial engine", got)
	}
	return fmt.Errorf("mrf: snapshot captured %s tiles, resuming with %s", got, geom)
}

// resumeIter rebuilds the running-product temperature iterator at the
// snapshot's position: seeding the product with the captured NextT continues
// the exact float sequence an uninterrupted run would have produced (next()
// is a pure fold over t).
func resumeIter(st *SolverState, sched Schedule) tempIter {
	return tempIter{t: st.NextT, alpha: sched.Alpha, floor: sched.floor()}
}

// periodicCheckpoint captures the run after the sweep that just ran and
// hands the snapshot to OnCheckpoint; the driver calls it when
// run.checkpointDue says so. A capture or hook failure aborts the solve: the
// caller asked for durability, and silently continuing without it would turn
// a full-disk into lost work discovered only after the next crash.
func periodicCheckpoint(r *run) error {
	st, err := captureState(r)
	if err == nil {
		err = r.opts.OnCheckpoint(st)
	}
	if err != nil {
		return fmt.Errorf("mrf: sweep %d checkpoint: %w", r.next-1, err)
	}
	return nil
}

// cancelCheckpoint captures a final snapshot when a run is cancelled, so the
// in-flight work survives the cancellation (the serving layer's drain path
// and the CLI's -timeout both rely on this). The snapshot resumes at
// run.next — the sweep the cancellation pre-empted. Capture or hook errors
// are joined onto the cancellation cause rather than replacing it.
func cancelCheckpoint(cause error, r *run) error {
	if r.opts.OnCheckpoint == nil {
		return cause
	}
	st, err := captureState(r)
	if err == nil {
		err = r.opts.OnCheckpoint(st)
	}
	if err != nil {
		return errors.Join(cause, fmt.Errorf("mrf: cancellation checkpoint: %w", err))
	}
	return cause
}
