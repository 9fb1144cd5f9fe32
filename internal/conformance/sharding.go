package conformance

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"rsu/internal/checkpoint"
	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/shard"
	"rsu/internal/stats"
)

// This file is the differential sharding-equivalence battery (DESIGN.md §15):
// three gates over the tile-sharded solver.
//
//  1. VerifyShardedGolden — the degenerate 1x1 tiling must reproduce the
//     serial solver byte-for-byte on every golden scenario: same labels, same
//     per-sweep energies, no statistical slack.
//  2. RunShardBattery — for genuinely multi-tile geometries the sharded
//     sweep is the checkerboard sweep with a different RNG-stream
//     assignment, so its labeling distribution at ANY sweep count equals
//     that of a plain whole-grid checkerboard loop. The battery runs
//     replicate chains of both arms and two-sample chi-squares every pixel's
//     label histogram, Bonferroni-correcting across all tests.
//  3. VerifyShardedCheckpointResume — a sharded run interrupted at the
//     schedule midpoint and resumed through a full version-2 container
//     round trip must splice bit-exactly into an uninterrupted sharded run.

// RunSharded1x1 executes the golden scenario on the sharded solver with the
// degenerate 1x1 tiling. The tiling contract says one tile delegates to the
// serial solver exactly, so the trace is encoded with Workers 1 and must be
// byte-identical to the scenario's app_w1 golden whatever s.Workers says.
func (s Scenario) RunSharded1x1() (*Trace, error) {
	prob, sched, init, err := goldenProblem(s.App)
	if err != nil {
		return nil, err
	}
	factory := core.StreamFactory(goldenSeed, func(src rng.Source) core.LabelSampler {
		return core.MustUnit(core.NewRSUG(), src, true)
	})
	tr := &Trace{App: s.App, Workers: 1}
	lab, err := mrf.SolveAuto(prob, factory, sched, mrf.SolveOptions{
		Init:    init,
		Workers: s.Workers,
		Shards:  shard.Geometry{Rows: 1, Cols: 1},
		OnSweep: func(iter int, lab *img.Labels, st mrf.SolveStats) {
			tr.Energy = append(tr.Energy, prob.TotalEnergy(lab))
		},
	})
	if err != nil {
		return nil, fmt.Errorf("conformance: sharded golden %s: %w", s.File(), err)
	}
	tr.Labels = lab
	return tr, nil
}

// VerifyShardedGolden runs every golden scenario through the 1x1-sharded
// solver and compares byte-for-byte against the serial (w1) golden of the
// same app. One error per drifted trace; nil when the degenerate tiling is
// exactly the serial solver everywhere.
func VerifyShardedGolden(dir string) []error {
	var errs []error
	for _, s := range Scenarios() {
		tr, err := s.RunSharded1x1()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		ref := Scenario{App: s.App, Workers: 1}.File()
		want, err := os.ReadFile(filepath.Join(dir, ref))
		if err != nil {
			errs = append(errs, fmt.Errorf("conformance: golden %s missing (regenerate with -update-golden): %w", ref, err))
			continue
		}
		if got := tr.Encode(); !bytes.Equal(got, want) {
			errs = append(errs, fmt.Errorf("conformance: 1x1-sharded %s diverged from serial golden %s at byte %d — one tile is not the serial solver",
				s.File(), ref, firstDiff(got, want)))
		}
	}
	return errs
}

// ShardDesign is one design point of the sharding-equivalence battery: a
// grid, a genuinely multi-tile geometry, and a fixed-temperature schedule.
// The singleton is a deterministic integer pattern so both arms see exact
// energies.
type ShardDesign struct {
	Name   string
	W, H   int
	Labels int
	Geom   shard.Geometry
	// T is the fixed sampling temperature; Sweeps the chain length. Short
	// chains are deliberate: the equivalence is per-transition-kernel, so it
	// holds in the transient too, and short chains keep replicates cheap.
	T      float64
	Sweeps int
}

// DefaultShardDesigns returns the geometries the gate runs: a square split,
// a column-only split (exercising east/west halos without north/south), and
// an uneven 3x2 split on an odd-sized grid (ragged tile bounds).
func DefaultShardDesigns() []ShardDesign {
	return []ShardDesign{
		{Name: "8x6-2x2", W: 8, H: 6, Labels: 3, Geom: shard.Geometry{Rows: 2, Cols: 2}, T: 8, Sweeps: 4},
		{Name: "8x6-1x3", W: 8, H: 6, Labels: 3, Geom: shard.Geometry{Rows: 1, Cols: 3}, T: 8, Sweeps: 4},
		{Name: "9x5-3x2", W: 9, H: 5, Labels: 4, Geom: shard.Geometry{Rows: 3, Cols: 2}, T: 8, Sweeps: 5},
	}
}

// Problem builds the design's MRF instance.
func (d ShardDesign) Problem() *mrf.Problem {
	return &mrf.Problem{
		W: d.W, H: d.H, Labels: d.Labels,
		Singleton:  func(x, y, l int) float64 { return float64((x*7 + y*13 + l*5) % 11) },
		PairWeight: 2,
		Dist:       mrf.Absolute,
	}
}

// ShardCheck is one per-pixel hypothesis test of the sharding battery.
type ShardCheck struct {
	Design string
	Pixel  string // "pixel(x,y)"
	N      int    // replicate chains per arm
	P      float64
}

// ShardReport is the outcome of a sharding-battery run.
type ShardReport struct {
	Checks []ShardCheck
	// Threshold is the Bonferroni-corrected per-test rejection level.
	Threshold float64
	// Replicates is the resolved chain count per arm.
	Replicates int
}

// Failures returns the checks whose p-value fell below the corrected
// threshold.
func (r *ShardReport) Failures() []ShardCheck {
	var out []ShardCheck
	for _, c := range r.Checks {
		if c.P < r.Threshold {
			out = append(out, c)
		}
	}
	return out
}

// MinP returns the smallest p-value observed, or 1 if nothing ran.
func (r *ShardReport) MinP() float64 {
	min := 1.0
	for _, c := range r.Checks {
		if c.P < min {
			min = c.P
		}
	}
	return min
}

// ShardOptions tunes a RunShardBattery call.
type ShardOptions struct {
	// Replicates is the number of independent chains per arm and design;
	// each contributes one labeling sample. 0 means 400.
	Replicates int
	// Alpha is the total false-rejection budget, Bonferroni-split across all
	// per-pixel tests. 0 means 1e-3.
	Alpha float64
	// Seed derives every sampler's RNG stream.
	Seed uint64
}

// streamCachingFactory builds per-stream samplers once and replays them on
// later factory calls, so replicate chains continue the same RNG streams —
// consecutive chains from one stream are independent because the draws are
// iid, exactly the replication scheme of the marginal battery. next tracks a
// battery-global stream counter so arms and designs never share a stream.
func streamCachingFactory(seed uint64, next *int) func(stream int) core.LabelSampler {
	base := *next
	cache := map[int]core.LabelSampler{}
	return func(stream int) core.LabelSampler {
		if s, ok := cache[stream]; ok {
			return s
		}
		s := core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(core.StreamSeed(seed, base+stream)), true)
		cache[stream] = s
		if base+stream >= *next {
			*next = base + stream + 1
		}
		return s
	}
}

// checkerboardChain runs one chain of the whole-grid checkerboard sweep pixel
// by pixel — color 0 then color 1, each in raster order, all on one sampler —
// from the all-zero labeling, with energies from the direct evaluator. It is
// the sharding battery's reference arm: the tile engine's transition kernel
// written without tiles, halos, batching or the energy LUT, so the battery
// compares the tile engine against code it does not share.
func checkerboardChain(prob *mrf.Problem, singles []float64, s core.LabelSampler, sched mrf.Schedule) (*img.Labels, error) {
	lab := img.NewLabels(prob.W, prob.H)
	vec := make([]float64, prob.Labels)
	for k := 0; k < sched.Iterations; k++ {
		if err := s.SetTemperature(sched.Temperature(k)); err != nil {
			return nil, err
		}
		for color := 0; color < 2; color++ {
			for y := 0; y < prob.H; y++ {
				for x := (y + color) % 2; x < prob.W; x += 2 {
					prob.LabelEnergies(vec, singles, lab, x, y)
					next, err := s.Sample(vec, lab.At(x, y))
					if err != nil {
						return nil, err
					}
					lab.Set(x, y, next)
				}
			}
		}
	}
	return lab, nil
}

// RunShardBattery runs the differential sharding-equivalence battery: for
// each design it runs Replicates chains of the whole-grid checkerboard
// reference (checkerboardChain) and of the tile engine (the design's geometry),
// pools each arm's final labelings into per-pixel label histograms, and
// two-sample chi-squares every pixel. The two arms execute the identical
// checkerboard transition kernel — only the RNG-stream-to-pixel assignment
// differs — so the null hypothesis is exact at any sweep count. The returned
// error reports setup problems, not statistical failures; gate on
// report.Failures().
func RunShardBattery(designs []ShardDesign, o ShardOptions) (*ShardReport, error) {
	if o.Replicates <= 0 {
		o.Replicates = 400
	}
	if o.Alpha <= 0 {
		o.Alpha = 1e-3
	}
	tests := 0
	for _, d := range designs {
		tests += d.W * d.H
	}
	if tests == 0 {
		return nil, fmt.Errorf("conformance: empty sharding battery")
	}
	rep := &ShardReport{Threshold: o.Alpha / float64(tests), Replicates: o.Replicates}

	stream := 0
	for _, d := range designs {
		if err := d.Geom.Validate(d.W, d.H); err != nil {
			return nil, fmt.Errorf("conformance: sharding %s: %w", d.Name, err)
		}
		prob := d.Problem()
		sched := mrf.Schedule{T0: d.T, Alpha: 1, Iterations: d.Sweeps}
		n := d.W * d.H * d.Labels
		histRef := make([]float64, n)
		histShard := make([]float64, n)

		// Reference arm: the whole-grid checkerboard loop on one stream.
		ref := core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(core.StreamSeed(o.Seed, stream)), true)
		stream++
		singles := prob.BuildTables().Singles
		for ri := 0; ri < o.Replicates; ri++ {
			lab, err := checkerboardChain(prob, singles, ref, sched)
			if err != nil {
				return nil, fmt.Errorf("conformance: sharding %s reference: %w", d.Name, err)
			}
			for i, l := range lab.L {
				histRef[i*d.Labels+l]++
			}
		}

		// Sharded arm: same kernel, tile-decomposed, one stream per tile.
		factory := streamCachingFactory(o.Seed, &stream)
		for ri := 0; ri < o.Replicates; ri++ {
			lab, err := mrf.SolveAuto(prob, factory, sched, mrf.SolveOptions{
				Init:   img.NewLabels(d.W, d.H),
				Shards: d.Geom,
			})
			if err != nil {
				return nil, fmt.Errorf("conformance: sharding %s sharded: %w", d.Name, err)
			}
			for i, l := range lab.L {
				histShard[i*d.Labels+l]++
			}
		}

		for site := 0; site < d.W*d.H; site++ {
			a := histRef[site*d.Labels : (site+1)*d.Labels]
			b := histShard[site*d.Labels : (site+1)*d.Labels]
			res, err := stats.ChiSquareTwoSample(a, b)
			if err != nil {
				return nil, fmt.Errorf("conformance: sharding %s pixel %d: %w", d.Name, site, err)
			}
			rep.Checks = append(rep.Checks, ShardCheck{
				Design: d.Name,
				Pixel:  fmt.Sprintf("pixel(%d,%d)", site%d.W, site/d.W),
				N:      o.Replicates,
				P:      res.PValue,
			})
		}
	}
	return rep, nil
}

// shardedCheckpointGeom is the tile geometry the sharded resume gate runs on
// every golden app: 2x2 fits all four golden grids and exercises all four
// halo directions.
var shardedCheckpointGeom = shard.Geometry{Rows: 2, Cols: 2}

// shardedTrace runs the golden app uninterrupted on the sharded solver and
// returns its trace (per-sweep energies + final labels).
func shardedTrace(app string) (*Trace, error) {
	prob, sched, init, err := goldenProblem(app)
	if err != nil {
		return nil, err
	}
	factory := core.StreamFactory(goldenSeed, func(src rng.Source) core.LabelSampler {
		return core.MustUnit(core.NewRSUG(), src, true)
	})
	tr := &Trace{App: app, Workers: shardedCheckpointGeom.Tiles()}
	lab, err := mrf.SolveAuto(prob, factory, sched, mrf.SolveOptions{
		Init:   init,
		Shards: shardedCheckpointGeom,
		OnSweep: func(iter int, lab *img.Labels, st mrf.SolveStats) {
			tr.Energy = append(tr.Energy, prob.TotalEnergy(lab))
		},
	})
	if err != nil {
		return nil, fmt.Errorf("conformance: sharded reference %s: %w", app, err)
	}
	tr.Labels = lab
	return tr, nil
}

// RunShardedCheckpointResume interrupts a 2x2-sharded run of the golden app
// at the schedule midpoint — asserting the periodic and on-cancel snapshots
// agree byte-for-byte — round-trips the version-2 container through
// checkpoint.Encode/Decode, and resumes it WITHOUT re-specifying the
// geometry (the snapshot alone must route the resume back onto the sharded
// solver). The spliced trace is returned for comparison against the
// uninterrupted sharded reference.
func RunShardedCheckpointResume(app string) (*Trace, error) {
	prob, sched, init, err := goldenProblem(app)
	if err != nil {
		return nil, err
	}
	factory := core.StreamFactory(goldenSeed, func(src rng.Source) core.LabelSampler {
		return core.MustUnit(core.NewRSUG(), src, true)
	})
	geom := shardedCheckpointGeom
	mid := sched.Iterations / 2
	tr := &Trace{App: app, Workers: geom.Tiles()}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var containers [][]byte
	_, err = mrf.SolveAutoCtx(ctx, prob, factory, sched, mrf.SolveOptions{
		Init:   init,
		Shards: geom,
		OnSweep: func(iter int, lab *img.Labels, st mrf.SolveStats) {
			tr.Energy = append(tr.Energy, prob.TotalEnergy(lab))
		},
		CheckpointEvery: mid,
		OnCheckpoint: func(st *mrf.SolverState) error {
			containers = append(containers, checkpoint.Encode(&checkpoint.Snapshot{
				App: app, Seed: goldenSeed, Schedule: sched, State: *st,
			}))
			if len(containers) == 1 {
				cancel()
			}
			return nil
		},
	})
	if err == nil {
		return nil, fmt.Errorf("conformance: sharded checkpoint %s: head leg ran to completion instead of cancelling", app)
	}
	if !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("conformance: sharded checkpoint %s: head leg: %w", app, err)
	}
	if len(containers) != 2 {
		return nil, fmt.Errorf("conformance: sharded checkpoint %s: expected a periodic and an on-cancel snapshot, got %d", app, len(containers))
	}
	if !bytes.Equal(containers[0], containers[1]) {
		return nil, fmt.Errorf("conformance: sharded checkpoint %s: periodic and on-cancel snapshots differ — capture is not a pure function of solver state", app)
	}
	if len(tr.Energy) != mid {
		return nil, fmt.Errorf("conformance: sharded checkpoint %s: head leg logged %d sweeps, want %d", app, len(tr.Energy), mid)
	}

	snap, err := checkpoint.Decode(containers[0])
	if err != nil {
		return nil, fmt.Errorf("conformance: sharded checkpoint %s: %w", app, err)
	}
	if snap.State.ShardRows != geom.Rows || snap.State.ShardCols != geom.Cols {
		return nil, fmt.Errorf("conformance: sharded checkpoint %s: snapshot carries %dx%d tiles, want %s",
			app, snap.State.ShardRows, snap.State.ShardCols, geom)
	}
	if snap.State.NextSweep != mid {
		return nil, fmt.Errorf("conformance: sharded checkpoint %s: snapshot resumes at sweep %d, want %d", app, snap.State.NextSweep, mid)
	}
	// Tail leg: Shards deliberately unset — the snapshot's geometry must
	// drive the dispatch.
	lab, err := mrf.SolveAutoCtx(context.Background(), prob, factory, sched, mrf.SolveOptions{
		Init:   init,
		Resume: &snap.State,
		OnSweep: func(iter int, lab *img.Labels, st mrf.SolveStats) {
			tr.Energy = append(tr.Energy, prob.TotalEnergy(lab))
		},
	})
	if err != nil {
		return nil, fmt.Errorf("conformance: sharded checkpoint %s: tail leg: %w", app, err)
	}
	if len(tr.Energy) != sched.Iterations {
		return nil, fmt.Errorf("conformance: sharded checkpoint %s: spliced log has %d sweeps, want %d", app, len(tr.Energy), sched.Iterations)
	}
	tr.Labels = lab
	return tr, nil
}

// VerifyShardedCheckpointResume runs every golden app through the sharded
// interrupt/resume cycle and compares the spliced trace byte-for-byte
// against an uninterrupted sharded run of the same app — the bit-exact
// resume guarantee extended to the tiled solver and its version-2 snapshot
// format.
func VerifyShardedCheckpointResume() []error {
	var errs []error
	for _, app := range []string{"stereo", "flow", "segment", "ising"} {
		ref, err := shardedTrace(app)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		tr, err := RunShardedCheckpointResume(app)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if got, want := tr.Encode(), ref.Encode(); !bytes.Equal(got, want) {
			errs = append(errs, fmt.Errorf("conformance: sharded checkpoint resume diverged for %s at byte %d — resume is not bit-exact",
				app, firstDiff(got, want)))
		}
	}
	return errs
}
