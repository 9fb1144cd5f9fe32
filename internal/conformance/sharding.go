package conformance

import (
	"context"
	"fmt"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/shard"
	"rsu/internal/stats"
)

// This file is the differential sharding-equivalence battery (DESIGN.md
// §15). For genuinely multi-tile geometries the sharded sweep is the
// checkerboard sweep with a different RNG-stream assignment, so its labeling
// distribution at ANY sweep count equals that of a plain whole-grid
// checkerboard loop. The battery runs replicate chains of both arms and
// two-sample chi-squares every pixel's label histogram, Bonferroni-correcting
// across all tests. The two byte-exact sharding gates — 1x1 tiling equals
// the serial goldens, sharded resume splices bit-exactly — are rows of the
// trace-gate table (gates.go).

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
func RunShardBattery(designs []ShardDesign, o ShardOptions) (*Report, error) {
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
	rep := &Report{Threshold: o.Alpha / float64(tests)}
	path := KernelPath(core.NewRSUG())

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
			lab, err := mrf.Solve(context.Background(), prob, factory, sched, mrf.SolveOptions{
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
			rep.Checks = append(rep.Checks, Check{
				Name: fmt.Sprintf("%s pixel(%d,%d)", d.Name, site%d.W, site/d.W),
				Path: path, N: o.Replicates, P: res.PValue,
			})
		}
	}
	return rep, nil
}
