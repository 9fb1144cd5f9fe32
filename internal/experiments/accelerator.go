package experiments

import (
	"fmt"
	"strings"

	"rsu/internal/accel"
	"rsu/internal/apps/stereo"
	"rsu/internal/core"
	"rsu/internal/metrics"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/rsim"
	"rsu/internal/synth"
)

// AcceleratorResult holds the discrete-accelerator study: the Sec. II-C
// speedup claims, the unit-count scaling sweep, and a checkerboard-parallel
// Gibbs validation run (the parallelization the accelerator relies on).
type AcceleratorResult struct {
	AugSeg, AugMotion           float64
	DiscSeg, DiscMotion         float64
	SatUnitsSeg, SatUnitsMotion int
	Scaling                     map[string][]accel.ScalingPoint
	// Parallel validation: poster BP solved sequentially vs with 4
	// checkerboard workers, both on new-RSU-G units.
	SequentialBP, ParallelBP float64
	// Cycle-level cross-validation: simulated vs analytic cycles/pixel at
	// the 336-unit configuration, per application.
	SimCyclesPerPixel, AnaCyclesPerPixel map[string]float64
}

// Accelerator reproduces the discrete-accelerator numbers (21x/54x vs the
// GPU, 3x/16x for the augmented GPU) and validates the checkerboard
// parallelization at the algorithm level.
func Accelerator(o Options) (*AcceleratorResult, error) {
	m := accel.DefaultMachine()
	seg, motion := accel.Segmentation5(), accel.Motion49()
	res := &AcceleratorResult{
		AugSeg:         m.AugSpeedup(seg),
		AugMotion:      m.AugSpeedup(motion),
		DiscSeg:        m.DiscreteSpeedup(seg),
		DiscMotion:     m.DiscreteSpeedup(motion),
		SatUnitsSeg:    m.SaturationUnits(seg),
		SatUnitsMotion: m.SaturationUnits(motion),
		Scaling:        map[string][]accel.ScalingPoint{},
	}
	units := []int{16, 64, 168, 336, 672, 1344}
	res.Scaling[seg.Name] = m.ScalingSweep(seg, units)
	res.Scaling[motion.Name] = m.ScalingSweep(motion, units)

	// Cycle-level cross-validation of the analytic roofline.
	res.SimCyclesPerPixel = map[string]float64{}
	res.AnaCyclesPerPixel = map[string]float64{}
	for _, p := range []accel.AppProfile{seg, motion} {
		cfg := rsim.AccelConfig{
			Units:             m.Units,
			Labels:            p.Labels,
			BytesPerPixel:     p.BytesPerPixel,
			PortBytesPerCycle: m.MemBWBytesPerSec / m.ClockHz,
		}
		st, err := rsim.SimulateAccelSweep(cfg, 100000)
		if err != nil {
			return nil, err
		}
		res.SimCyclesPerPixel[p.Name] = st.CyclesPerPixel
		res.AnaCyclesPerPixel[p.Name] = cfg.AnalyticCyclesPerPixel()
	}

	// Algorithm-level validation of the parallel update schedule.
	pair := synth.Poster(o.scale())
	p := stereoParams(o)
	sr, err := stereo.Solve(pair, core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(o.subSeed("acc-seq")), true), p)
	if err != nil {
		return nil, err
	}
	res.SequentialBP = sr.BP

	factory := func(w int) core.LabelSampler {
		return core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(o.subSeed(fmt.Sprintf("acc-par%d", w))), true)
	}
	prob := stereo.BuildProblem(pair, p)
	lab, err := mrf.SolveAuto(prob, factory, p.Schedule, mrf.SolveOptions{Workers: 4})
	if err != nil {
		return nil, err
	}
	res.ParallelBP = metrics.BadPixelPct(lab, pair.GT, 1, pair.Mask)
	return res, nil
}

func (r *AcceleratorResult) String() string {
	var b strings.Builder
	b.WriteString("Discrete accelerator study (Sec. II-C claims)\n")
	fmt.Fprintf(&b, "  %-22s %10s %10s\n", "", "aug-GPU", "336-unit")
	fmt.Fprintf(&b, "  %-22s %9.1fx %9.1fx   (paper: 3x / 21x)\n", "segmentation (5)", r.AugSeg, r.DiscSeg)
	fmt.Fprintf(&b, "  %-22s %9.1fx %9.1fx   (paper: 16x / 54x)\n", "motion (49)", r.AugMotion, r.DiscMotion)
	fmt.Fprintf(&b, "  bandwidth wall: segmentation %d units, motion %d units (336 GB/s)\n",
		r.SatUnitsSeg, r.SatUnitsMotion)
	for _, app := range []string{"segmentation", "motion"} {
		fmt.Fprintf(&b, "  scaling %-13s", app+":")
		for _, pt := range r.Scaling[app] {
			tag := ""
			if pt.MemoryBound {
				tag = "*"
			}
			fmt.Fprintf(&b, " %d:%.0fx%s", pt.Units, pt.Speedup, tag)
		}
		b.WriteString("   (* = memory bound)\n")
	}
	for _, app := range []string{"segmentation", "motion"} {
		fmt.Fprintf(&b, "  cycle-sim cross-check %-13s %.4f cycles/pixel vs analytic %.4f\n",
			app+":", r.SimCyclesPerPixel[app], r.AnaCyclesPerPixel[app])
	}
	fmt.Fprintf(&b, "  checkerboard-parallel Gibbs validation (poster BP%%): sequential %.1f vs 4-worker %.1f\n",
		r.SequentialBP, r.ParallelBP)
	return b.String()
}
