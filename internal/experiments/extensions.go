package experiments

import (
	"fmt"
	"math"
	"strings"

	"rsu/internal/apps/flow"
	"rsu/internal/apps/stereo"
	"rsu/internal/core"
	"rsu/internal/phase"
	"rsu/internal/ret"
	"rsu/internal/rng"
	"rsu/internal/synth"
)

// BarkerResult compares the Gibbs unit with the Barker/Metropolis unit.
type BarkerResult struct {
	Dataset string
	// Sweeps-matched comparison: same annealing schedule.
	GibbsBP, BarkerBP float64
	// Work-matched: Barker gets extra sweeps so both evaluate a similar
	// number of labels (a Barker update touches 2 labels, Gibbs touches M).
	BarkerWorkMatchedBP float64
	ExtraSweepFactor    int
	Labels              int
}

// Barker evaluates the "beyond Gibbs" extension (paper future work): a
// first-to-fire Barker/Metropolis unit on poster stereo, both
// sweeps-matched and label-evaluation-matched against the Gibbs unit.
func Barker(o Options) (*BarkerResult, error) {
	pair := synth.Poster(o.scale())
	p := stereoParams(o)
	res := &BarkerResult{Dataset: pair.Name, Labels: pair.Labels}

	// Work-matched: Gibbs evaluates M labels per update, Barker 2. Give
	// Barker M/2 x the sweeps (capped to keep run time sane).
	factor := pair.Labels / 2
	if factor > 12 {
		factor = 12
	}
	res.ExtraSweepFactor = factor
	pw := p
	pw.Schedule.Iterations = p.Schedule.Iterations * factor
	// Slow the annealing proportionally so the temperature ladder matches.
	pw.Schedule.Alpha = math.Pow(p.Schedule.Alpha, 1/float64(factor))

	// The three arms are independent design points; fan them.
	err := o.forEach(3, func(i int) error {
		switch i {
		case 0:
			g, err := stereo.Solve(pair, core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(o.subSeed("bk-g")), true), p)
			if err != nil {
				return err
			}
			res.GibbsBP = g.BP
		case 1:
			bs, err := core.NewBarkerSampler(core.NewRSUG(), rng.NewXoshiro256(o.subSeed("bk-b")))
			if err != nil {
				return err
			}
			b, err := stereo.Solve(pair, bs, p)
			if err != nil {
				return err
			}
			res.BarkerBP = b.BP
		case 2:
			bw, err := core.NewBarkerSampler(core.NewRSUG(), rng.NewXoshiro256(o.subSeed("bk-w")))
			if err != nil {
				return err
			}
			w, err := stereo.Solve(pair, bw, pw)
			if err != nil {
				return err
			}
			res.BarkerWorkMatchedBP = w.BP
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (r *BarkerResult) String() string {
	return fmt.Sprintf(`Extension: Barker/Metropolis sampling unit (%s, %d labels)
  Gibbs unit BP:                 %6.1f   (M label evals per update)
  Barker unit BP (same sweeps):  %6.1f   (2 label evals per update)
  Barker unit BP (%2dx sweeps):   %6.1f   (work-matched)
note: first-to-fire between current and proposal implements Barker's
acceptance exactly; it mixes slower per sweep but needs only 2 RET
activations per update
`, r.Dataset, r.Labels, r.GibbsBP, r.BarkerBP, r.ExtraSweepFactor, r.BarkerWorkMatchedBP)
}

// PhaseTypeResult holds the Erlang-cascade study.
type PhaseTypeResult struct {
	Stages       []int
	IdealCV      []float64
	MeasuredCV   []float64
	IdealMean    []float64
	MeasuredMean []float64
	Samples      int
}

// PhaseType evaluates phase-type sampling on the RET substrate (paper
// future work): Erlang-k cascades of code-4 windows, comparing the ideal
// hypoexponential moments with the quantized, truncated cascade.
func PhaseType(o Options) (*PhaseTypeResult, error) {
	res := &PhaseTypeResult{Stages: []int{1, 2, 4, 8, 16}, Samples: o.iters(200000)}
	cfg := core.NewRSUG()
	for _, k := range res.Stages {
		codes := make([]int, k)
		for i := range codes {
			codes[i] = 4
		}
		s, err := phase.NewRETSampler(cfg, codes, rng.NewXoshiro256(o.subSeed(fmt.Sprintf("pt-%d", k))))
		if err != nil {
			return nil, err
		}
		im, iv := s.IdealMoments()
		mm, mv := s.Measure(res.Samples)
		res.IdealMean = append(res.IdealMean, im)
		res.MeasuredMean = append(res.MeasuredMean, mm)
		res.IdealCV = append(res.IdealCV, math.Sqrt(iv)/im)
		res.MeasuredCV = append(res.MeasuredCV, math.Sqrt(mv)/mm)
	}
	return res, nil
}

func (r *PhaseTypeResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: phase-type (Erlang-k) sampling on the RET substrate (%d samples)\n", r.Samples)
	fmt.Fprintf(&b, "  %-8s %12s %12s %10s %10s\n", "stages", "ideal mean", "meas. mean", "ideal CV", "meas. CV")
	for i, k := range r.Stages {
		fmt.Fprintf(&b, "  %-8d %12.2f %12.2f %10.3f %10.3f\n",
			k, r.IdealMean[i], r.MeasuredMean[i], r.IdealCV[i], r.MeasuredCV[i])
	}
	b.WriteString("note: CV shrinks ~1/sqrt(k) (cascades approximate deterministic delays);\n")
	b.WriteString("truncation pulls the measured mean below ideal, binning adds ~0.5 bin/stage\n")
	return b.String()
}

// PyramidResult holds the large-motion pyramid study.
type PyramidFlowResult struct {
	MaxMotion      int
	SingleEPE      float64
	PyramidEPE     float64
	PyramidRSUGEPE float64
	LevelsUsed     int
	LabelsPerLevel int
}

// Pyramid evaluates the image-pyramid route to motions beyond the 64-label
// window (paper Sec. III-D-2 / future work): a ±6-pixel scene solved with
// one level (insufficient window) versus a 2-level pyramid, on both the
// software sampler and the new RSU-G.
func Pyramid(o Options) (*PyramidFlowResult, error) {
	pair := synth.LargeMotion(o.scale())
	p := flow.DefaultParams()
	p.Schedule = o.schedule(p.Schedule)
	p.Ctx = o.Ctx
	res := &PyramidFlowResult{MaxMotion: 6, LevelsUsed: 2, LabelsPerLevel: 49}

	single, err := flow.SolvePyramid(pair, func(int) core.LabelSampler {
		return core.NewSoftwareSampler(rng.NewXoshiro256(o.subSeed("pyr-1")))
	}, p, 3, 1)
	if err != nil {
		return nil, err
	}
	res.SingleEPE = single.EPE

	pyr, err := flow.SolvePyramid(pair, func(l int) core.LabelSampler {
		return core.NewSoftwareSampler(rng.NewXoshiro256(o.subSeed(fmt.Sprintf("pyr-2-%d", l))))
	}, p, 3, 2)
	if err != nil {
		return nil, err
	}
	res.PyramidEPE = pyr.EPE

	rp, err := flow.SolvePyramid(pair, func(l int) core.LabelSampler {
		return core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(o.subSeed(fmt.Sprintf("pyr-r-%d", l))), true)
	}, p, 3, 2)
	if err != nil {
		return nil, err
	}
	res.PyramidRSUGEPE = rp.EPE
	return res, nil
}

func (r *PyramidFlowResult) String() string {
	return fmt.Sprintf(`Extension: image-pyramid motion estimation (±%d px scene, %d labels/level)
  single level (window ±3):      EPE %6.3f   (motion out of reach)
  %d-level pyramid, software:     EPE %6.3f
  %d-level pyramid, new RSU-G:    EPE %6.3f
note: every per-level solve stays within the RSU-G's 64-label limit while
the pyramid covers the larger search range the paper defers to this method
`, r.MaxMotion, r.LabelsPerLevel, r.SingleEPE, r.LevelsUsed, r.PyramidEPE, r.LevelsUsed, r.PyramidRSUGEPE)
}

// BleachingResult holds the photo-bleaching study.
type BleachingResult struct {
	Activations  int
	YieldNoMitig float64
	TruncNoMitig float64
	YieldRotated float64
	TruncRotated float64
	DesignTrunc  float64
}

// Bleaching quantifies photo-bleaching drift (paper Sec. IV-D): sustained
// sampling on a single row degrades quantum yield and inflates the
// truncation rate; rotating across the 8 replica rows spreads the exposure
// 8x, and Refresh models molecular-layer replacement.
func Bleaching(o Options) (*BleachingResult, error) {
	const bleach = 2e-5
	acts := o.iters(30000)
	res := &BleachingResult{Activations: acts, DesignTrunc: 0.5}

	// measureTrunc warms the circuit for `acts` activations, then probes
	// the *post-exposure* truncation rate. Long rests between activations
	// keep residual bleed-through from masking the bleaching effect.
	measureTrunc := func(rows int, seed string) (yield, trunc float64, err error) {
		cfg := ret.NewDesignCircuit()
		cfg.Rows = rows
		cfg.BleachPerExcitation = bleach
		c, err := ret.NewCircuit(cfg, rng.NewXoshiro256(o.subSeed(seed)))
		if err != nil {
			return 0, 0, err
		}
		var now int64
		for i := 0; i < acts; i++ {
			c.Sample(1, int64(i), now)
			now += 1024
		}
		yield = c.MinYield()
		before := c.Stats().Truncated
		const probe = 20000
		for i := 0; i < probe; i++ {
			c.Sample(1, int64(acts+i), now)
			now += 1024
		}
		trunc = float64(c.Stats().Truncated-before) / probe
		return yield, trunc, nil
	}

	var err error
	// No mitigation: one row takes every activation.
	if res.YieldNoMitig, res.TruncNoMitig, err = measureTrunc(1, "bl-1"); err != nil {
		return nil, err
	}
	// Mitigated: the nominal 8-row rotation spreads the exposure.
	if res.YieldRotated, res.TruncRotated, err = measureTrunc(8, "bl-8"); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *BleachingResult) String() string {
	return fmt.Sprintf(`Extension: photo-bleaching drift over %d activations (bleach 2e-5/excitation)
  single row (no mitigation): yield %.3f, truncation rate %.3f (design %.2f)
  8-row rotation:             yield %.3f, truncation rate %.3f
note: rotation spreads exposure 8x; Circuit.Refresh models molecular-layer
replacement (the paper's photo-bleaching mitigation reference)
`, r.Activations, r.YieldNoMitig, r.TruncNoMitig, r.DesignTrunc, r.YieldRotated, r.TruncRotated)
}
