// Package stereo implements the paper's stereo-vision workload: MCMC MRF
// disparity estimation on rectified image pairs (Sec. III-A), the
// application with the highest precision requirements and the paper's
// running example. Labels are scalar disparities; the smoothness term uses
// the absolute distance the new RSU-G adds support for.
package stereo

import (
	"math"

	"rsu/internal/apps"
	"rsu/internal/core"
	"rsu/internal/fault"
	"rsu/internal/img"
	"rsu/internal/metrics"
	"rsu/internal/mrf"
	"rsu/internal/synth"
	"rsu/internal/uq"
)

// Params are the MCMC model parameters. The defaults come from a best-effort
// tuning pass (as the paper performs for its energy weights) and are shared
// by every configuration under comparison.
type Params struct {
	// DataWeight scales the absolute-difference matching cost.
	DataWeight float64
	// DataCap truncates the matching cost (robustness to occlusion).
	DataCap float64
	// SmoothWeight scales the absolute label distance between neighbors.
	SmoothWeight float64
	// SmoothCap truncates the label distance.
	SmoothCap float64
	// OcclusionCost is charged when a disparity would look outside the
	// right image (no possible correspondence).
	OcclusionCost float64
	// Schedule is the simulated-annealing schedule.
	Schedule mrf.Schedule
	// Options are the run options every app shares (see apps.Options).
	apps.Options
}

// DefaultParams returns the tuned parameter set used across the experiments.
// Energies stay within the 8-bit range [0, 255] the RSU-G quantizes to.
func DefaultParams() Params {
	return Params{
		DataWeight:    1.0,
		DataCap:       60,
		SmoothWeight:  8,
		SmoothCap:     6,
		OcclusionCost: 60,
		Schedule:      mrf.Schedule{T0: 32, Alpha: 0.9885, Iterations: 500},
	}
}

// BuildProblem constructs the MRF for a stereo pair. The singleton is the
// truncated absolute intensity difference between the left pixel and its
// disparity-shifted right pixel, aggregated over a 3x1 horizontal window to
// stabilize matching. Where the whole window lies inside both images it
// reads the rows directly; border windows replicate the edge pixel through
// AtClamped. Both paths sum the same terms in the same order, so the cost
// is the same either way.
func BuildProblem(pair *synth.StereoPair, p Params) *mrf.Problem {
	left, right := pair.Left, pair.Right
	W := left.W
	direct := right.W == W && right.H == left.H
	return &mrf.Problem{
		W: W, H: left.H, Labels: pair.Labels,
		Singleton: func(x, y, d int) float64 {
			if x-d < 0 {
				return p.OcclusionCost
			}
			var cost float64
			if direct && x-1-d >= 0 && x+1 < W {
				i := y*W + x - 1
				lw, rw := left.Pix[i:i+3], right.Pix[i-d:i-d+3]
				for k := range lw {
					diff := math.Abs(lw[k] - rw[k])
					if diff > p.DataCap {
						diff = p.DataCap
					}
					cost += diff
				}
				return p.DataWeight * cost / 3
			}
			for dx := -1; dx <= 1; dx++ {
				diff := math.Abs(left.AtClamped(x+dx, y) - right.AtClamped(x+dx-d, y))
				if diff > p.DataCap {
					diff = p.DataCap
				}
				cost += diff
			}
			return p.DataWeight * cost / 3
		},
		PairWeight:   p.SmoothWeight,
		Dist:         mrf.Absolute,
		TruncateDist: p.SmoothCap,
	}
}

// Result is one solved stereo instance with its quality scores.
type Result struct {
	Pair      *synth.StereoPair
	Disparity *img.Labels
	BP        float64 // bad-pixel percentage, threshold 1
	RMS       float64 // RMS disparity error
	// Subregions breaks BP down by occluded / textureless regions, the
	// more detailed Middlebury evaluation the paper references.
	Subregions metrics.SubregionBP
	// UQ holds the posterior marginal estimates when Params.UQ enabled
	// collection; nil otherwise.
	UQ *uq.Result
	// Faults summarizes the injected device faults (and the UQ-based
	// degradation verdict) when Params.Faults requested injection.
	Faults *fault.Report
}

// texturelessVarianceCutoff is the 3x3 local-variance threshold below which
// a pixel counts as textureless for the subregion breakdown.
const texturelessVarianceCutoff = 40

// Solve runs the MRF solver on the pair with the given label sampler and
// scores the result against ground truth using the paper's metrics.
func Solve(pair *synth.StereoPair, sampler core.LabelSampler, p Params) (*Result, error) {
	prob := BuildProblem(pair, p)
	run, err := apps.Solve(p.Options, prob, sampler, p.Schedule, mrf.SolveOptions{})
	if err != nil {
		return nil, err
	}
	lab := run.Labels
	return &Result{
		Pair:       pair,
		Disparity:  lab,
		BP:         metrics.BadPixelPct(lab, pair.GT, 1, pair.Mask),
		RMS:        metrics.RMSError(lab, pair.GT, pair.Mask),
		Subregions: metrics.EvaluateSubregions(lab, pair.GT, pair.Mask, pair.Left, 1, texturelessVarianceCutoff),
		UQ:         run.UQ,
		Faults:     run.Faults,
	}, nil
}
