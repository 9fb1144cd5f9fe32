// Package flow implements the paper's motion-estimation (optical flow)
// workload: MCMC MRF inference over a 2-D search window of motion vectors
// (Sec. III-D-2). Labels index the (2R+1)x(2R+1) window (49 labels for the
// paper's setting); the smoothness term applies the squared distance to the
// decoded vectors, the energy function of Konrad & Dubois the previous
// RSU-G was designed around.
package flow

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

// Params are the MCMC model parameters for motion estimation.
type Params struct {
	// DataWeight scales the squared intensity difference (after /256
	// normalization into the 8-bit energy range).
	DataWeight float64
	// DataCap truncates the data term.
	DataCap float64
	// SmoothWeight scales the squared vector distance between neighboring
	// motion labels.
	SmoothWeight float64
	// SmoothCap truncates the squared vector distance.
	SmoothCap float64
	// BorderCost is charged when a motion vector points outside frame 1.
	BorderCost float64
	// Schedule is the simulated-annealing schedule.
	Schedule mrf.Schedule
	// Options are the run options every app shares (see apps.Options).
	// SolvePyramid honors only SamplerFactory, Workers and Ctx: its
	// per-level problems differ in shape, so one LUT, accumulator, fault
	// report or snapshot cannot span the run. It gives level l, worker w
	// the stream l*workers + w, so every level draws from fresh streams.
	apps.Options
}

// DefaultParams returns the tuned parameter set shared by all samplers.
func DefaultParams() Params {
	return Params{
		DataWeight:   1.0,
		DataCap:      60,
		SmoothWeight: 5,
		SmoothCap:    8,
		BorderCost:   60,
		Schedule:     mrf.Schedule{T0: 32, Alpha: 0.982, Iterations: 300},
	}
}

// BuildProblem constructs the MRF for a frame pair. The singleton is the
// truncated, normalized squared intensity difference between the frame-0
// pixel and its motion-displaced frame-1 pixel.
func BuildProblem(pair *synth.FlowPair, p Params) *mrf.Problem {
	f0, f1 := pair.Frame0, pair.Frame1
	r := pair.Radius
	return &mrf.Problem{
		W: f0.W, H: f0.H, Labels: pair.LabelCount(),
		Singleton: func(x, y, l int) float64 {
			u, v := synth.LabelToVector(l, r)
			x1, y1 := x+u, y+v
			if !f1.In(x1, y1) {
				return p.BorderCost
			}
			d := f0.At(x, y) - f1.At(x1, y1)
			cost := d * d / 256
			if cost > p.DataCap {
				cost = p.DataCap
			}
			return p.DataWeight * cost
		},
		PairWeight: p.SmoothWeight,
		PairDist: func(a, b int) float64 {
			ua, va := synth.LabelToVector(a, r)
			ub, vb := synth.LabelToVector(b, r)
			du, dv := float64(ua-ub), float64(va-vb)
			return du*du + dv*dv
		},
		Dist:         mrf.Squared,
		TruncateDist: p.SmoothCap,
	}
}

// Result is one solved motion-estimation instance with its quality score.
type Result struct {
	Pair   *synth.FlowPair
	Labels *img.Labels
	EPE    float64 // average end-point error, in pixels
	// UQ holds the posterior marginal estimates when Params.UQ enabled
	// collection; nil otherwise.
	UQ *uq.Result
	// Faults summarizes the injected device faults (and the UQ-based
	// degradation verdict) when Params.Faults requested injection.
	Faults *fault.Report
}

// Solve runs the MRF solver on the frame pair with the given sampler and
// scores the result with the Middlebury average end-point error.
func Solve(pair *synth.FlowPair, sampler core.LabelSampler, p Params) (*Result, error) {
	prob := BuildProblem(pair, p)
	run, err := apps.Solve(p.Options, prob, sampler, p.Schedule, mrf.SolveOptions{Init: initialLabels(pair)})
	if err != nil {
		return nil, err
	}
	lab := run.Labels
	n := pair.Frame0.W * pair.Frame0.H
	pu := make([]float64, n)
	pv := make([]float64, n)
	gu := make([]float64, n)
	gv := make([]float64, n)
	for i, l := range lab.L {
		u, v := synth.LabelToVector(l, pair.Radius)
		pu[i], pv[i] = float64(u), float64(v)
		gu[i], gv[i] = float64(pair.GTU[i]), float64(pair.GTV[i])
	}
	return &Result{
		Pair: pair, Labels: lab, EPE: metrics.EndPointError(pu, pv, gu, gv),
		UQ: run.UQ, Faults: run.Faults,
	}, nil
}

// initialLabels starts every pixel at the zero-motion label, a neutral
// initialization available to all samplers.
func initialLabels(pair *synth.FlowPair) *img.Labels {
	lab := img.NewLabels(pair.Frame0.W, pair.Frame0.H)
	lab.Fill(synth.VectorToLabel(0, 0, pair.Radius))
	return lab
}

// FlowFieldToGray renders the magnitude of a labeled flow field for visual
// inspection, scaled so the window-diagonal magnitude maps to 255.
func FlowFieldToGray(lab *img.Labels, radius int) *img.Gray {
	g := img.NewGray(lab.W, lab.H)
	maxMag := math.Hypot(float64(radius), float64(radius))
	for i, l := range lab.L {
		u, v := synth.LabelToVector(l, radius)
		g.Pix[i] = 255 * math.Hypot(float64(u), float64(v)) / maxMag
	}
	return g.Clamp255()
}
