// Package segment implements the paper's image-segmentation workload: MCMC
// MRF labeling with per-segment Gaussian intensity models and a Potts
// (binary-distance) smoothness prior (Sec. III-D-3). Following the paper,
// instances run a fixed number of plain Gibbs iterations (30) rather than a
// full annealing schedule, for each of several segment counts.
package segment

import (
	"fmt"
	"math"
	"sort"

	"rsu/internal/apps"
	"rsu/internal/core"
	"rsu/internal/fault"
	"rsu/internal/img"
	"rsu/internal/metrics"
	"rsu/internal/mrf"
	"rsu/internal/synth"
	"rsu/internal/uq"
)

// Params are the MCMC model parameters for segmentation.
type Params struct {
	// DataWeight scales the Gaussian data term (squared deviation from the
	// segment mean, normalized into the 8-bit energy range).
	DataWeight float64
	// DataCap truncates the data term.
	DataCap float64
	// SmoothWeight is the Potts smoothness weight.
	SmoothWeight float64
	// Iterations is the number of fixed-temperature Gibbs sweeps.
	Iterations int
	// Temperature is the fixed sampling temperature.
	Temperature float64
	// KMeansIters bounds the Lloyd iterations used to fit segment means.
	KMeansIters int
	// Options are the run options every app shares (see apps.Options).
	apps.Options
}

// DefaultParams returns the tuned parameter set shared by all samplers.
func DefaultParams() Params {
	return Params{
		DataWeight:   1.0,
		DataCap:      120,
		SmoothWeight: 20,
		Iterations:   30,
		Temperature:  6,
		KMeansIters:  20,
	}
}

// FitMeans runs 1-D k-means (Lloyd's algorithm) on the image intensities to
// estimate the k segment means — the domain model a practitioner would
// supply. Means are returned sorted ascending.
func FitMeans(im *img.Gray, k, iters int) []float64 {
	if k < 2 {
		panic("segment: need at least 2 segments")
	}
	// Initialize at evenly spaced quantiles.
	sorted := append([]float64(nil), im.Pix...)
	sort.Float64s(sorted)
	means := make([]float64, k)
	for i := range means {
		means[i] = sorted[(2*i+1)*len(sorted)/(2*k)]
	}
	assign := make([]int, len(im.Pix))
	for it := 0; it < iters; it++ {
		changed := false
		for i, v := range im.Pix {
			best, bestD := 0, math.Inf(1)
			for j, m := range means {
				d := (v - m) * (v - m)
				if d < bestD {
					bestD = d
					best = j
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		sums := make([]float64, k)
		counts := make([]float64, k)
		for i, a := range assign {
			sums[a] += im.Pix[i]
			counts[a]++
		}
		for j := range means {
			if counts[j] > 0 {
				means[j] = sums[j] / counts[j]
			}
		}
		if !changed {
			break
		}
	}
	sort.Float64s(means)
	return means
}

// BuildProblem constructs the MRF for segmenting im into k segments with the
// given means.
func BuildProblem(im *img.Gray, means []float64, p Params) *mrf.Problem {
	return &mrf.Problem{
		W: im.W, H: im.H, Labels: len(means),
		Singleton: func(x, y, l int) float64 {
			d := im.At(x, y) - means[l]
			cost := d * d / 256
			if cost > p.DataCap {
				cost = p.DataCap
			}
			return p.DataWeight * cost
		},
		PairWeight: p.SmoothWeight,
		Dist:       mrf.Binary,
	}
}

// Result is one solved segmentation instance with its quality scores.
type Result struct {
	Scene    *synth.SegScene
	Labeling *img.Labels
	Scores   metrics.SegScores
	// UQ holds the posterior marginal estimates when Params.UQ enabled
	// collection; nil otherwise.
	UQ *uq.Result
	// Faults summarizes the injected device faults (and the UQ-based
	// degradation verdict) when Params.Faults requested injection.
	Faults *fault.Report
}

// Solve segments the scene's image into scene.Segments segments using the
// given sampler and scores the result against ground truth with the four
// BISIP metrics.
func Solve(scene *synth.SegScene, sampler core.LabelSampler, p Params) (*Result, error) {
	if scene.Segments < 2 {
		return nil, fmt.Errorf("segment: need at least 2 segments, got %d", scene.Segments)
	}
	means := FitMeans(scene.Image, scene.Segments, p.KMeansIters)
	prob := BuildProblem(scene.Image, means, p)
	// Initialize from the pointwise nearest mean, as common practice (and
	// available to hardware and software alike).
	init := img.NewLabels(scene.Image.W, scene.Image.H)
	for i, v := range scene.Image.Pix {
		best, bestD := 0, math.Inf(1)
		for j, m := range means {
			d := (v - m) * (v - m)
			if d < bestD {
				bestD = d
				best = j
			}
		}
		init.L[i] = best
	}
	sched := mrf.Schedule{T0: p.Temperature, Alpha: 1, Iterations: p.Iterations}
	run, err := apps.Solve(p.Options, prob, sampler, sched, mrf.SolveOptions{Init: init})
	if err != nil {
		return nil, err
	}
	return &Result{
		Scene:    scene,
		Labeling: run.Labels,
		Scores:   metrics.EvaluateSegmentation(run.Labels, scene.GT),
		UQ:       run.UQ,
		Faults:   run.Faults,
	}, nil
}
