package flow

import (
	"fmt"

	"rsu/internal/apps"
	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/metrics"
	"rsu/internal/mrf"
	"rsu/internal/shard"
	"rsu/internal/synth"
)

// Field is a dense integer flow field, the output of the pyramid solver
// (whose total motions exceed what a single label map can encode).
type Field struct {
	W, H int
	U, V []int
}

// newField allocates a zero flow field.
func newField(w, h int) *Field {
	return &Field{W: w, H: h, U: make([]int, w*h), V: make([]int, w*h)}
}

// downsample2 halves an image with 2x2 box averaging (odd trailing
// rows/columns fold into the last cell).
func downsample2(g *img.Gray) *img.Gray {
	w2, h2 := (g.W+1)/2, (g.H+1)/2
	out := img.NewGray(w2, h2)
	for y := 0; y < h2; y++ {
		for x := 0; x < w2; x++ {
			sum, n := 0.0, 0.0
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					xx, yy := 2*x+dx, 2*y+dy
					if xx < g.W && yy < g.H {
						sum += g.At(xx, yy)
						n++
					}
				}
			}
			out.Set(x, y, sum/n)
		}
	}
	return out
}

// upsampleField doubles a flow field to the given finer size, scaling the
// vectors by 2 (nearest-neighbor in space).
func upsampleField(f *Field, w, h int) *Field {
	out := newField(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			cx, cy := x/2, y/2
			if cx >= f.W {
				cx = f.W - 1
			}
			if cy >= f.H {
				cy = f.H - 1
			}
			out.U[y*w+x] = 2 * f.U[cy*f.W+cx]
			out.V[y*w+x] = 2 * f.V[cy*f.W+cx]
		}
	}
	return out
}

// buildResidualProblem constructs the MRF for one pyramid level: labels are
// residual motions in the (2R+1)^2 window around the upsampled base flow.
// The smoothness prior acts on the residuals — the standard coarse-to-fine
// approximation, since the base field is already smooth by construction.
func buildResidualProblem(f0, f1 *img.Gray, base *Field, radius int, p Params) *mrf.Problem {
	side := 2*radius + 1
	return &mrf.Problem{
		W: f0.W, H: f0.H, Labels: side * side,
		Singleton: func(x, y, l int) float64 {
			du, dv := synth.LabelToVector(l, radius)
			i := y*f0.W + x
			x1, y1 := x+base.U[i]+du, y+base.V[i]+dv
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
			ua, va := synth.LabelToVector(a, radius)
			ub, vb := synth.LabelToVector(b, radius)
			du, dv := float64(ua-ub), float64(va-vb)
			return du*du + dv*dv
		},
		Dist:         mrf.Squared,
		TruncateDist: p.SmoothCap,
	}
}

// PyramidResult is a pyramid solve with its quality score.
type PyramidResult struct {
	Pair   *synth.FlowPair
	Field  *Field
	Levels int
	EPE    float64
}

// SolvePyramid estimates flow coarse-to-fine: the frames are downsampled
// `levels-1` times; each level solves a (2*radius+1)^2-label MRF for the
// residual motion around the upsampled coarser estimate. This is the
// paper's image-pyramid route to motions beyond the RSU-G's 64-label
// window (Sec. III-D-2): a 2-level pyramid with radius 3 covers ±9 pixels
// while every individual solve stays at 49 labels. newSampler is invoked
// once per level (samplers hold RNG state); it is ignored (and may be nil)
// when p.SamplerFactory selects the parallel solver.
func SolvePyramid(pair *synth.FlowPair, newSampler func(level int) core.LabelSampler, p Params, radius, levels int) (*PyramidResult, error) {
	// Checked here because the stream offsets below are sized from the count.
	if p.Workers < 0 {
		return nil, fmt.Errorf("mrf: SolveOptions.Workers must be >= 0, got %d", p.Workers)
	}
	if levels < 1 {
		return nil, fmt.Errorf("flow: need at least one pyramid level")
	}
	if radius < 1 || radius > 3 {
		return nil, fmt.Errorf("flow: per-level radius %d outside [1,3] (64-label limit)", radius)
	}
	// Build the pyramids, level 0 = finest.
	f0s := []*img.Gray{pair.Frame0}
	f1s := []*img.Gray{pair.Frame1}
	for l := 1; l < levels; l++ {
		if f0s[l-1].W < 8 || f0s[l-1].H < 8 {
			return nil, fmt.Errorf("flow: pyramid level %d would be smaller than 8x8", l)
		}
		f0s = append(f0s, downsample2(f0s[l-1]))
		f1s = append(f1s, downsample2(f1s[l-1]))
	}
	// Level l's streams start after those of every finer level, each block
	// as wide as the tiles that level runs: Workers, or shard.Auto's lattice
	// for Workers 0 (what mrf.Solve runs). Levels run in sequence, so
	// reusing streams across levels would correlate them.
	offset := make([]int, levels)
	for l := 1; l < levels; l++ {
		tiles := p.Workers
		if tiles == 0 {
			tiles = shard.Auto(f0s[l-1].W, f0s[l-1].H).Tiles()
		}
		offset[l] = offset[l-1] + tiles
	}

	var base *Field
	for l := levels - 1; l >= 0; l-- {
		f0, f1 := f0s[l], f1s[l]
		if base == nil {
			base = newField(f0.W, f0.H)
		} else {
			base = upsampleField(base, f0.W, f0.H)
		}
		prob := buildResidualProblem(f0, f1, base, radius, p)
		zero := img.NewLabels(f0.W, f0.H).Fill(synth.VectorToLabel(0, 0, radius))
		// Only the factory, worker count and context carry over (see Params).
		lo := apps.Options{Ctx: p.Ctx, Workers: p.Workers}
		var s core.LabelSampler
		if p.SamplerFactory != nil {
			off := offset[l]
			lo.SamplerFactory = func(w int) core.LabelSampler {
				return p.SamplerFactory(off + w)
			}
		} else if s = newSampler(l); s == nil {
			return nil, fmt.Errorf("flow: nil sampler for level %d", l)
		}
		run, err := apps.Solve(lo, prob, s, p.Schedule, mrf.SolveOptions{Init: zero})
		if err != nil {
			return nil, err
		}
		for i, lv := range run.Labels.L {
			du, dv := synth.LabelToVector(lv, radius)
			base.U[i] += du
			base.V[i] += dv
		}
	}

	n := pair.Frame0.W * pair.Frame0.H
	pu := make([]float64, n)
	pv := make([]float64, n)
	gu := make([]float64, n)
	gv := make([]float64, n)
	for i := 0; i < n; i++ {
		pu[i], pv[i] = float64(base.U[i]), float64(base.V[i])
		gu[i], gv[i] = float64(pair.GTU[i]), float64(pair.GTV[i])
	}
	return &PyramidResult{
		Pair: pair, Field: base, Levels: levels,
		EPE: metrics.EndPointError(pu, pv, gu, gv),
	}, nil
}
