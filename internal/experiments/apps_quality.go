package experiments

import (
	"fmt"

	"rsu/internal/apps/flow"
	"rsu/internal/apps/segment"
	"rsu/internal/core"
	"rsu/internal/rng"
	"rsu/internal/synth"
)

// Fig9cResult holds motion-estimation end-point errors.
type Fig9cResult struct {
	Datasets []string
	Software []float64
	NewRSUG  []float64
	PrevRSUG []float64
}

// Fig9c reproduces Fig. 9c: average end-point error on the three flow
// datasets with the 7x7 search window (49 labels). The previous design is
// included to show the same degradation stereo exhibits.
func Fig9c(o Options) (*Fig9cResult, error) {
	res := &Fig9cResult{}
	p := flow.DefaultParams()
	p.Schedule = o.schedule(p.Schedule)
	p.Ctx = o.Ctx
	for _, pair := range synth.FlowPresets(o.scale()) {
		sw, err := flow.Solve(pair, core.NewSoftwareSampler(rng.NewXoshiro256(o.subSeed("fig9c-sw-"+pair.Name))), p)
		if err != nil {
			return nil, err
		}
		nu, err := flow.Solve(pair, core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(o.subSeed("fig9c-new-"+pair.Name)), true), p)
		if err != nil {
			return nil, err
		}
		pv, err := flow.Solve(pair, core.MustUnit(core.PrevRSUG(), rng.NewXoshiro256(o.subSeed("fig9c-prev-"+pair.Name)), true), p)
		if err != nil {
			return nil, err
		}
		res.Datasets = append(res.Datasets, pair.Name)
		res.Software = append(res.Software, sw.EPE)
		res.NewRSUG = append(res.NewRSUG, nu.EPE)
		res.PrevRSUG = append(res.PrevRSUG, pv.EPE)
	}
	return res, nil
}

func (r *Fig9cResult) String() string {
	t := &table{title: "Fig. 9c: motion estimation average end-point error (pixels)",
		columns: []string{"software", "new-RSUG", "prev-RSUG"}, prec: 3}
	for i, d := range r.Datasets {
		t.add(d, r.Software[i], r.NewRSUG[i], r.PrevRSUG[i])
	}
	t.notes = append(t.notes, "paper: new RSU-G comparable to software")
	return t.String()
}

// SegQualityResult holds segmentation quality across the 30 images.
type SegQualityResult struct {
	SegmentCounts []int
	// Per segment count: mean and std of VoI over the 30 images.
	SoftwareMean, SoftwareStd []float64
	NewRSUGMean, NewRSUGStd   []float64
	// PRI means, reported alongside (BISIP provides four metrics).
	SoftwarePRI, NewRSUGPRI []float64
	Images                  int
}

// segQuality runs the paper's segmentation protocol: 30 images, each
// segmented with 2, 4, 6 and 8 labels for 30 iterations.
func segQuality(o Options) (*SegQualityResult, error) {
	res := &SegQualityResult{SegmentCounts: []int{2, 4, 6, 8}, Images: 30}
	p := segment.DefaultParams()
	p.Iterations = o.iters(p.Iterations)
	p.Ctx = o.Ctx
	for _, k := range res.SegmentCounts {
		var swV, nuV, swP, nuP []float64
		for i := 0; i < res.Images; i++ {
			scene := synth.BSDLike(i, k, o.scale())
			sw, err := segment.Solve(scene, core.NewSoftwareSampler(rng.NewXoshiro256(o.subSeed(fmt.Sprintf("seg-sw-%d-%d", k, i)))), p)
			if err != nil {
				return nil, err
			}
			nu, err := segment.Solve(scene, core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(o.subSeed(fmt.Sprintf("seg-new-%d-%d", k, i))), true), p)
			if err != nil {
				return nil, err
			}
			swV = append(swV, sw.Scores.VoI)
			nuV = append(nuV, nu.Scores.VoI)
			swP = append(swP, sw.Scores.PRI)
			nuP = append(nuP, nu.Scores.PRI)
		}
		m, s := meanStd(swV)
		res.SoftwareMean = append(res.SoftwareMean, m)
		res.SoftwareStd = append(res.SoftwareStd, s)
		m, s = meanStd(nuV)
		res.NewRSUGMean = append(res.NewRSUGMean, m)
		res.NewRSUGStd = append(res.NewRSUGStd, s)
		m, _ = meanStd(swP)
		res.SoftwarePRI = append(res.SoftwarePRI, m)
		m, _ = meanStd(nuP)
		res.NewRSUGPRI = append(res.NewRSUGPRI, m)
	}
	return res, nil
}

// Fig9d reproduces Fig. 9d: mean Variation of Information (lower is better)
// across 30 images for 2/4/6/8-label segmentation.
func Fig9d(o Options) (*SegQualityResult, error) { return segQuality(o) }

func (r *SegQualityResult) String() string {
	cols := make([]string, len(r.SegmentCounts))
	for i, k := range r.SegmentCounts {
		cols[i] = fmt.Sprintf("%d-label", k)
	}
	t := &table{title: fmt.Sprintf("Fig. 9d: mean VoI across %d images (lower is better)", r.Images), columns: cols, prec: 3}
	t.add("software VoI", r.SoftwareMean...)
	t.add("new-RSUG VoI", r.NewRSUGMean...)
	t.add("software PRI", r.SoftwarePRI...)
	t.add("new-RSUG PRI", r.NewRSUGPRI...)
	t.notes = append(t.notes, "paper: RSU-G achieves result quality comparable to software")
	return t.String()
}

// Table1Result renders the VoI standard deviations (paper Table I).
type Table1Result struct{ *SegQualityResult }

// Table1 reproduces Table I: the standard deviation of VoI across the 30
// tested images for both implementations.
func Table1(o Options) (*Table1Result, error) {
	r, err := segQuality(o)
	if err != nil {
		return nil, err
	}
	return &Table1Result{r}, nil
}

func (r *Table1Result) String() string {
	cols := make([]string, len(r.SegmentCounts))
	for i, k := range r.SegmentCounts {
		cols[i] = fmt.Sprintf("%d-label", k)
	}
	t := &table{title: fmt.Sprintf("Table I: standard deviation of VoI across %d images", r.Images), columns: cols, prec: 2}
	t.add("Software-only", r.SoftwareStd...)
	t.add("New-RSUG", r.NewRSUGStd...)
	t.notes = append(t.notes, "paper: 0.63/0.71/0.71/0.79 vs 0.63/0.69/0.68/0.76 — near-identical spreads")
	return t.String()
}
