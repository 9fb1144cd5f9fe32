package conformance

import (
	"testing"

	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/rng"
)

// randomProblem builds a random MRF instance: random grid size, label count,
// distance kind (including a custom PairDist), truncation, and a dense random
// singleton table captured by value.
func randomProblem(src rng.Source) *mrf.Problem {
	w := 2 + int(src.Uint64()%9)
	h := 2 + int(src.Uint64()%9)
	labels := 2 + int(src.Uint64()%7)
	singles := make([]float64, w*h*labels)
	for i := range singles {
		singles[i] = rng.Float64(src)*200 - 50
	}
	p := &mrf.Problem{
		W: w, H: h, Labels: labels,
		Singleton: func(x, y, l int) float64 {
			return singles[(y*w+x)*labels+l]
		},
		PairWeight: rng.Float64(src) * 40,
		Dist:       mrf.DistanceKind(src.Uint64() % 3),
	}
	if src.Uint64()%4 == 0 {
		// A custom label distance, as motion estimation installs.
		p.PairDist = func(a, b int) float64 {
			d := float64(a%3 - b%3)
			return d*d + float64((a+b)%2)
		}
	}
	if src.Uint64()%2 == 0 {
		p.TruncateDist = 0.5 + rng.Float64(src)*3
	}
	return p
}

func randomLabels(src rng.Source, w, h, labels int) *img.Labels {
	lab := img.NewLabels(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			lab.Set(x, y, int(src.Uint64()%uint64(labels)))
		}
	}
	return lab
}

// TestTablesMatchDirectEvaluation is the LUT-correctness property: for random
// problems and random labelings, the Tables fast path must produce energies
// bit-identical to Problem.LabelEnergies direct evaluation at every pixel.
// The solvers run exclusively on the fast path, so any LUT indexing or
// folding bug would silently change every solve; this pins it exactly.
func TestTablesMatchDirectEvaluation(t *testing.T) {
	src := rng.NewXoshiro256(41)
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(src)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random problem: %v", trial, err)
		}
		tab := p.BuildTables()
		lab := randomLabels(src, p.W, p.H, p.Labels)
		fast := make([]float64, p.Labels)
		direct := make([]float64, p.Labels)
		for y := 0; y < p.H; y++ {
			for x := 0; x < p.W; x++ {
				tab.LabelEnergies(fast, lab, x, y)
				p.LabelEnergies(direct, lab, x, y)
				for l := range fast {
					if fast[l] != direct[l] {
						t.Fatalf("trial %d (%dx%d, %d labels, dist %v, custom %v, trunc %v): pixel (%d,%d) label %d: LUT %v != direct %v",
							trial, p.W, p.H, p.Labels, p.Dist, p.PairDist != nil, p.TruncateDist,
							x, y, l, fast[l], direct[l])
					}
				}
			}
		}
	}
}
