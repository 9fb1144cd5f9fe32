package synth

import (
	"fmt"
	"math"

	"rsu/internal/img"
	"rsu/internal/rng"
)

// SegScene is a synthetic segmentation benchmark image: a mosaic of regions
// with distinct mean intensities plus sensor noise, and the exact
// ground-truth region map. It stands in for the BSD300 images (DESIGN.md §4).
type SegScene struct {
	Name     string
	Image    *img.Gray
	GT       *img.Labels
	Segments int
	Sigma    float64 // noise level baked into Image
}

// MaxSegments is the largest segment count a scene renders; the smallest is
// 2.
const MaxSegments = 32

// bsdImages is how many BSDLike scenes there are, bsd00 .. bsd29.
const bsdImages = 30

// Segments renders a k-region mosaic of size w×h. Regions are the Voronoi
// cells of deterministic random sites, which yields irregular curved-ish
// boundaries like natural image segmentations. Region means are spread over
// [30, 225] and shuffled so adjacent regions contrast.
func Segments(name string, w, h, k int, sigma float64, seed uint64) *SegScene {
	checkSize(w, h)
	if k < 2 || k > MaxSegments {
		panic(fmt.Sprintf("synth: segment count %d out of [2,%d]", k, MaxSegments))
	}
	src := rng.NewXoshiro256(seed)
	type site struct {
		x, y float64
		mean float64
	}
	sites := make([]site, k)
	for i := range sites {
		sites[i] = site{
			x:    rng.Float64(src) * float64(w),
			y:    rng.Float64(src) * float64(h),
			mean: 30 + 195*float64(permuted(i, k, seed))/float64(k-1),
		}
	}
	s := &SegScene{
		Name: name, Segments: k, Sigma: sigma,
		Image: img.NewGray(w, h),
		GT:    img.NewLabels(w, h),
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			best, bestD := 0, math.Inf(1)
			for i, st := range sites {
				dx, dy := float64(x)-st.x, float64(y)-st.y
				d := dx*dx + dy*dy
				if d < bestD {
					bestD = d
					best = i
				}
			}
			s.GT.Set(x, y, best)
			s.Image.Set(x, y, sites[best].mean)
		}
	}
	addNoise(s.Image, seed^0x5e6, sigma)
	return s
}

// permuted maps i to a deterministic permutation of [0, k), decorrelating
// region means from spatial order.
func permuted(i, k int, seed uint64) int {
	perm := make([]int, k)
	for j := range perm {
		perm[j] = j
	}
	h := seed
	for j := k - 1; j > 0; j-- {
		h = h*6364136223846793005 + 1442695040888963407
		perm[j], perm[int(h>>33)%(j+1)] = perm[int(h>>33)%(j+1)], perm[j]
	}
	return perm[i]
}

// BSDLike returns the i-th of the 30 synthetic stand-ins for the randomly
// selected BSD300 images, rendered with k ground-truth segments. Image
// content varies with i; size and noise follow the experiment defaults.
func BSDLike(i, k, scale int) *SegScene {
	if i < 0 || i >= bsdImages {
		panic(fmt.Sprintf("synth: BSDLike index %d out of [0,%d)", i, bsdImages))
	}
	return Segments(bsdName(i), 48*max1(scale), 32*max1(scale), k, 18,
		0xb5d000+uint64(i)*7919)
}

// bsdName is the dataset name of BSDLike scene i.
func bsdName(i int) string { return fmt.Sprintf("bsd%02d", i) }

// SegmentDataset returns the builder of the named segmentation scene —
// exactly bsd00 .. bsd29, BSDLike's scenes — or an error listing the valid
// names. The builder takes the segment count k, in [2, MaxSegments], and the
// scale.
func SegmentDataset(name string) (func(k, scale int) *SegScene, error) {
	for i := range bsdImages {
		if name == bsdName(i) {
			return func(k, scale int) *SegScene { return BSDLike(i, k, scale) }, nil
		}
	}
	return nil, fmt.Errorf("synth: unknown segment dataset %q (want bsd00 .. bsd%02d)", name, bsdImages-1)
}
