package synth

import (
	"fmt"

	"rsu/internal/img"
)

// StereoPair is a rectified synthetic stereo scene with exact ground truth.
// Disparity follows the Middlebury convention: the world point at left-image
// pixel (x, y) appears at right-image pixel (x - d, y); larger disparities
// are closer to the camera.
type StereoPair struct {
	Name        string
	Left, Right *img.Gray
	GT          *img.Labels // ground-truth disparity in the left view
	Mask        []bool      // false where the left pixel has no right-image correspondence
	Labels      int         // number of disparity labels (0..Labels-1)
}

// Stereo renders a synthetic stereo pair of size w×h with the given number
// of disparity labels and shape layers, deterministically from seed.
func Stereo(name string, w, h, labels, layers int, seed uint64) *StereoPair {
	checkSize(w, h)
	if labels < 2 || labels > 64 {
		panic("synth: stereo labels must be in [2,64] (the RSU-G label limit)")
	}
	// Background sits at a small disparity; the nearest layer's disparity is
	// capped at a fraction of the image width so most of every surface stays
	// visible in both views (real benchmark images are far wider than their
	// disparity range; at our reduced sizes an uncapped range would occlude
	// half the scene). The *label space* still spans [0, labels-1], as in
	// the originals where most pixels sit well below the maximum disparity.
	maxDisp := labels - 1
	if cap := w / 5; maxDisp > cap {
		maxDisp = cap
	}
	disp := spreadValues(2, maxDisp, layers+1)
	sc := buildScene(w, h, seed, disp, nil)

	p := &StereoPair{
		Name: name, Labels: labels,
		Left:  img.NewGray(w, h),
		Right: img.NewGray(w, h),
		GT:    img.NewLabels(w, h),
		Mask:  make([]bool, w*h),
	}
	// Left view: world offset 0 for all layers.
	leftOff := func(shape) (int, int) { return 0, 0 }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := sc.topAt(x, y, leftOff)
			p.Left.Set(x, y, s.tex.sample(x, y))
			p.GT.Set(x, y, s.layerValue)
		}
	}
	// Right view: a layer at disparity d appears shifted left by d, so the
	// world point at right pixel (x, y) is the layer point (x + d, y).
	rightOff := func(s shape) (int, int) { return s.layerValue, 0 }
	rightVal := img.NewLabels(w, h) // disparity of the surface visible in the right view
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := sc.topAt(x, y, rightOff)
			p.Right.Set(x, y, s.tex.sample(x+s.layerValue, y))
			rightVal.Set(x, y, s.layerValue)
		}
	}
	// Correspondence mask: left pixel (x, y) at disparity d is visible in
	// the right image iff right pixel (x-d, y) is in bounds and shows the
	// same surface (same disparity).
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := p.GT.At(x, y)
			xr := x - d
			p.Mask[y*w+x] = xr >= 0 && rightVal.At(xr, y) == d
		}
	}
	addNoise(p.Left, seed^0x1ef7, 1.5)
	addNoise(p.Right, seed^0x419b7, 1.5)
	return p
}

// The three presets mirror the paper's randomly selected Middlebury scenes
// and their label counts: teddy (56), poster (30), art (28). scale=1 gives
// the default experiment size; larger scales grow the image (and run time)
// proportionally.

// Teddy returns the 56-label stereo scene.
func Teddy(scale int) *StereoPair {
	return Stereo("teddy", 64*max1(scale), 48*max1(scale), 56, 6, 0x7edd1)
}

// Poster returns the 30-label stereo scene.
func Poster(scale int) *StereoPair {
	return Stereo("poster", 64*max1(scale), 48*max1(scale), 30, 5, 0x90573)
}

// Art returns the 28-label stereo scene.
func Art(scale int) *StereoPair {
	return Stereo("art", 64*max1(scale), 48*max1(scale), 28, 5, 0xa97)
}

// StereoDataset returns the builder of the named stereo scene — teddy,
// poster or art — or an error listing the valid names.
func StereoDataset(name string) (func(scale int) *StereoPair, error) {
	switch name {
	case "teddy":
		return Teddy, nil
	case "poster":
		return Poster, nil
	case "art":
		return Art, nil
	}
	return nil, fmt.Errorf("synth: unknown stereo dataset %q (want teddy | poster | art)", name)
}

// StereoPresets returns the three named scenes at the given scale.
func StereoPresets(scale int) []*StereoPair {
	return []*StereoPair{Teddy(scale), Poster(scale), Art(scale)}
}

func max1(s int) int {
	if s < 1 {
		return 1
	}
	return s
}
