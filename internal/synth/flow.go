package synth

import (
	"fmt"

	"rsu/internal/img"
)

// FlowPair is a synthetic optical-flow frame pair with exact ground truth.
// The world point at frame-0 pixel (x, y) moves to frame-1 pixel
// (x + u, y + v); motions are bounded by the search-window radius so the
// paper's small-motion assumption (Sec. III-D-2) holds by construction.
type FlowPair struct {
	Name           string
	Frame0, Frame1 *img.Gray
	GTU, GTV       []int  // ground-truth flow components in the frame-0 view
	Mask           []bool // false where the frame-0 pixel is occluded in frame 1
	Radius         int    // search-window radius; labels = (2*Radius+1)^2
}

// LabelCount returns the number of motion labels, (2R+1)^2 (e.g. 49 for the
// paper's 7x7 window).
func (p *FlowPair) LabelCount() int { return (2*p.Radius + 1) * (2*p.Radius + 1) }

// LabelToVector maps a motion label to its (u, v) displacement, scanning the
// window row-major from (-R, -R).
func LabelToVector(label, radius int) (u, v int) {
	side := 2*radius + 1
	return label%side - radius, label/side - radius
}

// VectorToLabel is the inverse of LabelToVector.
func VectorToLabel(u, v, radius int) int {
	side := 2*radius + 1
	return (v+radius)*side + (u + radius)
}

// Flow renders a synthetic frame pair of size w×h with layers moving by
// distinct in-window vectors, deterministically from seed.
func Flow(name string, w, h, radius, layers int, seed uint64) *FlowPair {
	// Assign each layer a motion inside the window; background stays still.
	motions := make([][2]int, layers+1)
	motions[0] = [2]int{0, 0}
	msrc := newMotionPicker(radius, seed)
	for i := 1; i <= layers; i++ {
		motions[i] = msrc.next()
	}
	return FlowWithMotions(name, w, h, radius, motions, seed)
}

// FlowWithMotions renders a frame pair with explicit per-layer motions
// (motions[0] is the background). All vectors must fit in the radius window.
func FlowWithMotions(name string, w, h, radius int, motions [][2]int, seed uint64) *FlowPair {
	checkSize(w, h)
	if radius < 1 || radius > 7 {
		panic("synth: flow radius must be in [1,7]")
	}
	if len(motions) < 2 {
		panic("synth: need a background and at least one moving layer")
	}
	for _, m := range motions {
		if m[0] < -radius || m[0] > radius || m[1] < -radius || m[1] > radius {
			panic(fmt.Sprintf("synth: motion %v outside radius %d", m, radius))
		}
	}
	layers := len(motions) - 1
	values := spreadValues(0, layers, layers+1) // depth order only
	sc := buildScene(w, h, seed, values, motions)

	p := &FlowPair{
		Name: name, Radius: radius,
		Frame0: img.NewGray(w, h),
		Frame1: img.NewGray(w, h),
		GTU:    make([]int, w*h),
		GTV:    make([]int, w*h),
		Mask:   make([]bool, w*h),
	}
	zeroOff := func(shape) (int, int) { return 0, 0 }
	layer0 := img.NewLabels(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := sc.topAt(x, y, zeroOff)
			p.Frame0.Set(x, y, s.tex.sample(x, y))
			p.GTU[y*w+x] = s.u
			p.GTV[y*w+x] = s.v
			layer0.Set(x, y, s.layerValue)
		}
	}
	// Frame 1: a layer moving by (u, v) covers pixel (x, y) iff the layer
	// point (x-u, y-v) exists; sample the texture at that world point.
	moveOff := func(s shape) (int, int) { return -s.u, -s.v }
	layer1 := img.NewLabels(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := sc.topAt(x, y, moveOff)
			p.Frame1.Set(x, y, s.tex.sample(x-s.u, y-s.v))
			layer1.Set(x, y, s.layerValue)
		}
	}
	// Occlusion mask: frame-0 pixel (x, y) on layer L moving (u, v) remains
	// visible iff frame-1 pixel (x+u, y+v) is in bounds and shows layer L.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			x1, y1 := x+p.GTU[i], y+p.GTV[i]
			p.Mask[i] = x1 >= 0 && x1 < w && y1 >= 0 && y1 < h &&
				layer1.At(x1, y1) == layer0.At(x, y)
		}
	}
	addNoise(p.Frame0, seed^0xf10a, 1.5)
	addNoise(p.Frame1, seed^0xf10b, 1.5)
	return p
}

// motionPicker yields distinct non-zero in-window motion vectors.
type motionPicker struct {
	radius int
	perm   []int
	next_  int
}

func newMotionPicker(radius int, seed uint64) *motionPicker {
	side := 2*radius + 1
	n := side * side
	perm := make([]int, 0, n-1)
	center := VectorToLabel(0, 0, radius)
	for i := 0; i < n; i++ {
		if i != center {
			perm = append(perm, i)
		}
	}
	// Fisher-Yates with a deterministic source.
	h := seed
	for i := len(perm) - 1; i > 0; i-- {
		h = h*6364136223846793005 + 1442695040888963407
		j := int(h>>33) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return &motionPicker{radius: radius, perm: perm}
}

func (m *motionPicker) next() [2]int {
	l := m.perm[m.next_%len(m.perm)]
	m.next_++
	u, v := LabelToVector(l, m.radius)
	return [2]int{u, v}
}

// The three presets mirror the paper's Middlebury flow scenes (Venus,
// RubberWhale, Dimetrodon) with the 7x7 search window (49 labels).

// Venus returns the first flow scene.
func Venus(scale int) *FlowPair {
	return Flow("venus", 64*max1(scale), 48*max1(scale), 3, 5, 0x7e4a5)
}

// RubberWhale returns the second flow scene.
func RubberWhale(scale int) *FlowPair {
	return Flow("rubberwhale", 64*max1(scale), 48*max1(scale), 3, 6, 0x44b3)
}

// Dimetrodon returns the third flow scene.
func Dimetrodon(scale int) *FlowPair {
	return Flow("dimetrodon", 64*max1(scale), 48*max1(scale), 3, 4, 0xd1e7)
}

// FlowDataset returns the builder of the named flow scene — venus,
// rubberwhale or dimetrodon — or an error listing the valid names.
func FlowDataset(name string) (func(scale int) *FlowPair, error) {
	switch name {
	case "venus":
		return Venus, nil
	case "rubberwhale":
		return RubberWhale, nil
	case "dimetrodon":
		return Dimetrodon, nil
	}
	return nil, fmt.Errorf("synth: unknown flow dataset %q (want venus | rubberwhale | dimetrodon)", name)
}

// LargeMotion returns a scene whose layer motions all exceed the ±3 window
// of a single 49-label RSU-G search — beyond the 64-label limit. Solving
// it requires the image-pyramid method the paper points to for larger
// windows (Sec. III-D-2); see flow.SolvePyramid.
func LargeMotion(scale int) *FlowPair {
	motions := [][2]int{{0, 0}, {5, 2}, {-4, 4}, {6, -1}, {-5, -4}, {4, 5}}
	// The base size is larger than the other presets: the coarsest pyramid
	// level must retain enough texture to match on.
	return FlowWithMotions("largemotion", 128*max1(scale), 96*max1(scale), 6, motions, 0x1a49e)
}

// FlowPresets returns the three named scenes at the given scale.
func FlowPresets(scale int) []*FlowPair {
	return []*FlowPair{Venus(scale), RubberWhale(scale), Dimetrodon(scale)}
}
