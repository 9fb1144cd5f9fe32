// Package img provides the small image substrate the vision applications
// are built on: float-valued grayscale images, integer label maps (used for
// disparities, motion-vector indices and segment ids), and binary PGM I/O so
// every experiment can dump its inputs and results as viewable files.
package img

import "fmt"

// Gray is a grayscale image with float64 pixels, row-major. Pixel values are
// nominally in [0, 255] but the type does not enforce a range; quantization
// happens explicitly at the energy stage, as in the paper.
type Gray struct {
	W, H int
	Pix  []float64
}

// NewGray allocates a zeroed W×H image. It panics on non-positive sizes.
func NewGray(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid size %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the pixel at (x, y). Panics if out of bounds (via slice check).
func (g *Gray) At(x, y int) float64 { return g.Pix[y*g.W+x] }

// Set writes the pixel at (x, y).
func (g *Gray) Set(x, y int, v float64) { g.Pix[y*g.W+x] = v }

// AtClamped reads (x, y) with coordinates clamped to the image border,
// the usual replicate-padding convention for window matching costs.
func (g *Gray) AtClamped(x, y int) float64 {
	if x < 0 {
		x = 0
	}
	if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.H {
		y = g.H - 1
	}
	return g.Pix[y*g.W+x]
}

// In reports whether (x, y) lies inside the image.
func (g *Gray) In(x, y int) bool { return x >= 0 && x < g.W && y >= 0 && y < g.H }

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	c := NewGray(g.W, g.H)
	copy(c.Pix, g.Pix)
	return c
}

// Clamp255 clamps every pixel into [0, 255] in place and returns g.
func (g *Gray) Clamp255() *Gray {
	for i, v := range g.Pix {
		if v < 0 {
			g.Pix[i] = 0
		} else if v > 255 {
			g.Pix[i] = 255
		}
	}
	return g
}

// Labels is an integer label map (disparity indices, motion-vector indices,
// or segment ids), row-major.
type Labels struct {
	W, H int
	L    []int
}

// NewLabels allocates a zeroed W×H label map.
func NewLabels(w, h int) *Labels {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid size %dx%d", w, h))
	}
	return &Labels{W: w, H: h, L: make([]int, w*h)}
}

// At returns the label at (x, y).
func (m *Labels) At(x, y int) int { return m.L[y*m.W+x] }

// Set writes the label at (x, y).
func (m *Labels) Set(x, y int, l int) { m.L[y*m.W+x] = l }

// Clone returns a deep copy.
func (m *Labels) Clone() *Labels {
	c := NewLabels(m.W, m.H)
	copy(c.L, m.L)
	return c
}

// Fill sets every label to l and returns m.
func (m *Labels) Fill(l int) *Labels {
	for i := range m.L {
		m.L[i] = l
	}
	return m
}

// Max returns the largest label present (0 for an all-zero map).
func (m *Labels) Max() int {
	max := 0
	for _, l := range m.L {
		if l > max {
			max = l
		}
	}
	return max
}

// ToGray renders the label map as a grayscale image, linearly stretching
// [0, maxLabel] to [0, 255] — the paper's gray-level disparity coding where
// light pixels are close to the camera (high disparity).
func (m *Labels) ToGray(maxLabel int) *Gray {
	g := NewGray(m.W, m.H)
	if maxLabel < 1 {
		maxLabel = 1
	}
	for i, l := range m.L {
		g.Pix[i] = 255 * float64(l) / float64(maxLabel)
	}
	return g.Clamp255()
}
