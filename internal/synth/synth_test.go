package synth

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rsu/internal/img"
)

func TestStereoGroundTruthConsistency(t *testing.T) {
	p := Stereo("t", 48, 32, 24, 4, 7)
	if p.GT.Max() >= p.Labels {
		t.Fatalf("GT disparity %d exceeds label range %d", p.GT.Max(), p.Labels)
	}
	// For every unoccluded pixel, left(x,y) must match right(x-d,y) up to
	// the injected sensor noise.
	var maxDiff float64
	masked := 0
	for y := 0; y < p.GT.H; y++ {
		for x := 0; x < p.GT.W; x++ {
			i := y*p.GT.W + x
			if !p.Mask[i] {
				masked++
				continue
			}
			d := p.GT.At(x, y)
			diff := math.Abs(p.Left.At(x, y) - p.Right.At(x-d, y))
			if diff > maxDiff {
				maxDiff = diff
			}
		}
	}
	if maxDiff > 20 { // noise sigma 1.5 on each image; bound is generous
		t.Fatalf("photometric inconsistency %v across correspondence", maxDiff)
	}
	total := p.GT.W * p.GT.H
	if masked == 0 {
		t.Error("expected some occluded pixels in a layered scene")
	}
	if masked > total/3 {
		t.Errorf("too many occluded pixels: %d/%d", masked, total)
	}
}

func TestStereoDeterminism(t *testing.T) {
	a := Stereo("a", 32, 24, 16, 3, 42)
	b := Stereo("a", 32, 24, 16, 3, 42)
	for i := range a.Left.Pix {
		if a.Left.Pix[i] != b.Left.Pix[i] || a.Right.Pix[i] != b.Right.Pix[i] {
			t.Fatal("stereo generation not deterministic")
		}
	}
	c := Stereo("a", 32, 24, 16, 3, 43)
	same := 0
	for i := range a.Left.Pix {
		if a.Left.Pix[i] == c.Left.Pix[i] {
			same++
		}
	}
	if same == len(a.Left.Pix) {
		t.Fatal("different seeds produced identical scenes")
	}
}

func TestStereoPresetLabelCounts(t *testing.T) {
	if Teddy(1).Labels != 56 {
		t.Error("teddy must have 56 labels")
	}
	if Poster(1).Labels != 30 {
		t.Error("poster must have 30 labels")
	}
	if Art(1).Labels != 28 {
		t.Error("art must have 28 labels")
	}
	if len(StereoPresets(1)) != 3 {
		t.Error("want 3 stereo presets")
	}
}

func TestStereoHasDepthVariation(t *testing.T) {
	p := Teddy(1)
	seen := map[int]bool{}
	for _, d := range p.GT.L {
		seen[d] = true
	}
	if len(seen) < 4 {
		t.Fatalf("scene has only %d distinct disparities", len(seen))
	}
}

func TestFlowLabelVectorRoundTrip(t *testing.T) {
	err := quick.Check(func(l8 uint8, r8 uint8) bool {
		r := int(r8%3) + 1
		side := 2*r + 1
		l := int(l8) % (side * side)
		u, v := LabelToVector(l, r)
		if u < -r || u > r || v < -r || v > r {
			return false
		}
		return VectorToLabel(u, v, r) == l
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlowGroundTruthConsistency(t *testing.T) {
	p := Flow("f", 48, 32, 3, 4, 11)
	if p.LabelCount() != 49 {
		t.Fatalf("LabelCount = %d, want 49", p.LabelCount())
	}
	var maxDiff float64
	for y := 0; y < 32; y++ {
		for x := 0; x < 48; x++ {
			i := y*48 + x
			if !p.Mask[i] {
				continue
			}
			u, v := p.GTU[i], p.GTV[i]
			if u < -3 || u > 3 || v < -3 || v > 3 {
				t.Fatalf("GT motion (%d,%d) outside window", u, v)
			}
			diff := math.Abs(p.Frame0.At(x, y) - p.Frame1.At(x+u, y+v))
			if diff > maxDiff {
				maxDiff = diff
			}
		}
	}
	if maxDiff > 20 {
		t.Fatalf("photometric inconsistency %v across flow", maxDiff)
	}
}

func TestFlowHasMotionVariation(t *testing.T) {
	p := RubberWhale(1)
	moving := 0
	for i := range p.GTU {
		if p.GTU[i] != 0 || p.GTV[i] != 0 {
			moving++
		}
	}
	if moving == 0 {
		t.Fatal("no moving pixels in flow scene")
	}
	if moving == len(p.GTU) {
		t.Fatal("background should be static")
	}
}

func TestFlowPresets(t *testing.T) {
	ps := FlowPresets(1)
	if len(ps) != 3 {
		t.Fatalf("want 3 flow presets, got %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
		if p.Radius != 3 {
			t.Errorf("%s radius %d, want 3", p.Name, p.Radius)
		}
	}
	if len(names) != 3 {
		t.Error("duplicate preset names")
	}
}

func TestSegmentsGroundTruth(t *testing.T) {
	s := Segments("s", 40, 30, 6, 10, 3)
	if s.GT.Max() >= 6 {
		t.Fatalf("GT segment id %d out of range", s.GT.Max())
	}
	seen := map[int]bool{}
	for _, l := range s.GT.L {
		seen[l] = true
	}
	if len(seen) < 4 {
		t.Fatalf("only %d of 6 segments materialized", len(seen))
	}
	// Region means should separate despite noise: per-segment mean spread.
	sums := map[int]float64{}
	counts := map[int]float64{}
	for i, l := range s.GT.L {
		sums[l] += s.Image.Pix[i]
		counts[l]++
	}
	lo, hi := 256.0, -1.0
	for l := range sums {
		m := sums[l] / counts[l]
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if hi-lo < 50 {
		t.Fatalf("segment means span only %v gray levels", hi-lo)
	}
}

func TestBSDLikeDeterministicAndDistinct(t *testing.T) {
	a := BSDLike(0, 4, 1)
	b := BSDLike(0, 4, 1)
	for i := range a.Image.Pix {
		if a.Image.Pix[i] != b.Image.Pix[i] {
			t.Fatal("BSDLike not deterministic")
		}
	}
	c := BSDLike(1, 4, 1)
	same := 0
	for i := range a.Image.Pix {
		if a.Image.Pix[i] == c.Image.Pix[i] {
			same++
		}
	}
	if same == len(a.Image.Pix) {
		t.Fatal("BSDLike images 0 and 1 identical")
	}
}

func TestBSDLikePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for index 30")
		}
	}()
	BSDLike(30, 4, 1)
}

func TestTextureRange(t *testing.T) {
	tex := texture{seed: 9, base: 128, amp: 200, period: 5, stripe: 30}
	for y := -20; y < 20; y++ {
		for x := -20; x < 20; x++ {
			v := tex.sample(x, y)
			if v < 0 || v > 255 {
				t.Fatalf("texture value %v out of range at (%d,%d)", v, x, y)
			}
		}
	}
}

func TestValueNoiseContinuity(t *testing.T) {
	// Adjacent samples of smoothed value noise must not jump more than the
	// lattice amplitude over one pixel with period >= 4.
	for x := -50; x < 50; x++ {
		a := valueNoise(3, x, 7, 8)
		b := valueNoise(3, x+1, 7, 8)
		if math.Abs(a-b) > 0.5 {
			t.Fatalf("noise discontinuity %v at x=%d", math.Abs(a-b), x)
		}
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{7, 2, 3}, {-7, 2, -4}, {-8, 2, -4}, {0, 5, 0}, {-1, 5, -1},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSpreadValues(t *testing.T) {
	v := spreadValues(3, 27, 5)
	if v[0] != 3 || v[4] != 27 {
		t.Fatalf("spreadValues endpoints %v", v)
	}
	for i := 1; i < len(v); i++ {
		if v[i] < v[i-1] {
			t.Fatalf("spreadValues not monotone: %v", v)
		}
	}
	if one := spreadValues(5, 9, 1); one[0] != 5 {
		t.Fatalf("single-layer spread %v", one)
	}
}

func TestSceneImagesAreViewable(t *testing.T) {
	// Smoke: render a pair and dump via the PGM encoder (round-trip sanity).
	p := Poster(1)
	dir := t.TempDir()
	for name, g := range map[string]*img.Gray{"l": p.Left, "r": p.Right, "gt": p.GT.ToGray(p.Labels - 1)} {
		if err := img.SavePGM(dir+"/"+name+".pgm", g); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDatasetLookups: each app's lookup maps every valid name to the builder
// of that scene and rejects an unknown name with an error listing the valid
// ones.
func TestDatasetLookups(t *testing.T) {
	for _, name := range []string{"teddy", "poster", "art"} {
		build, err := StereoDataset(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := build(1).Name; got != name {
			t.Fatalf("StereoDataset(%q) built %q", name, got)
		}
	}
	for _, name := range []string{"venus", "rubberwhale", "dimetrodon"} {
		build, err := FlowDataset(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := build(1).Name; got != name {
			t.Fatalf("FlowDataset(%q) built %q", name, got)
		}
	}
	for i, name := range []string{"bsd00", "bsd07", "bsd29"} {
		build, err := SegmentDataset(name)
		if err != nil {
			t.Fatal(err)
		}
		got, want := build(3+i, 1), BSDLike([]int{0, 7, 29}[i], 3+i, 1)
		if got.Name != name || got.Segments != 3+i || !reflect.DeepEqual(got, want) {
			t.Fatalf("SegmentDataset(%q) built %q (k %d), want BSDLike's scene", name, got.Name, got.Segments)
		}
	}
	// Only the exact two-digit names: Atoi-style spellings of a valid index
	// are not aliases.
	for _, name := range []string{"bsd30", "bsd5", "bsd005", "bsd+5", "bsd-0", "bsd-1", "BSD00", "bsd0x", "bsd", ""} {
		if _, err := SegmentDataset(name); err == nil || !strings.Contains(err.Error(), "bsd00 .. bsd29") {
			t.Fatalf("SegmentDataset(%q) err = %v, want the valid names listed", name, err)
		}
	}
	if _, err := StereoDataset("venus"); err == nil || !strings.Contains(err.Error(), "teddy | poster | art") {
		t.Fatalf("StereoDataset(venus) err = %v, want the valid names listed", err)
	}
	if _, err := FlowDataset("teddy"); err == nil || !strings.Contains(err.Error(), "venus | rubberwhale | dimetrodon") {
		t.Fatalf("FlowDataset(teddy) err = %v, want the valid names listed", err)
	}
}
