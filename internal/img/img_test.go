package img

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestGraySetAt(t *testing.T) {
	g := NewGray(4, 3)
	g.Set(2, 1, 42)
	if g.At(2, 1) != 42 {
		t.Fatalf("At(2,1) = %v, want 42", g.At(2, 1))
	}
	if g.At(0, 0) != 0 {
		t.Fatal("fresh image not zeroed")
	}
}

func TestNewGrayPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x5 image")
		}
	}()
	NewGray(0, 5)
}

func TestAtClamped(t *testing.T) {
	g := NewGray(3, 2)
	g.Set(0, 0, 1)
	g.Set(2, 1, 9)
	cases := []struct {
		x, y int
		want float64
	}{
		{-5, -5, 1}, {-1, 0, 1}, {0, -1, 1},
		{7, 7, 9}, {3, 1, 9}, {2, 2, 9},
	}
	for _, c := range cases {
		if got := g.AtClamped(c.x, c.y); got != c.want {
			t.Errorf("AtClamped(%d,%d) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(1, 1, 5)
	c := g.Clone()
	c.Set(1, 1, 7)
	if g.At(1, 1) != 5 {
		t.Fatal("Clone shares storage with original")
	}
	m := NewLabels(2, 2)
	m.Set(0, 1, 3)
	mc := m.Clone()
	mc.Set(0, 1, 8)
	if m.At(0, 1) != 3 {
		t.Fatal("Labels.Clone shares storage")
	}
}

func TestClamp255(t *testing.T) {
	g := NewGray(2, 1)
	g.Set(0, 0, -4)
	g.Set(1, 0, 300)
	g.Clamp255()
	if g.At(0, 0) != 0 || g.At(1, 0) != 255 {
		t.Fatalf("Clamp255 gave %v,%v", g.At(0, 0), g.At(1, 0))
	}
}

func TestLabelsFillMax(t *testing.T) {
	m := NewLabels(3, 3).Fill(4)
	if m.Max() != 4 {
		t.Fatalf("Max = %d, want 4", m.Max())
	}
	m.Set(2, 2, 11)
	if m.Max() != 11 {
		t.Fatalf("Max = %d, want 11", m.Max())
	}
}

func TestLabelsToGrayScaling(t *testing.T) {
	m := NewLabels(2, 1)
	m.Set(0, 0, 0)
	m.Set(1, 0, 10)
	g := m.ToGray(10)
	if g.At(0, 0) != 0 || g.At(1, 0) != 255 {
		t.Fatalf("ToGray endpoints %v,%v", g.At(0, 0), g.At(1, 0))
	}
	// maxLabel < 1 must not divide by zero.
	_ = m.ToGray(0)
}

func TestPGMRoundTrip(t *testing.T) {
	g := NewGray(7, 5)
	for i := range g.Pix {
		g.Pix[i] = float64((i * 37) % 256)
	}
	var buf bytes.Buffer
	if err := WritePGM(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != g.W || back.H != g.H {
		t.Fatalf("size %dx%d, want %dx%d", back.W, back.H, g.W, g.H)
	}
	for i := range g.Pix {
		if back.Pix[i] != g.Pix[i] {
			t.Fatalf("pixel %d: %v != %v", i, back.Pix[i], g.Pix[i])
		}
	}
}

func TestPGMRoundTripProperty(t *testing.T) {
	err := quick.Check(func(seed uint32) bool {
		g := NewGray(5, 4)
		s := seed
		for i := range g.Pix {
			s = s*1664525 + 1013904223
			g.Pix[i] = float64(s % 256)
		}
		var buf bytes.Buffer
		if err := WritePGM(&buf, g); err != nil {
			return false
		}
		back, err := ReadPGM(&buf)
		if err != nil {
			return false
		}
		for i := range g.Pix {
			if back.Pix[i] != g.Pix[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPGMClampsOnWrite(t *testing.T) {
	g := NewGray(2, 1)
	g.Set(0, 0, -33)
	g.Set(1, 0, 999)
	var buf bytes.Buffer
	if err := WritePGM(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.At(0, 0) != 0 || back.At(1, 0) != 255 {
		t.Fatalf("clamped write gave %v,%v", back.At(0, 0), back.At(1, 0))
	}
}

func TestPGMComments(t *testing.T) {
	data := []byte("P5 # magic\n# a comment line\n2 1\n# another\n255\n\x10\x20")
	g, err := ReadPGM(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if g.W != 2 || g.H != 1 || g.At(0, 0) != 16 || g.At(1, 0) != 32 {
		t.Fatalf("comment parsing wrong: %+v", g)
	}
}

func TestPGMRejectsBadMagic(t *testing.T) {
	if _, err := ReadPGM(bytes.NewReader([]byte("P2\n1 1\n255\n0"))); err == nil {
		t.Fatal("expected error for ASCII PGM magic")
	}
}

func TestPGMRejectsShortData(t *testing.T) {
	if _, err := ReadPGM(bytes.NewReader([]byte("P5\n4 4\n255\nab"))); err == nil {
		t.Fatal("expected error for truncated pixel data")
	}
}

func TestSaveLoadPGM(t *testing.T) {
	path := t.TempDir() + "/x.pgm"
	g := NewGray(3, 2)
	g.Set(2, 1, 200)
	if err := SavePGM(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPGM(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.At(2, 1) != 200 {
		t.Fatalf("loaded pixel %v, want 200", back.At(2, 1))
	}
}
