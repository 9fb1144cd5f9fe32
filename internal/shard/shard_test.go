package shard

import (
	"math/rand"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	good := map[string]Geometry{
		"1x1":   {1, 1},
		"2x3":   {2, 3},
		"16x16": {16, 16},
	}
	for s, want := range good {
		g, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if g != want {
			t.Fatalf("Parse(%q) = %v, want %v", s, g, want)
		}
		if g.String() != s {
			t.Fatalf("Parse(%q).String() = %q", s, g.String())
		}
	}
	bad := []string{"", "2", "x", "2x", "x3", "0x2", "2x0", "-1x2", "2x-1", "axb", "2x3x4", "1000x1000"}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Fatalf("Parse(%q) accepted a bad geometry", s)
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		g    Geometry
		w, h int
		ok   bool
	}{
		{Geometry{1, 1}, 1, 1, true},
		{Geometry{2, 2}, 2, 2, true},
		{Geometry{2, 3}, 10, 7, true},
		{Geometry{3, 1}, 5, 2, false}, // more tile rows than grid rows
		{Geometry{1, 6}, 5, 5, false}, // more tile cols than grid cols
		{Geometry{0, 1}, 5, 5, false},
		{Geometry{1, 0}, 5, 5, false},
		{Geometry{-1, 2}, 5, 5, false},
		{Geometry{1, 1}, 0, 5, false},
		{Geometry{1, 1}, 5, -1, false},
	}
	for _, c := range cases {
		err := c.g.Validate(c.w, c.h)
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v, %dx%d): err = %v, want ok=%v", c.g, c.w, c.h, err, c.ok)
		}
	}
}

func TestAuto(t *testing.T) {
	if g := Auto(100, 80); g != (Geometry{1, 1}) {
		t.Fatalf("Auto(100,80) = %v, want 1x1", g)
	}
	if g := Auto(512, 512); g != (Geometry{2, 2}) {
		t.Fatalf("Auto(512,512) = %v, want 2x2", g)
	}
	if g := Auto(513, 256); g != (Geometry{1, 3}) {
		t.Fatalf("Auto(513,256) = %v, want 1x3", g)
	}
	// Auto's pick always validates on its own grid.
	for _, d := range [][2]int{{1, 1}, {7, 1000}, {2048, 3}, {4096, 4096}} {
		g := Auto(d[0], d[1])
		if err := g.Validate(d[0], d[1]); err != nil {
			t.Fatalf("Auto(%d,%d) = %v does not validate: %v", d[0], d[1], g, err)
		}
	}
}

// checkPlan asserts the structural invariants of a plan: owned rects
// partition the grid, extended rects are the owned rects grown by one clipped
// pixel, and every tile owns at least one pixel.
func checkPlan(t *testing.T, p *Plan) {
	t.Helper()
	owned := make([]int, p.W*p.H)
	for _, tl := range p.Tiles {
		if tl.W() < 1 || tl.H() < 1 {
			t.Fatalf("tile %d owns an empty rect %+v", tl.Index, tl)
		}
		if tl.EX0 != max(tl.X0-1, 0) || tl.EY0 != max(tl.Y0-1, 0) ||
			tl.EX1 != min(tl.X1+1, p.W) || tl.EY1 != min(tl.Y1+1, p.H) {
			t.Fatalf("tile %d extended rect %+v is not the clipped 1-pixel growth", tl.Index, tl)
		}
		for y := tl.Y0; y < tl.Y1; y++ {
			for x := tl.X0; x < tl.X1; x++ {
				owned[y*p.W+x]++
			}
		}
	}
	for i, n := range owned {
		if n != 1 {
			t.Fatalf("pixel %d owned by %d tiles", i, n)
		}
	}
}

func TestNewPlanCoverage(t *testing.T) {
	for _, c := range []struct {
		g    Geometry
		w, h int
	}{
		{Geometry{1, 1}, 5, 4},
		{Geometry{2, 2}, 7, 5},
		{Geometry{3, 2}, 9, 3},
		{Geometry{2, 5}, 5, 2},
		{Geometry{4, 4}, 4, 4},
	} {
		p, err := NewPlan(c.g, c.w, c.h)
		if err != nil {
			t.Fatalf("NewPlan(%v, %dx%d): %v", c.g, c.w, c.h, err)
		}
		checkPlan(t, p)
	}
}

// TestScatterGatherRoundTrip checks that scattering a global grid to tiles
// and gathering the owned rects back reproduces it exactly.
func TestScatterGatherRoundTrip(t *testing.T) {
	const w, h = 11, 7
	p, err := NewPlan(Geometry{3, 4}, w, h)
	if err != nil {
		t.Fatal(err)
	}
	global := make([]int, w*h)
	for i := range global {
		global[i] = i * 3
	}
	grids := NewTileGrids(p)
	for _, g := range grids {
		g.Scatter(global, w)
	}
	got := make([]int, w*h)
	for i := range got {
		got[i] = -1
	}
	for _, g := range grids {
		g.GatherInto(got, w)
	}
	for i := range got {
		if got[i] != global[i] {
			t.Fatalf("cell %d: gathered %d, want %d", i, got[i], global[i])
		}
	}
}

// TestPullHalos writes distinct values into every tile's owned cells, pulls
// halos, and checks each non-corner halo cell equals its owner's value.
func TestPullHalos(t *testing.T) {
	const w, h = 10, 9
	p, err := NewPlan(Geometry{3, 2}, w, h)
	if err != nil {
		t.Fatal(err)
	}
	grids := NewTileGrids(p)
	// Owner writes global index into its owned cells (halos stay zero).
	for _, g := range grids {
		tl := g.Tile
		for gy := tl.Y0; gy < tl.Y1; gy++ {
			for gx := tl.X0; gx < tl.X1; gx++ {
				g.L[(gy-tl.EY0)*tl.EW()+(gx-tl.EX0)] = gy*w + gx
			}
		}
	}
	for i := range grids {
		PullHalos(p, grids, i)
	}
	for _, g := range grids {
		tl := g.Tile
		// North/south strips over owned x, east/west strips over owned y.
		check := func(gx, gy int) {
			t.Helper()
			got := g.L[(gy-tl.EY0)*tl.EW()+(gx-tl.EX0)]
			if got != gy*w+gx {
				t.Fatalf("tile %d halo (%d,%d) = %d, want %d", tl.Index, gx, gy, got, gy*w+gx)
			}
		}
		if tl.Y0 > 0 {
			for gx := tl.X0; gx < tl.X1; gx++ {
				check(gx, tl.Y0-1)
			}
		}
		if tl.Y1 < h {
			for gx := tl.X0; gx < tl.X1; gx++ {
				check(gx, tl.Y1)
			}
		}
		if tl.X0 > 0 {
			for gy := tl.Y0; gy < tl.Y1; gy++ {
				check(tl.X0-1, gy)
			}
		}
		if tl.X1 < w {
			for gy := tl.Y0; gy < tl.Y1; gy++ {
				check(tl.X1, gy)
			}
		}
	}
}

func TestHaloSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		w, h := 2+rng.Intn(20), 2+rng.Intn(20)
		g := Geometry{Rows: 1 + rng.Intn(min(h, 4)), Cols: 1 + rng.Intn(min(w, 4))}
		p, err := NewPlan(g, w, h)
		if err != nil {
			t.Fatal(err)
		}
		grids := NewTileGrids(p)
		for _, tg := range grids {
			for i := range tg.L {
				tg.L[i] = rng.Intn(100)
			}
			snap := tg.HaloSnapshot()
			if len(snap) != tg.Tile.HaloCells() {
				t.Fatalf("snapshot length %d, want %d", len(snap), tg.Tile.HaloCells())
			}
			// Clobber the halo cells, restore, and require the original buffer.
			orig := append([]int(nil), tg.L...)
			for i := range tg.L {
				tg.L[i] = -1
			}
			// Owned cells restored out of band; only halos come from the snapshot.
			tl := tg.Tile
			for gy := tl.Y0; gy < tl.Y1; gy++ {
				for gx := tl.X0; gx < tl.X1; gx++ {
					li := (gy-tl.EY0)*tl.EW() + (gx - tl.EX0)
					tg.L[li] = orig[li]
				}
			}
			if err := tg.RestoreHalos(snap); err != nil {
				t.Fatal(err)
			}
			for i := range tg.L {
				if tg.L[i] != orig[i] {
					t.Fatalf("cell %d: restored %d, want %d", i, tg.L[i], orig[i])
				}
			}
			if err := tg.RestoreHalos(snap[:len(snap)/2]); err == nil && len(snap) > 0 {
				t.Fatal("RestoreHalos accepted a truncated snapshot")
			} else if err != nil && !strings.Contains(err.Error(), "halo snapshot") {
				t.Fatalf("unexpected error text: %v", err)
			}
		}
	}
}
