package shard

import (
	"fmt"
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
	for _, c := range []struct {
		w, h int
		want Geometry
	}{
		{1, 1, Geometry{1, 1}},
		{100, 80, Geometry{1, 2}}, // within one tile: halved along the longer side
		{80, 100, Geometry{2, 1}},
		{64, 64, Geometry{1, 2}}, // a square splits into columns
		{1, 2, Geometry{2, 1}},
		{9, 1, Geometry{1, 2}},
		{256, 256, Geometry{1, 2}},
		{257, 1, Geometry{1, 2}},
		{512, 512, Geometry{2, 2}},
		{513, 256, Geometry{1, 3}},
		{640, 480, Geometry{2, 3}},
	} {
		if g := Auto(c.w, c.h); g != c.want {
			t.Errorf("Auto(%d,%d) = %v, want %v", c.w, c.h, g, c.want)
		}
	}
	// Wherever the plain DefaultTileSide lattice already has more than one
	// tile, Auto is exactly that lattice.
	ceilDiv := func(a int) int { return (a + DefaultTileSide - 1) / DefaultTileSide }
	for _, w := range []int{1, 2, 255, 256, 257, 511, 512, 513, 640, 1000, 2048} {
		for _, h := range []int{1, 2, 255, 256, 257, 480, 512, 513, 1000, 4096} {
			old := Geometry{Rows: ceilDiv(h), Cols: ceilDiv(w)}
			if old.Tiles() > 1 && Auto(w, h) != old {
				t.Errorf("Auto(%d,%d) = %v, want the tile-side lattice %v", w, h, Auto(w, h), old)
			}
		}
	}
	// Auto's pick always validates on its own grid.
	for _, d := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {7, 1000}, {2048, 3}, {4096, 4096}} {
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

// TestHaloSnapshotRoundTrip checks the halo a sharded snapshot records: for
// random grids and geometries, every tile's Halo has HaloCells() cells, each
// equal to the grid cell at its position in extended-rect row-major order,
// and CheckHalo accepts it. CheckHalo ignores a rewritten corner cell but
// rejects a rewritten edge cell and a halo of the wrong length, naming the
// tile.
func TestHaloSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	corners, edges := 0, 0
	for iter := 0; iter < 50; iter++ {
		w, h := 2+rng.Intn(20), 2+rng.Intn(20)
		g := Geometry{Rows: 1 + rng.Intn(min(h, 4)), Cols: 1 + rng.Intn(min(w, 4))}
		p, err := NewPlan(g, w, h)
		if err != nil {
			t.Fatal(err)
		}
		grid := make([]int, w*h)
		for i := range grid {
			grid[i] = rng.Intn(100)
		}
		for _, tl := range p.Tiles {
			halo := tl.Halo(grid, w)
			if len(halo) != tl.HaloCells() {
				t.Fatalf("tile %d halo length %d, want %d", tl.Index, len(halo), tl.HaloCells())
			}
			i := 0
			for gy := tl.EY0; gy < tl.EY1; gy++ {
				for gx := tl.EX0; gx < tl.EX1; gx++ {
					if tl.owns(gx, gy) {
						continue
					}
					if halo[i] != grid[gy*w+gx] {
						t.Fatalf("tile %d halo cell %d (%d,%d) = %d, grid has %d", tl.Index, i, gx, gy, halo[i], grid[gy*w+gx])
					}
					// A rewritten corner passes; a rewritten edge cell fails.
					bad := append([]int(nil), halo...)
					bad[i] = -1
					err := tl.CheckHalo(grid, w, bad)
					if corner := (gx < tl.X0 || gx >= tl.X1) && (gy < tl.Y0 || gy >= tl.Y1); corner {
						corners++
						if err != nil {
							t.Fatalf("tile %d: corner (%d,%d) rejected: %v", tl.Index, gx, gy, err)
						}
					} else {
						edges++
						if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tile %d halo cell (%d,%d)", tl.Index, gx, gy)) {
							t.Fatalf("tile %d: edge cell (%d,%d) rewritten: err = %v", tl.Index, gx, gy, err)
						}
					}
					i++
				}
			}
			if err := tl.CheckHalo(grid, w, halo); err != nil {
				t.Fatal(err)
			}
			if len(halo) > 0 {
				if err := tl.CheckHalo(grid, w, halo[:len(halo)-1]); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tile %d halo has", tl.Index)) {
					t.Fatalf("tile %d: truncated halo: err = %v", tl.Index, err)
				}
			}
		}
	}
	if corners == 0 || edges == 0 {
		t.Fatalf("checked %d corner and %d edge cells; need both", corners, edges)
	}
}
