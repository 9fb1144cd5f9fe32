package shard

import "testing"

// FuzzShardGeometry drives NewPlan with arbitrary grid dimensions, shard
// counts and label counts. Degenerate geometries must fail Validate with a
// clean error (never a panic); valid ones must produce a plan that covers
// every pixel exactly once, keeps every extended rect inside the grid, and
// gives every tile a halo of HaloCells() cells that matches the grid.
func FuzzShardGeometry(f *testing.F) {
	f.Add(5, 4, 1, 1, 2)
	f.Add(7, 5, 2, 2, 3)
	f.Add(9, 3, 3, 2, 16)
	f.Add(1, 1, 1, 1, 1)
	f.Add(0, 0, 0, 0, 0)
	f.Add(-3, 7, 2, -1, 5)
	f.Add(300, 1, 1, 300, 4)
	f.Fuzz(func(t *testing.T, w, h, rows, cols, labels int) {
		// Keep the grid small enough that coverage bookkeeping stays cheap;
		// the clamp preserves sign and degenerate values.
		if w > 1<<9 {
			w = w % (1 << 9)
		}
		if h > 1<<9 {
			h = h % (1 << 9)
		}
		g := Geometry{Rows: rows, Cols: cols}
		plan, err := NewPlan(g, w, h)
		if err != nil {
			if verr := g.Validate(w, h); verr == nil {
				t.Fatalf("NewPlan failed (%v) but Validate passed for %v on %dx%d", err, g, w, h)
			}
			return
		}
		if err := g.Validate(w, h); err != nil {
			t.Fatalf("NewPlan succeeded but Validate failed for %v on %dx%d: %v", g, w, h, err)
		}
		if len(plan.Tiles) != g.Tiles() {
			t.Fatalf("plan has %d tiles, geometry %v wants %d", len(plan.Tiles), g, g.Tiles())
		}
		owned := make([]uint8, w*h)
		for _, tl := range plan.Tiles {
			if tl.W() < 1 || tl.H() < 1 {
				t.Fatalf("tile %d owns an empty rect %+v", tl.Index, tl)
			}
			if tl.EX0 < 0 || tl.EY0 < 0 || tl.EX1 > w || tl.EY1 > h {
				t.Fatalf("tile %d extended rect %+v escapes the %dx%d grid", tl.Index, tl, w, h)
			}
			if tl.EX0 > tl.X0 || tl.EY0 > tl.Y0 || tl.EX1 < tl.X1 || tl.EY1 < tl.Y1 {
				t.Fatalf("tile %d extended rect %+v does not contain its owned rect", tl.Index, tl)
			}
			if tl.HaloCells() != tl.EW()*tl.EH()-tl.W()*tl.H() {
				t.Fatalf("tile %d halo cell count inconsistent", tl.Index)
			}
			for y := tl.Y0; y < tl.Y1; y++ {
				for x := tl.X0; x < tl.X1; x++ {
					if owned[y*w+x]++; owned[y*w+x] > 1 {
						t.Fatalf("pixel (%d,%d) owned twice", x, y)
					}
				}
			}
		}
		for i, n := range owned {
			if n != 1 {
				t.Fatalf("pixel %d owned %d times, want exactly once", i, n)
			}
		}

		// Halo round trip: each tile's halo of a synthetic label grid has
		// HaloCells() cells, equals the grid at its edge cells, and passes
		// CheckHalo.
		if labels < 1 {
			labels = 1
		}
		labels = labels%64 + 1
		global := make([]int, w*h)
		for i := range global {
			global[i] = i % labels
		}
		for _, tl := range plan.Tiles {
			halo := tl.Halo(global, w)
			if len(halo) != tl.HaloCells() {
				t.Fatalf("tile %d halo has %d cells, want %d", tl.Index, len(halo), tl.HaloCells())
			}
			if err := tl.CheckHalo(global, w, halo); err != nil {
				t.Fatalf("halo round trip: %v", err)
			}
		}
	})
}
