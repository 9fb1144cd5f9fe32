package mrf

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/shard"
)

// TestTileViewsAliasParent checks that every extended-rect view of a 2×3
// plan is a window onto the parent's singleton table, not a copy.
func TestTileViewsAliasParent(t *testing.T) {
	p := randomShardProblem(rand.New(rand.NewSource(5)), 37, 29, 5)
	tab := p.BuildTables()
	plan, err := shard.NewPlan(shard.Geometry{Rows: 2, Cols: 3}, p.W, p.H)
	if err != nil {
		t.Fatal(err)
	}
	L := p.Labels
	for _, tl := range plan.Tiles {
		v, err := tab.TileView(tl.EX0, tl.EY0, tl.EX1, tl.EY1)
		if err != nil {
			t.Fatal(err)
		}
		first := (tl.EY0*p.W + tl.EX0) * L
		last := ((tl.EY1-1)*p.W+tl.EX1)*L - 1
		if &v.Singles[0] != &tab.Singles[first] || &v.Singles[len(v.Singles)-1] != &tab.Singles[last] {
			t.Fatalf("tile %d view [%d,%d)x[%d,%d) does not alias the parent table",
				tl.Index, tl.EX0, tl.EX1, tl.EY0, tl.EY1)
		}
		if v.stride != tab.stride {
			t.Fatalf("tile %d: view stride %d, parent %d", tl.Index, v.stride, tab.stride)
		}
	}
}

// TestShardedSolveDoesNotCopySingles bounds what one 2×3 sharded solve on
// prebuilt tables allocates: well under half the singleton table, so no
// tile can hold a private copy of its rows.
func TestShardedSolveDoesNotCopySingles(t *testing.T) {
	p := randomShardProblem(rand.New(rand.NewSource(6)), 96, 64, 48)
	tab := p.BuildTables()
	sched := Schedule{T0: 4, Alpha: 0.9, Iterations: 2}
	opts := SolveOptions{Shards: shard.Geometry{Rows: 2, Cols: 3}, Tables: tab}
	factory := func(int) core.LabelSampler { return argminSampler{} }
	if _, err := Solve(context.Background(), p, factory, sched, opts); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Solve(context.Background(), p, factory, sched, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	singles := uint64(len(tab.Singles)) * 8
	if got := after.TotalAlloc - before.TotalAlloc; got >= singles/2 {
		t.Fatalf("sharded solve allocated %d B, singles table is %d B (limit %d B)", got, singles, singles/2)
	}
}

// viewLabels copies the sub-rectangle [x0,x0+w)×[y0,y0+h) of lab into a
// view-local labeling.
func viewLabels(lab *img.Labels, x0, y0, w, h int) *img.Labels {
	out := img.NewLabels(w, h)
	for y := 0; y < h; y++ {
		copy(out.L[y*w:(y+1)*w], lab.L[(y0+y)*lab.W+x0:(y0+y)*lab.W+x0+w])
	}
	return out
}

// TestTileViewKernelsMatchParent runs the gathers and FlipDelta on random
// views — grid-edge views, 1-px-wide and 1-px-tall views, and views of
// views — and requires the parent's values bit for bit at every view pixel
// whose neighborhood the view sees in full (each neighbor inside the view,
// or absent from the grid too). Every view keeps the parent's row stride,
// and its own TotalEnergy must equal that of a table built from scratch
// over the view's problem.
func TestTileViewKernelsMatchParent(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	// span picks a random interval of [0, n), starting or ending on the grid
	// edge half of the time.
	span := func(n int) (int, int) {
		a := r.Intn(n)
		b := a + 1 + r.Intn(n-a)
		switch r.Intn(4) {
		case 0:
			a = 0
		case 1:
			b = n
		}
		return a, b
	}
	// Pixels of narrower-than-grid views checked through the fused interior
	// loop and through its per-pixel fallback on a grid edge; both must occur.
	var interior, edge int
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(r)
		tab := p.BuildTables()
		lab := randomLabeling(r, p.W, p.H, p.Labels)
		L := p.Labels

		// A random rect; every fourth trial is 1 px wide, every fourth
		// (offset) 1 px tall.
		x0, x1 := span(p.W)
		y0, y1 := span(p.H)
		switch trial % 4 {
		case 1:
			x1 = x0 + 1
		case 2:
			y1 = y0 + 1
		}
		v, err := tab.TileView(x0, y0, x1, y1)
		if err != nil {
			t.Fatal(err)
		}
		gx0, gy0 := x0, y0
		if trial%3 == 0 {
			// View of a view: offsets compose, the stride stays the parent's.
			w, h := x1-x0, y1-y0
			sx0, sy0 := r.Intn(w), r.Intn(h)
			sx1, sy1 := sx0+1+r.Intn(w-sx0), sy0+1+r.Intn(h-sy0)
			if v, err = v.TileView(sx0, sy0, sx1, sy1); err != nil {
				t.Fatal(err)
			}
			gx0, gy0 = x0+sx0, y0+sy0
		}
		if v.stride != tab.stride {
			t.Fatalf("trial %d: view stride %d, parent %d", trial, v.stride, tab.stride)
		}
		w, h := v.p.W, v.p.H
		vlab := viewLabels(lab, gx0, gy0, w, h)

		fresh := v.p.BuildTables()
		if got, want := v.TotalEnergy(vlab), fresh.TotalEnergy(vlab); got != want {
			t.Fatalf("trial %d: view TotalEnergy %v, rebuilt tables %v", trial, got, want)
		}

		faithful := func(x, y int) bool {
			gx, gy := gx0+x, gy0+y
			return (x > 0 || gx == 0) && (x+1 < w || gx+1 == p.W) &&
				(y > 0 || gy == 0) && (y+1 < h || gy+1 == p.H)
		}
		want := make([]float64, L)
		block := make([]float64, w*L)
		for y := 0; y < h; y++ {
			for step := 1; step <= 2; step++ {
				for start := 0; start < step && start < w; start++ {
					n := (w - start + step - 1) / step
					v.LabelEnergiesSeg(block, vlab, y, start, step, n)
					for i, x := 0, start; i < n; i, x = i+1, x+step {
						if !faithful(x, y) {
							continue
						}
						if w < p.W && y > 0 && y+1 < h {
							if x > 0 && x+1 < w {
								interior++
							} else {
								edge++
							}
						}
						tab.LabelEnergies(want, lab, gx0+x, gy0+y)
						for l := 0; l < L; l++ {
							if got := block[i*L+l]; got != want[l] {
								t.Fatalf("trial %d view pixel (%d,%d) step %d label %d: view %v, parent %v",
									trial, x, y, step, l, got, want[l])
							}
						}
					}
				}
			}
			for x := 0; x < w; x++ {
				if !faithful(x, y) {
					continue
				}
				from, to := r.Intn(L), r.Intn(L)
				got := v.FlipDelta(vlab, x, y, from, to)
				if want := tab.FlipDelta(lab, gx0+x, gy0+y, from, to); got != want {
					t.Fatalf("trial %d view pixel (%d,%d) flip %d->%d: view %v, parent %v",
						trial, x, y, from, to, got, want)
				}
			}
		}
	}
	if interior == 0 || edge == 0 {
		t.Fatalf("narrower-than-grid views checked %d interior and %d edge pixels; need both", interior, edge)
	}
}
