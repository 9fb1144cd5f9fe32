// Package shard implements the domain decomposition behind the tile engine
// (DESIGN.md §15): the grid is split into an R×C lattice of tiles, each with
// its own RNG stream, and every tile sweeps its owned cells of the one shared
// label grid in place. Because same-color pixels share no 4-neighborhood
// edge, a checkerboard color phase writes only cells no other cell of that
// phase reads, so a tiled sweep executes the exact transition kernel of the
// monolithic checkerboard sweep — only the assignment of pixels to RNG
// streams differs — the Markov chain's stationary distribution is preserved,
// and for a fixed geometry and seed the result is bit-exactly reproducible.
//
// The package is pure geometry: it knows nothing about MRFs, samplers, or
// energies. internal/mrf builds the tile engine on top of it, and
// internal/checkpoint serializes the per-tile halos a sharded snapshot
// records.
package shard

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxTiles bounds a geometry's tile count. It is far above anything a real
// solve shards into (tiles own at least one pixel each, and each tile costs a
// sampler plus scratch buffers) but small enough that a hostile "RxC" string
// or snapshot field can never drive an absurd allocation.
const MaxTiles = 1 << 16

// Geometry is an R×C tile lattice. The zero value means "not sharded" —
// solvers treat it as monolithic, and IsZero reports it.
type Geometry struct {
	Rows, Cols int
}

// IsZero reports whether the geometry is the unset zero value.
func (g Geometry) IsZero() bool { return g.Rows == 0 && g.Cols == 0 }

// Tiles returns the tile count Rows*Cols.
func (g Geometry) Tiles() int { return g.Rows * g.Cols }

// String renders the geometry in the "RxC" form Parse accepts.
func (g Geometry) String() string { return fmt.Sprintf("%dx%d", g.Rows, g.Cols) }

// Parse reads a geometry from its "RxC" form (e.g. "2x3" = 2 tile rows by 3
// tile columns). Both factors must be positive and the product within
// MaxTiles; grid-dependent validation happens in Validate.
func Parse(s string) (Geometry, error) {
	r, c, ok := strings.Cut(s, "x")
	if !ok {
		return Geometry{}, fmt.Errorf("shard: geometry %q is not of the form RxC", s)
	}
	rows, err := strconv.Atoi(r)
	if err != nil {
		return Geometry{}, fmt.Errorf("shard: geometry %q: bad row count: %w", s, err)
	}
	cols, err := strconv.Atoi(c)
	if err != nil {
		return Geometry{}, fmt.Errorf("shard: geometry %q: bad column count: %w", s, err)
	}
	g := Geometry{Rows: rows, Cols: cols}
	if rows < 1 || cols < 1 {
		return Geometry{}, fmt.Errorf("shard: geometry %q: both factors must be positive", s)
	}
	if g.Tiles() > MaxTiles {
		return Geometry{}, fmt.Errorf("shard: geometry %q has %d tiles, limit %d", s, g.Tiles(), MaxTiles)
	}
	return g, nil
}

// Validate reports whether the geometry can decompose a w×h grid: every tile
// must own at least one pixel row and column, so Rows ≤ h and Cols ≤ w.
func (g Geometry) Validate(w, h int) error {
	switch {
	case w < 1 || h < 1:
		return fmt.Errorf("shard: invalid grid %dx%d", w, h)
	case g.Rows < 1 || g.Cols < 1:
		return fmt.Errorf("shard: geometry %s: both factors must be positive", g)
	case g.Rows > h:
		return fmt.Errorf("shard: geometry %s has more tile rows than the %d grid rows", g, h)
	case g.Cols > w:
		return fmt.Errorf("shard: geometry %s has more tile columns than the %d grid columns", g, w)
	case g.Tiles() > MaxTiles:
		return fmt.Errorf("shard: geometry %s has %d tiles, limit %d", g, g.Tiles(), MaxTiles)
	}
	return nil
}

// DefaultTileSide is the target tile edge length Auto aims for — large enough
// that a tile's boundary is a surface-to-volume rounding error, small enough
// that a tile's working set (its rows of labels and singleton table) fits in
// cache.
const DefaultTileSide = 256

// Auto picks a geometry for a w×h grid: the smallest lattice whose tiles are
// at most DefaultTileSide on each edge, except that a grid within a single
// tile is halved along its longer side (into two columns on a square), so
// only a 1×1-pixel grid gets the one-tile serial plan. The choice is a
// pure function of (w, h), so auto-sharded runs are reproducible on any
// host and resumable without recording the geometry out of band.
func Auto(w, h int) Geometry {
	ceilDiv := func(a, b int) int { return max((a+b-1)/b, 1) }
	g := Geometry{Rows: ceilDiv(h, DefaultTileSide), Cols: ceilDiv(w, DefaultTileSide)}
	switch {
	case g.Tiles() > 1 || max(w, h) < 2:
	case w >= h:
		g.Cols = 2
	default:
		g.Rows = 2
	}
	return g
}

// Tile is one element of the decomposition. It owns the half-open rectangle
// [X0,X1)×[Y0,Y1) and reads (never writes) the 1-pixel halo ring around it;
// the extended rectangle [EX0,EX1)×[EY0,EY1) is the owned rect grown by one
// pixel on each side and clipped to the grid. A sharded snapshot records each
// tile's halo (Halo) so a resume can check it against the grid (CheckHalo).
type Tile struct {
	// Index is the tile's position in Plan.Tiles (row-major over the lattice).
	Index int
	// R, C locate the tile in the lattice.
	R, C int
	// X0, Y0, X1, Y1 bound the owned rectangle, half-open.
	X0, Y0, X1, Y1 int
	// EX0, EY0, EX1, EY1 bound the extended (owned + clipped halo) rectangle.
	EX0, EY0, EX1, EY1 int
}

// W returns the owned width X1-X0.
func (t Tile) W() int { return t.X1 - t.X0 }

// H returns the owned height Y1-Y0.
func (t Tile) H() int { return t.Y1 - t.Y0 }

// EW returns the extended width EX1-EX0.
func (t Tile) EW() int { return t.EX1 - t.EX0 }

// EH returns the extended height EY1-EY0.
func (t Tile) EH() int { return t.EY1 - t.EY0 }

// HaloCells returns the number of extended-rect cells outside the owned rect
// — the length of the tile's Halo.
func (t Tile) HaloCells() int { return t.EW()*t.EH() - t.W()*t.H() }

// owns reports whether global pixel (gx, gy) lies in the owned rect.
func (t Tile) owns(gx, gy int) bool { return gx >= t.X0 && gx < t.X1 && gy >= t.Y0 && gy < t.Y1 }

// Halo returns the labels of every extended-rect cell outside the owned rect
// (edge strips and corners), read from a global row-major w-wide grid in
// extended-rect row-major order. Its length is HaloCells().
func (t Tile) Halo(grid []int, w int) []int {
	out := make([]int, 0, t.HaloCells())
	for gy := t.EY0; gy < t.EY1; gy++ {
		for gx := t.EX0; gx < t.EX1; gx++ {
			if !t.owns(gx, gy) {
				out = append(out, grid[gy*w+gx])
			}
		}
	}
	return out
}

// CheckHalo reports whether halo, in Halo's order, has HaloCells() cells and
// agrees with the global row-major w-wide grid at every edge cell — a cell
// sharing a row or a column with the owned rect, so some owned pixel has it
// as a 4-neighbor. Corner cells are not compared: no 4-neighborhood of an
// owned pixel reads them.
func (t Tile) CheckHalo(grid []int, w int, halo []int) error {
	if len(halo) != t.HaloCells() {
		return fmt.Errorf("shard: tile %d halo has %d cells, tile needs %d", t.Index, len(halo), t.HaloCells())
	}
	i := 0
	for gy := t.EY0; gy < t.EY1; gy++ {
		for gx := t.EX0; gx < t.EX1; gx++ {
			if t.owns(gx, gy) {
				continue
			}
			edge := (gx >= t.X0 && gx < t.X1) || (gy >= t.Y0 && gy < t.Y1)
			if edge && halo[i] != grid[gy*w+gx] {
				return fmt.Errorf("shard: tile %d halo cell (%d,%d) holds %d, grid has %d", t.Index, gx, gy, halo[i], grid[gy*w+gx])
			}
			i++
		}
	}
	return nil
}

// Plan is a concrete decomposition of a w×h grid under a geometry.
type Plan struct {
	W, H  int
	Geom  Geometry
	Tiles []Tile
}

// NewPlan decomposes a w×h grid into the geometry's tiles with an even split
// (tile column c owns [w*c/Cols, w*(c+1)/Cols)), so tile sizes differ by at
// most one pixel per axis. Validate runs first; a valid geometry always yields tiles that
// own at least one pixel.
func NewPlan(g Geometry, w, h int) (*Plan, error) {
	if err := g.Validate(w, h); err != nil {
		return nil, err
	}
	tiles := make([]Tile, 0, g.Tiles())
	for r := 0; r < g.Rows; r++ {
		y0, y1 := h*r/g.Rows, h*(r+1)/g.Rows
		for c := 0; c < g.Cols; c++ {
			x0, x1 := w*c/g.Cols, w*(c+1)/g.Cols
			tiles = append(tiles, Tile{
				Index: len(tiles), R: r, C: c,
				X0: x0, Y0: y0, X1: x1, Y1: y1,
				EX0: max(x0-1, 0), EY0: max(y0-1, 0),
				EX1: min(x1+1, w), EY1: min(y1+1, h),
			})
		}
	}
	return &Plan{W: w, H: h, Geom: g, Tiles: tiles}, nil
}
