package mrf

import (
	"fmt"
	"runtime"
	"sync"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/shard"
)

// AutoShardPixels is the grid size (W*H) at or above which Solve picks
// shard.Auto's tile geometry when the caller left both Shards and Workers
// unset: past this point the grid plus its W×H×Labels singleton table no
// longer fits any reasonable last-level cache, and tiling wins back locality.
// Explicit Workers or an explicit geometry always override the heuristic.
const AutoShardPixels = 1 << 18

// shardTile is one tile's compute state: its label buffer (the extended
// rectangle, wrapped as an img.Labels so the fused Tables kernels run
// unchanged), its Tables view over that rectangle, its own sampler (the
// tile's RNG stream), and the tile-local linear indices of its owned cells
// split by global checkerboard parity. Scratch buffers are per tile, so any
// executor can run any tile without sharing state.
type shardTile struct {
	t       shard.Tile
	grid    *shard.TileGrid
	lab     *img.Labels // aliases grid.L over the extended rect
	view    *Tables
	sampler core.BatchSampler
	// cells[color] lists owned cells of global parity (gx+gy)%2 == color as
	// tile-local linear indices, row-major — the same order the monolithic
	// checkerboard visits them.
	cells [2][]int32

	energies []float64
	currents []int
	out      []int
}

func newShardTile(t shard.Tile, g *shard.TileGrid, view *Tables, sampler core.LabelSampler) *shardTile {
	ew, eh := t.EW(), t.EH()
	L := view.Labels()
	st := &shardTile{
		t: t, grid: g,
		lab:     &img.Labels{W: ew, H: eh, L: g.L},
		view:    view,
		sampler: core.AsBatch(sampler),
	}
	for color := 0; color < 2; color++ {
		cs := make([]int32, 0, (t.W()*t.H()+1)/2)
		for gy := t.Y0; gy < t.Y1; gy++ {
			// First owned x of this row with (gx+gy)%2 == color.
			gx := t.X0
			if (gx+gy)%2 != color {
				gx++
			}
			ly := gy - t.EY0
			for ; gx < t.X1; gx += 2 {
				cs = append(cs, int32(ly*ew+(gx-t.EX0)))
			}
		}
		st.cells[color] = cs
	}
	segCap := (ew + 1) / 2
	st.energies = make([]float64, segCap*L)
	st.currents = make([]int, segCap)
	st.out = make([]int, segCap)
	return st
}

// compute runs one color phase over the tile's owned cells: maximal same-row
// stride-2 segments are gathered with one LabelEnergiesSeg call on the tile
// view and drawn with one SampleBatch call. Within a color phase no cell's
// neighbors change (they are all the other color), so batch-gathering a whole
// segment before drawing it yields exactly the energies — and therefore the
// RNG draws — of a per-pixel loop. Halo cells are read but never written. A
// sampler panic becomes the tile's error, so a faulty sampler fails the solve
// instead of killing the process. Returns the tile's flips and, when track,
// accumulates the energy delta.
func (ts *shardTile) compute(color int, track bool) (flips int, edelta float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mrf: tile %d panicked: %v", ts.t.Index, r)
		}
	}()
	L := ts.view.Labels()
	ew := ts.t.EW()
	labs := ts.lab.L
	cells := ts.cells[color]
	for i := 0; i < len(cells); {
		c := int(cells[i])
		lx0, ly := c%ew, c/ew
		// Extend across the same-row stride-2 run; the row bound keeps an odd
		// extended width from letting the linear sequence jump rows.
		n := 1
		nmax := (ew - lx0 + 1) / 2
		if m := len(cells) - i; nmax > m {
			nmax = m
		}
		for n < nmax && int(cells[i+n]) == c+2*n {
			n++
		}
		ts.view.LabelEnergiesSeg(ts.energies[:n*L], ts.lab, ly, lx0, 2, n)
		for j := 0; j < n; j++ {
			ts.currents[j] = labs[c+2*j]
		}
		if serr := ts.sampler.SampleBatch(ts.energies[:n*L], L, ts.currents[:n], ts.out[:n]); serr != nil {
			return flips, edelta, fmt.Errorf("mrf: tile %d pixel (%d,%d): %w",
				ts.t.Index, ts.t.EX0+lx0, ts.t.EY0+ly, serr)
		}
		for j := 0; j < n; j++ {
			if next := ts.out[j]; next != ts.currents[j] {
				if track {
					edelta += ts.view.FlipDelta(ts.lab, lx0+2*j, ly, ts.currents[j], next)
				}
				labs[c+2*j] = next
				flips++
			}
		}
		i += n
	}
	return flips, edelta, nil
}

// shardPool is the tile engine. It schedules the tiles over a fixed set of
// long-lived executor goroutines: executor 0 is the goroutine driving sweep()
// itself (parking it at the barrier while another thread is woken to do its
// work would be pure scheduler churn), executors 1..E-1 park on unbuffered
// command channels. Each sweep has four stages: compute color 0, exchange
// halos, compute color 1, exchange halos. Compute stages write only owned
// cells; exchange stages write only the running tile's own halo and read
// only neighbors' owned cells — each barrier separates the two access
// patterns, so the sweep is race-free at any executor count, and because
// tiles (not cells) are the scheduling unit, bit-identical at any executor
// count too.
type shardPool struct {
	r     *run
	plan  *shard.Plan
	tiles []*shardTile
	nexec int

	cmds  []chan int // stage commands for executors 1..E-1
	phase sync.WaitGroup
	exit  sync.WaitGroup

	errs   []error // per-tile first error; owner = whichever executor runs the tile
	flips  []int
	edelta []float64
}

// Stage encoding for the command channels.
const (
	stageCompute0 = iota
	stageExchange0
	stageCompute1
	stageExchange1
)

// resolveExecutors maps the SolveOptions.executors seam onto a concrete
// executor count for the given tile count: <= 0 means min(tiles, NumCPU,
// GOMAXPROCS) — more OS threads than cores buy no parallelism, only scheduler
// churn at the barriers — and any request is clamped to [1, tiles].
func resolveExecutors(requested, tiles int) int {
	e := requested
	if e <= 0 {
		e = min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	return max(min(e, tiles), 1)
}

// newShardPool builds the tile engine for the run on the given geometry —
// tile i draws from run.samplers[i] — records its grids in run.grids and
// starts the executors.
func newShardPool(r *run, tab *Tables, geom shard.Geometry) (*shardPool, error) {
	plan, err := shard.NewPlan(geom, r.p.W, r.p.H)
	if err != nil {
		return nil, fmt.Errorf("mrf: %w", err)
	}
	// Scatter seeds every tile's extended rect — halos included — from the
	// initial (or restored) grid.
	grids := shard.NewTileGrids(plan)
	for _, g := range grids {
		g.Scatter(r.lab.L, r.p.W)
	}
	// A version-1 worker snapshot carries no halos: at a sweep boundary every
	// edge halo equals the neighbor's owned cell, which Scatter already
	// copied from the snapshot grid. A tile-engine snapshot's halos must come
	// from the snapshot instead — for edge cells that is the same thing, but
	// corners were never exchanged and must round-trip verbatim for later
	// checkpoints to stay byte-identical.
	if st := r.opts.Resume; st != nil && st.ShardRows != 0 {
		if len(st.Halos) != len(grids) {
			return nil, fmt.Errorf("mrf: snapshot has %d halo buffers for %d tiles", len(st.Halos), len(grids))
		}
		for i, g := range grids {
			if err := g.RestoreHalos(st.Halos[i]); err != nil {
				return nil, fmt.Errorf("mrf: %w", err)
			}
		}
	}
	tiles := make([]*shardTile, len(grids))
	for i, t := range plan.Tiles {
		view, err := tab.TileView(t.EX0, t.EY0, t.EX1, t.EY1)
		if err != nil {
			return nil, err
		}
		tiles[i] = newShardTile(t, grids[i], view, r.samplers[i])
	}
	r.grids = grids

	nexec := resolveExecutors(r.opts.executors, len(tiles))
	pool := &shardPool{
		r: r, plan: plan, tiles: tiles, nexec: nexec,
		cmds:   make([]chan int, nexec-1),
		errs:   make([]error, len(tiles)),
		flips:  make([]int, len(tiles)),
		edelta: make([]float64, len(tiles)),
	}
	for i := range pool.cmds {
		pool.cmds[i] = make(chan int)
		pool.exit.Add(1)
		go pool.executor(i + 1)
	}
	return pool, nil
}

// executor is executor e's loop: park on the command channel, execute the
// commanded stage over this executor's contiguous tile block, signal the
// barrier, repeat until the channel closes.
func (pool *shardPool) executor(e int) {
	defer pool.exit.Done()
	for stage := range pool.cmds[e-1] {
		pool.execStage(e, stage)
		pool.phase.Done()
	}
}

// execStage runs one stage for executor e's contiguous block of tiles,
// sequentially and in tile order.
func (pool *shardPool) execStage(e, stage int) {
	n := len(pool.tiles)
	for i := e * n / pool.nexec; i < (e+1)*n/pool.nexec; i++ {
		switch stage {
		case stageCompute0, stageCompute1:
			if pool.errs[i] != nil {
				continue // tile sits out after an error, but honors barriers
			}
			color := 0
			if stage == stageCompute1 {
				color = 1
			}
			flips, edelta, err := pool.tiles[i].compute(color, pool.r.track)
			pool.flips[i] += flips
			pool.edelta[i] += edelta
			if err != nil {
				pool.errs[i] = err
			}
		case stageExchange0, stageExchange1:
			shard.PullHalos(pool.plan, pool.r.grids, i)
		}
	}
}

// barrier drives one stage across every executor: commands 1..E-1, runs
// executor 0 inline, waits. The sends publish the driving goroutine's writes;
// the Wait publishes the executors' writes back.
func (pool *shardPool) barrier(stage int) {
	pool.phase.Add(len(pool.cmds))
	for _, cmd := range pool.cmds {
		cmd <- stage
	}
	pool.execStage(0, stage)
	pool.phase.Wait()
}

// sweep drives the four stages of sweep k, adds the sweep's energy delta
// (summed in tile order, so the tracked energy is deterministic) to
// run.energy and returns the flip count plus the first tile error, if any.
// After each exchange barrier the shardPhaseHook test seam, when set, sees
// the gathered labeling.
func (pool *shardPool) sweep(k int) (int, error) {
	for color, stages := range [2][2]int{{stageCompute0, stageExchange0}, {stageCompute1, stageExchange1}} {
		pool.barrier(stages[0])
		pool.barrier(stages[1])
		if hook := pool.r.opts.shardPhaseHook; hook != nil {
			pool.gather()
			hook(k, color, pool.r.lab)
		}
	}
	flips := 0
	var delta float64
	for i := range pool.flips {
		flips += pool.flips[i]
		pool.flips[i] = 0
		delta += pool.edelta[i]
		pool.edelta[i] = 0
	}
	for _, err := range pool.errs {
		if err != nil {
			return flips, err
		}
	}
	if pool.r.track {
		pool.r.energy += delta
	}
	return flips, nil
}

// gather reassembles the global labeling from the tiles' owned rects. The
// driver runs it only when an observer needs the full grid (hook, collector,
// checkpoint, cancellation) and on every return, so steady sweeps touch only
// tile-local memory.
func (pool *shardPool) gather() {
	for _, g := range pool.r.grids {
		g.GatherInto(pool.r.lab.L, pool.r.p.W)
	}
}

// stop shuts the executors down and waits for every goroutine to exit.
func (pool *shardPool) stop() {
	for _, cmd := range pool.cmds {
		close(cmd)
	}
	pool.exit.Wait()
}
