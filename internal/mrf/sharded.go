package mrf

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"rsu/internal/core"
	"rsu/internal/shard"
)

// AutoShardPixels is a grid size (W*H) that Solve does not read: Workers 0
// is shard.Auto on every grid. It stays only because the benchmark harness
// (perfbench/) reads it to count the tiles of its Workers-0 solves, which
// all run on grids this large.
const AutoShardPixels = 1 << 18

// shardTile is one tile's compute state: its owned rect, its own sampler
// (the tile's RNG stream), and the global linear indices of its owned cells
// split by global checkerboard parity. The tile reads and writes the one
// global label grid through the one global Tables; its scratch buffers are
// its own, so any executor can run any tile without sharing state.
//
// The one tile of a 1×1 plan is the serial raster scan instead: it sweeps
// the whole grid in raster order in its color-0 stage (raster) and does
// nothing in color 1, so it holds a row block rather than color lists.
type shardTile struct {
	t       shard.Tile
	sampler core.BatchSampler
	// minSampler is sampler when it takes the gather's per-slot minima
	// (core.MinBatchSampler), else nil.
	minSampler core.MinBatchSampler
	// win is the run's windowed code gather and live the sampler, when the
	// run has one and the sampler takes live sets (core.LiveCodeSampler);
	// both nil otherwise. cand is the segment's live sets.
	win  *windowed
	live core.LiveCodeSampler
	cand candidates
	// cells[color] lists owned cells of global parity (gx+gy)%2 == color as
	// global linear indices y*W+x, row-major — the same order the monolithic
	// checkerboard visits them.
	cells [2][]int

	energies []float64
	mins     []float64
	currents []int
	out      []int

	// block is the raster tile's W×Labels row energy block, reused every
	// row; nil on the tiles of a multi-tile plan.
	block []float64
}

func newShardTile(t shard.Tile, w, labels int, sampler core.LabelSampler, raster bool, win *windowed) *shardTile {
	st := &shardTile{t: t, sampler: core.AsBatch(sampler)}
	if raster {
		st.block = make([]float64, w*labels)
		return st
	}
	st.minSampler, _ = sampler.(core.MinBatchSampler)
	if live, ok := sampler.(core.LiveCodeSampler); ok && win != nil {
		st.win, st.live = win, live
		st.cand = newCandidates((t.W()+1)/2, labels)
	}
	for color := 0; color < 2; color++ {
		cs := make([]int, 0, (t.W()*t.H()+1)/2)
		for gy := t.Y0; gy < t.Y1; gy++ {
			// First owned x of this row with (gx+gy)%2 == color.
			gx := t.X0
			if (gx+gy)%2 != color {
				gx++
			}
			for ; gx < t.X1; gx += 2 {
				cs = append(cs, gy*w+gx)
			}
		}
		st.cells[color] = cs
	}
	segCap := (t.W() + 1) / 2
	st.energies = tileScratch[float64](segCap * labels)
	st.mins = tileScratch[float64](segCap)
	st.currents = tileScratch[int](segCap)
	st.out = tileScratch[int](segCap)
	return st
}

// tileScratch returns n zero Ts in an allocation of whole cache lines. Go
// serves a request of whole 64-byte lines from a size class of whole lines,
// so one tile's scratch never shares a line with another's: executors
// write their tiles' scratch at once, and on small tiles two buffers in one
// line made the checker sweep measurably slower.
func tileScratch[T int | int32 | uint8 | float64](n int) []T {
	size := int(unsafe.Sizeof(T(0)))
	return make([]T, n, (n*size+63)/64*64/size)
}

// compute runs the tile's color-c stage of sweep k on run r's grid and
// returns its flips and, when r.track, its energy delta. The raster tile
// sweeps the whole grid in color 0, adding each FlipDelta straight into
// r.energy as the serial scan always has, and returns a +0 delta, which
// leaves r.energy's bits unchanged (a sum that starts at +0 is never −0).
func (ts *shardTile) compute(k int, r *run, color int) (flips int, edelta float64, err error) {
	if ts.block == nil {
		return ts.checker(r, color)
	}
	if color == 0 {
		flips, err = ts.raster(k, r)
	}
	return flips, 0, err
}

// checker runs one color phase over the tile's owned cells of the global
// grid: maximal same-row stride-2 segments are gathered with one
// labelEnergiesSeg call and drawn with one SampleBatch call — or, for a
// core.MinBatchSampler, gathered with their minima and drawn with one
// SampleBatchMin call, or, with a windowed gather whose sampler's cut-off
// leaves some labels out at this temperature (a live code limit below 255
// at minimum code 0), gathered as their live sets and drawn with one
// SampleLiveCodes call. Within a color
// phase no cell's neighbors change (they are all the other color), so
// batch-gathering a whole segment before drawing it yields exactly the
// energies — and therefore the RNG draws — of a per-pixel loop. The tile
// writes only its own cells of this color and reads only their neighbors of
// the other color, which no tile writes in this phase. A sampler panic
// becomes the tile's error, so a faulty sampler fails the solve instead of
// killing the process. Returns the tile's flips and, when r.track, accumulates
// the energy delta.
func (ts *shardTile) checker(r *run, color int) (flips int, edelta float64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("mrf: tile %d panicked: %v", ts.t.Index, rec)
		}
	}()
	lab, g := r.lab, r.gather
	L := r.p.Labels
	w := lab.W
	labs := lab.L
	cells := ts.cells[color]
	// The sampler's temperature, and so its cut-off, stays put over the
	// stage.
	var cut core.LiveCut
	windowed := false
	if ts.live != nil {
		var ok bool
		cut, ok = ts.live.LiveCut()
		windowed = ok && cut.Limit(0) < 255
	}
	for i := 0; i < len(cells); {
		c := cells[i]
		x0, y := c%w, c/w
		// Extend across the same-row stride-2 run; the owned-row bound keeps
		// the linear sequence from running into the next row.
		n := 1
		nmax := min((ts.t.X1-x0+1)/2, len(cells)-i)
		for n < nmax && cells[i+n] == c+2*n {
			n++
		}
		for j := 0; j < n; j++ {
			ts.currents[j] = labs[c+2*j]
		}
		var serr error
		switch {
		case windowed:
			cd := &ts.cand
			ts.win.segment(cd, lab, y, x0, n, cut)
			k := cd.ends[n-1]
			serr = ts.live.SampleLiveCodes(cd.labels[:k], cd.codes[:k], cd.ends[:n], cd.mins[:n], L, ts.currents[:n], ts.out[:n])
		case ts.minSampler != nil:
			g.labelEnergiesSegMin(ts.energies[:n*L], ts.mins[:n], lab, y, x0, 2, n)
			serr = ts.minSampler.SampleBatchMin(ts.energies[:n*L], ts.mins[:n], L, ts.currents[:n], ts.out[:n])
		default:
			g.labelEnergiesSeg(ts.energies[:n*L], lab, y, x0, 2, n)
			serr = ts.sampler.SampleBatch(ts.energies[:n*L], L, ts.currents[:n], ts.out[:n])
		}
		if serr != nil {
			return flips, edelta, fmt.Errorf("mrf: tile %d pixel (%d,%d): %w", ts.t.Index, x0, y, serr)
		}
		for j := 0; j < n; j++ {
			if next := ts.out[j]; next != ts.currents[j] {
				if r.track {
					edelta += r.tab.FlipDelta(lab, x0+2*j, y, ts.currents[j], next)
				}
				labs[c+2*j] = next
				flips++
			}
		}
		i += n
	}
	return flips, edelta, nil
}

// raster runs sweep k as one full raster-scan Gibbs sweep of the grid: per
// row it gathers the whole W×Labels candidate-energy block with one step-1
// labelEnergiesSeg call, then draws each pixel from its slot with Sample.
// The raster scan's only intra-row data dependence is the left neighbor, so
// a slot is stale only when the immediately preceding pixel flipped — that
// slot is recomputed through the exact per-pixel labelEnergies path, keeping
// every energy vector (and therefore every RNG draw) bit-identical to the
// unfused loop. A sampler panic becomes an error locating its sweep and row;
// the recover is armed once per sweep, outside the pixel loop.
func (ts *shardTile) raster(k int, r *run) (flips int, err error) {
	y := 0
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("mrf: sweep %d row %d panicked: %v", k, y, rec)
		}
	}()
	lab, g := r.lab, r.gather
	L := r.p.Labels
	for ; y < lab.H; y++ {
		g.labelEnergiesSeg(ts.block, lab, y, 0, 1, lab.W)
		prevFlipped := false
		for x := 0; x < lab.W; x++ {
			vec := ts.block[x*L : x*L+L]
			if prevFlipped {
				g.labelEnergies(vec, lab, x, y)
			}
			cur := lab.At(x, y)
			next, serr := ts.sampler.Sample(vec, cur)
			if serr != nil {
				return flips, fmt.Errorf("mrf: sweep %d pixel (%d,%d): %w", k, x, y, serr)
			}
			prevFlipped = next != cur
			if prevFlipped {
				if r.track {
					r.energy += r.tab.FlipDelta(lab, x, y, cur, next)
				}
				lab.Set(x, y, next)
				flips++
			}
		}
	}
	return flips, nil
}

// shardPool is the tile engine. It schedules the tiles over a fixed set of
// long-lived executor goroutines: executor 0 is the goroutine driving sweep()
// itself (parking it at the barrier while another thread is woken to do its
// work would be pure scheduler churn), executors 1..E-1 wait for the next
// stage. Each sweep has two stages, compute color 0 and compute color 1,
// each ending at a barrier. Every tile sweeps the one global grid in place:
// in a color-c stage a tile writes only its own color-c cells and reads only
// color-(1−c) cells, which no tile writes in that stage, so the sweep is
// race-free at any executor count, and because tiles (not cells) are the
// scheduling unit, bit-identical at any executor count too.
//
// The barrier is an atomic epoch plus an atomic pending count. The driver
// sets pending to E-1 and publishes a stage by storing a new epoch, which
// carries the stage's color (or the stop bit); each executor computes its
// tiles and decrements pending. Both sides wait by spinning (waitSpins
// rounds, yielding the processor each round) and then parking on cond, so a
// short stage costs no OS-thread wake-up and a long wait (a slow hook, a
// checkpoint) burns no CPU. The atomics order everything: an executor reads
// the grid after loading the epoch the driver stored after writing it, and
// the driver reads the tiles' results after loading pending at zero.
type shardPool struct {
	r     *run
	tiles []*shardTile
	nexec int

	// epoch is stage<<2 | stopBit | color: a new value starts a stage.
	epoch atomic.Uint64
	// pending counts executors 1..E-1 still computing the current stage.
	pending atomic.Int64
	// cond is where waiters park. A waiter re-checks its condition under mu
	// before each Wait, and whoever changes a condition broadcasts under mu
	// afterwards, so no wake-up is lost.
	mu   sync.Mutex
	cond *sync.Cond
	exit sync.WaitGroup

	k      int     // the sweep in progress, set before its first stage is published
	errs   []error // per-tile first error; owner = whichever executor runs the tile
	flips  []int
	edelta []float64
}

// stopBit in an epoch tells the executors to exit.
const stopBit = 2

// waitSpins is how many times a barrier waiter checks its condition,
// yielding the processor after each miss, before it parks: about 0.2 ms on
// a 2-vCPU Xeon, which covers a stage's tile imbalance and the driver's
// per-sweep temperature update on stereo-anneal, so there a waiter rarely
// parks. A longer wait (a checkpoint, a slow OnSweep) parks and burns no
// CPU. Budgets from 500 to 5000 measured alike on stereo-anneal; 100 was
// about 10% slower there.
const waitSpins = 1000

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
// tile i draws from run.samplers[i] — records its plan in run.plan and starts
// the executors. Resuming a tile-engine snapshot checks every tile's recorded
// halo against the restored grid first.
func newShardPool(r *run, geom shard.Geometry) (*shardPool, error) {
	plan, err := shard.NewPlan(geom, r.p.W, r.p.H)
	if err != nil {
		return nil, fmt.Errorf("mrf: %w", err)
	}
	// A version-1 worker snapshot carries no halos. A tile-engine snapshot's
	// halos were captured from the grid it carries, so every edge cell must
	// still agree with it; corners are read by no 4-neighborhood and are not
	// compared.
	if st := r.opts.Resume; st != nil && st.ShardRows != 0 {
		if len(st.Halos) != len(plan.Tiles) {
			return nil, fmt.Errorf("mrf: snapshot has %d halo buffers for %d tiles", len(st.Halos), len(plan.Tiles))
		}
		for i, t := range plan.Tiles {
			if err := t.CheckHalo(r.lab.L, r.p.W, st.Halos[i]); err != nil {
				return nil, fmt.Errorf("mrf: snapshot: %w", err)
			}
		}
	}
	tiles := make([]*shardTile, len(plan.Tiles))
	for i, t := range plan.Tiles {
		tiles[i] = newShardTile(t, r.p.W, r.p.Labels, r.samplers[i], len(plan.Tiles) == 1, r.win)
	}
	r.plan = plan

	nexec := resolveExecutors(r.opts.executors, len(tiles))
	pool := &shardPool{
		r: r, tiles: tiles, nexec: nexec,
		errs:   make([]error, len(tiles)),
		flips:  make([]int, len(tiles)),
		edelta: make([]float64, len(tiles)),
	}
	pool.cond = sync.NewCond(&pool.mu)
	for e := 1; e < nexec; e++ {
		pool.exit.Add(1)
		go pool.executor(e)
	}
	return pool, nil
}

// executor is executor e's loop: wait for a new epoch, compute its color
// over this executor's contiguous tile block, count itself done, repeat
// until an epoch carries the stop bit.
func (pool *shardPool) executor(e int) {
	defer pool.exit.Done()
	var seen uint64
	for {
		seen = pool.awaitEpoch(seen)
		if seen&stopBit != 0 {
			return
		}
		pool.computeColor(e, int(seen&1))
		if pool.pending.Add(-1) == 0 {
			pool.broadcast()
		}
	}
}

// awaitEpoch returns the first epoch after seen: spinning first, then
// parked on cond.
func (pool *shardPool) awaitEpoch(seen uint64) uint64 {
	for i := 0; i < waitSpins; i++ {
		if ep := pool.epoch.Load(); ep != seen {
			return ep
		}
		runtime.Gosched()
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for {
		if ep := pool.epoch.Load(); ep != seen {
			return ep
		}
		pool.cond.Wait()
	}
}

// publish starts the stage the epoch ep names, waking parked executors.
func (pool *shardPool) publish(ep uint64) {
	pool.epoch.Store(ep)
	pool.broadcast()
}

// broadcast wakes every parked waiter to re-check its condition.
func (pool *shardPool) broadcast() {
	pool.mu.Lock()
	pool.cond.Broadcast()
	pool.mu.Unlock()
}

// awaitExecutors returns once every executor has finished the current
// stage: spinning first, then parked on cond.
func (pool *shardPool) awaitExecutors() {
	for i := 0; i < waitSpins; i++ {
		if pool.pending.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
	pool.mu.Lock()
	for pool.pending.Load() != 0 {
		pool.cond.Wait()
	}
	pool.mu.Unlock()
}

// computeColor computes one color for executor e's contiguous block of tiles,
// sequentially and in tile order.
func (pool *shardPool) computeColor(e, color int) {
	n := len(pool.tiles)
	for i := e * n / pool.nexec; i < (e+1)*n/pool.nexec; i++ {
		if pool.errs[i] != nil {
			continue // tile sits out after an error, but honors barriers
		}
		flips, edelta, err := pool.tiles[i].compute(pool.k, pool.r, color)
		pool.flips[i] += flips
		pool.edelta[i] += edelta
		if err != nil {
			pool.errs[i] = err
		}
	}
}

// barrier drives one color stage across every executor: publishes the
// stage to executors 1..E-1, runs executor 0 inline, waits for the rest.
func (pool *shardPool) barrier(color int) {
	if pool.nexec > 1 {
		pool.pending.Store(int64(pool.nexec - 1))
		pool.publish((pool.epoch.Load()>>2+1)<<2 | uint64(color))
	}
	pool.computeColor(0, color)
	if pool.nexec > 1 {
		pool.awaitExecutors()
	}
}

// sweep drives the two color stages of sweep k, adds the sweep's energy
// delta (summed in tile order, so the tracked energy is deterministic) to
// run.energy and returns the flip count plus the first tile error, if any.
// After each barrier of a multi-tile plan the shardPhaseHook test seam, when
// set, sees the grid; the raster tile has no checkerboard phases to show.
func (pool *shardPool) sweep(k int) (int, error) {
	pool.k = k
	for color := 0; color < 2; color++ {
		pool.barrier(color)
		if hook := pool.r.opts.shardPhaseHook; hook != nil && len(pool.tiles) > 1 {
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

// stop publishes the stop epoch and waits for every executor to exit.
func (pool *shardPool) stop() {
	pool.publish((pool.epoch.Load()>>2+1)<<2 | stopBit)
	pool.exit.Wait()
}
