package mrf

import "sync"

// tableBandFloor is the singleton-table size, in entries, below which
// singletonTable fills the whole table on the calling goroutine: under it
// the goroutine start and join cost more than the second band saves. See
// DESIGN.md §7 for how it was measured.
const tableBandFloor = 1 << 14

// singletonTable caches the data term in the color-run layout of
// Tables.Singles (see Problem.base). At or above tableBandFloor entries it
// fills contiguous row bands concurrently, one per executor of
// resolveExecutors' rule with H as the tile count; the calling goroutine
// fills band 0 and waits for the rest. Every entry is the same pure call
// Singleton(x, y, l) written to the same slot, so the table is
// bit-identical for any band count. A panic in any band is re-raised on the
// calling goroutine after every band has stopped, as from a serial fill.
func (p *Problem) singletonTable() []float64 {
	tab := make([]float64, p.W*p.H*p.Labels)
	bands := 1
	if len(tab) >= tableBandFloor {
		bands = resolveExecutors(0, p.H)
	}
	if bands == 1 {
		p.fillSingles(tab, 0, p.H)
		return tab
	}
	panics := make([]any, bands)
	band := func(b int) {
		defer func() { panics[b] = recover() }()
		p.fillSingles(tab, b*p.H/bands, (b+1)*p.H/bands)
	}
	var wg sync.WaitGroup
	for b := 1; b < bands; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			band(b)
		}()
	}
	band(0)
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
	return tab
}

// fillSingles writes the singleton entries of rows [y0, y1) into tab. Each
// row's block is its own, so the block is written front to back: the
// row's color-0 pixels in x order, then its color-1 pixels.
func (p *Problem) fillSingles(tab []float64, y0, y1 int) {
	i := y0 * p.W * p.Labels
	for y := y0; y < y1; y++ {
		for color := 0; color < 2; color++ {
			for x := (y + color) & 1; x < p.W; x += 2 {
				for l := 0; l < p.Labels; l++ {
					tab[i] = p.Singleton(x, y, l)
					i++
				}
			}
		}
	}
}
