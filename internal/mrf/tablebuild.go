package mrf

import (
	"math"
	"sync"
	"sync/atomic"

	"rsu/internal/quant"
)

// tableBandFloor is the singleton-table size, in entries, below which a
// form of the data term is filled on the calling goroutine: under it the
// goroutine start and join cost more than the second band saves. See
// DESIGN.md §7 for how it was measured.
const tableBandFloor = 1 << 14

// inBands runs fill over contiguous row bands that cover rows [0, H). At or
// above tableBandFloor table entries there is one band per executor of
// resolveExecutors' rule with H as the tile count; the calling goroutine
// fills band 0 and waits for the rest. A panic in any band is re-raised on
// the calling goroutine after every band has stopped, as from a serial
// fill.
func (p *Problem) inBands(fill func(y0, y1 int)) {
	bands := 1
	if p.W*p.H*p.Labels >= tableBandFloor {
		bands = resolveExecutors(0, p.H)
	}
	if bands == 1 {
		fill(0, p.H)
		return
	}
	panics := make([]any, bands)
	band := func(b int) {
		defer func() { panics[b] = recover() }()
		fill(b*p.H/bands, (b+1)*p.H/bands)
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
}

// singletonTable builds the float form of the data term in the color-run
// layout of Tables.Singles (see Problem.base), in row bands. Every entry is
// the same pure call Singleton(x, y, l) written to the same slot, so the
// table is bit-identical for any band count.
func (p *Problem) singletonTable() []float64 {
	tab := make([]float64, p.W*p.H*p.Labels)
	p.inBands(func(y0, y1 int) { p.fillSingles(tab, y0, y1) })
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

// codeTable builds the code form of the data term, each single s stored as
// singleCode(s) in the layout of singletonTable, in row bands. It returns
// nil when some single does not qualify; every band then stops at its next
// row.
func (p *Problem) codeTable() []uint8 {
	tab := make([]uint8, p.W*p.H*p.Labels)
	var rejected atomic.Bool
	p.inBands(func(y0, y1 int) {
		for y := y0; y < y1 && !rejected.Load(); y++ {
			if !p.fillCodes(tab, y) {
				rejected.Store(true)
			}
		}
	})
	if rejected.Load() {
		return nil
	}
	return tab
}

// fillCodes writes the codes of row y into tab in fillSingles' order and
// reports whether every single of the row qualifies, stopping at the first
// that does not.
func (p *Problem) fillCodes(tab []uint8, y int) bool {
	i := y * p.W * p.Labels
	for color := 0; color < 2; color++ {
		for x := (y + color) & 1; x < p.W; x += 2 {
			for l := 0; l < p.Labels; l++ {
				c, ok := singleCode(p.Singleton(x, y, l))
				if !ok {
					return false
				}
				tab[i] = c
				i++
			}
		}
	}
	return true
}

// codeMargin is how close to a rounding tie k+½ a single below 255 may lie,
// unless it lies exactly on it, and still take the code form. A gathered
// energy adds at most four pair terms to a single; below 2^11 each float
// add errs by at most 2^-43, so the float sum lies within 2^-41 of the real
// one and can round differently from the code only when the single is that
// close to a tie. 2^-30 leaves a wide margin (DESIGN.md §15).
const codeMargin = 0x1p-30

// singleCode returns a single's 8-bit energy code, min(255, RoundPos(s)),
// and whether the code form represents s exactly for a step-1 quantizer of
// at most 8 bits: s ≥ 0 (+Inf included, NaN not), and below 255 either on a
// rounding tie k+½ or more than codeMargin away from one. A single of 255
// or more saturates the quantizer in both forms.
func singleCode(s float64) (uint8, bool) {
	switch {
	case s >= 255:
		return 255, true
	case !(s >= 0):
		return 0, false
	}
	// s is below 255, so its integer part and fraction are exact, and so is
	// the fraction's distance from ½ near ½.
	if off := s - float64(int(s)) - 0.5; off != 0 && math.Abs(off) <= codeMargin {
		return 0, false
	}
	return uint8(quant.RoundPos(s)), true
}

// pairsQualify reports whether every pair entry is an integer in [0, 255],
// so that adding pair terms to a code moves it by whole steps.
func pairsQualify(pair []float64) bool {
	for _, v := range pair {
		if !(v >= 0 && v <= 255 && v == math.Trunc(v)) {
			return false
		}
	}
	return true
}
