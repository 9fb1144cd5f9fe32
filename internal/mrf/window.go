package mrf

import (
	"math"

	"rsu/internal/core"
	"rsu/internal/img"
)

// window holds the window tables of the code form, which let a checker
// tile evaluate only the labels whose pair terms can change the live set
// (DESIGN.md §15). A pair row nb is the constant c[nb], its maximum,
// outside the span [lo[nb], hi[nb]] of labels where it differs from c[nb]
// (an empty span, lo > hi, for a constant row). An interior pixel's
// energy outside the union span U of its four neighbors' rows is then
// s_l + C, with C the sum of their constants, so only U needs its five
// terms summed; the pixel's minimum single decides whether a label outside
// U can be the minimum or live.
type window struct {
	rows []windowRow
	// pair is the pair LUT as bytes, in Pair's layout: pairsQualify holds
	// every entry to an integer in [0, 255].
	pair []uint8
	// minS is each pixel's minimum single code, one byte per pixel in the
	// color-run order of Codes: pixel (x, y) sits at Problem.base(x, y)/Labels.
	minS []uint8
}

// windowRow is one pair row's constant and span, kept together so that a
// pixel's four rows cost four loads.
type windowRow struct{ c, lo, hi int32 }

// pairWindow returns the window tables of a qualifying pair LUT with L
// labels, minS left unset.
func pairWindow(pair []float64, L int) *window {
	w := &window{rows: make([]windowRow, L), pair: make([]uint8, len(pair))}
	for i, v := range pair {
		w.pair[i] = uint8(v)
	}
	for nb := 0; nb < L; nb++ {
		row := w.pair[nb*L : nb*L+L]
		c := row[0]
		for _, v := range row {
			c = max(c, v)
		}
		lo, hi := L, -1
		for l, v := range row {
			if v != c {
				lo, hi = min(lo, l), l
			}
		}
		w.rows[nb] = windowRow{c: int32(c), lo: int32(lo), hi: int32(hi)}
	}
	return w
}

// bytes returns the window tables' size.
func (w *window) bytes() int {
	return 12*len(w.rows) + len(w.pair) + len(w.minS)
}

// windowed is a checker tile's gather over the code form when it has
// window tables: tables t, their code form and window.
type windowed struct {
	t     *Tables
	codes []uint8
	w     *window
}

// candidates is one segment's live sets, as a core.LiveCodeSampler takes
// them: pixel i's live labels are labels[ends[i-1]:ends[i]] (from 0 for
// pixel 0), in label order, with their energy codes in codes, and mins[i]
// is its minimum energy, saturated at 255. sums and dense are one pixel's
// scratch: its union-span energies and its dense energy vector.
type candidates struct {
	labels []int32
	codes  []uint8
	ends   []int32
	mins   []uint8
	sums   []int32
	dense  []float64
}

func newCandidates(slots, labels int) candidates {
	return candidates{
		labels: tileScratch[int32](slots * labels), codes: tileScratch[uint8](slots * labels),
		ends: tileScratch[int32](slots), mins: tileScratch[uint8](slots),
		sums: tileScratch[int32](labels), dense: tileScratch[float64](labels),
	}
}

// segment writes the live sets of the n same-color pixels (x0, y),
// (x0+2, y), ... into c against the sampler's cut-off cut. Interior pixels
// take the window (pixel); border pixels and the pixels the window cannot
// decide take the dense code gather (densePixel).
func (g *windowed) segment(c *candidates, lab *img.Labels, y, x0, n int, cut core.LiveCut) {
	p := g.t.p
	L := p.Labels
	labs := lab.L
	row := y * p.W
	base := p.base(x0, y)
	px := base / L // the pixel's index in window.minS
	k := 0
	interior := y > 0 && y+1 < p.H
	for i, x := 0, x0; i < n; i, x, base, px = i+1, x+2, base+L, px+1 {
		ok := false
		if interior && x > 0 && x+1 < p.W {
			k, ok = g.w.pixel(c, i, k, g.codes[base:base+L], int32(g.w.minS[px]),
				labs[row+x-1], labs[row+x+1], labs[row+x-p.W], labs[row+x+p.W], cut)
		}
		if !ok {
			k = g.densePixel(c, i, k, lab, x, y, cut)
		}
		c.ends[i] = int32(k)
	}
}

// pixel writes slot i's live set from index k on and returns the new end,
// or reports false, writing nothing, when the window cannot decide it: the
// neighbors' rows are all constant, or every label is live. s holds the
// pixel's single codes, minS their minimum, and a, b, u, d its left,
// right, up and down neighbors' labels.
//
// It is exact: codes and pair entries are integers, so any summation order
// gives the dense gather's energies. Inside U it sums all five terms, and
// outside U each row is its constant, so a label's energy is s_l + C. When
// minS + C ≥ m_U no label outside U is below m_U, so m_U is the pixel's
// minimum m; otherwise the singles outside U give theirs. A label is live
// iff its energy is at most limit = cut.Limit(m), and outside U that
// is s_l ≤ limit − C, which no label meets when minS + C > limit.
func (w *window) pixel(c *candidates, i, k int, s []uint8, minS int32, a, b, u, d int, cut core.LiveCut) (int, bool) {
	wa, wb, wu, wd := w.rows[a], w.rows[b], w.rows[u], w.rows[d]
	lo, hi := min(wa.lo, wb.lo, wu.lo, wd.lo), max(wa.hi, wb.hi, wu.hi, wd.hi)
	if lo > hi {
		return k, false
	}
	L := len(s)
	// Every operand resliced to U, so the sum loop runs without bounds
	// checks.
	sums := c.sums[:hi-lo+1]
	n := len(sums)
	su := s[lo : hi+1][:n]
	ra, rb := w.pair[a*L+int(lo):][:n], w.pair[b*L+int(lo):][:n]
	ru, rd := w.pair[u*L+int(lo):][:n], w.pair[d*L+int(lo):][:n]
	m := int32(1 << 30)
	for j := range sums {
		e := int32(su[j]) + int32(ra[j]) + int32(rb[j]) + int32(ru[j]) + int32(rd[j])
		sums[j] = e
		m = min(m, e)
	}
	C := wa.c + wb.c + wu.c + wd.c
	if minS+C < m {
		// A label outside U may lie below m_U: its singles decide.
		mo := int32(255)
		for _, v := range s[:lo] {
			mo = min(mo, int32(v))
		}
		for _, v := range s[hi+1:] {
			mo = min(mo, int32(v))
		}
		m = min(m, mo+C)
	}
	limit := int32(cut.Limit(int(m)))
	if limit >= 255 {
		return k, false
	}
	lab, code := c.labels, c.codes
	// Outside U a label is live iff s_l ≤ t.
	t := limit - C
	if minS <= t {
		for l := 0; l < int(lo); l++ {
			if int32(s[l]) <= t {
				lab[k], code[k] = int32(l), s[l]+uint8(C)
				k++
			}
		}
	}
	for j, e := range sums {
		if e <= limit {
			lab[k], code[k] = lo+int32(j), uint8(e)
			k++
		}
	}
	if minS <= t {
		for l := int(hi) + 1; l < L; l++ {
			if int32(s[l]) <= t {
				lab[k], code[k] = int32(l), s[l]+uint8(C)
				k++
			}
		}
	}
	c.mins[i] = uint8(min(m, 255))
	return k, true
}

// densePixel writes the live set of pixel (x, y), slot i, from index k on
// and returns the new end: the dense code gather of its energies
// (labelEnergies), their minimum and, against its live code limit, the
// labels at or below it, or every label when all are live. Energies and
// codes saturate at 255, which the sampler reads as its maximum code.
func (g *windowed) densePixel(c *candidates, i, k int, lab *img.Labels, x, y int, cut core.LiveCut) int {
	d := c.dense
	labelEnergies(g.t, g.codes, d, lab, x, y)
	m := d[0]
	for _, e := range d[1:] {
		m = min(m, e)
	}
	m = min(m, 255)
	limit := cut.Limit(int(m))
	live := float64(limit)
	if limit >= 255 {
		live = math.Inf(1)
	}
	for l, e := range d {
		if e <= live {
			c.labels[k], c.codes[k] = int32(l), uint8(min(e, 255))
			k++
		}
	}
	c.mins[i] = uint8(m)
	return k
}
