// Package mrf implements the first-order grid Markov Random Field model and
// the MCMC Gibbs/simulated-annealing solver the paper's three computer
// vision applications are built on (Fig. 1): iterate pixel by pixel, compute
// the energy of every candidate label from the data term (singleton) and the
// 4-neighborhood smoothness term (doubleton), and draw the new label from a
// LabelSampler — either the software Boltzmann baseline or the RSU-G
// functional simulator.
package mrf

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"rsu/internal/img"
)

// DistanceKind selects the doubleton (pairwise) distance function. The
// previous RSU-G supported only squared distance; the new design adds
// binary and absolute distance (Sec. IV-B-1), covering the paper's three
// applications.
type DistanceKind int

const (
	// Squared distance (l1-l2)^2 — motion estimation.
	Squared DistanceKind = iota
	// Absolute distance |l1-l2| — stereo vision.
	Absolute
	// Binary (Potts) distance: 0 if equal, 1 otherwise — segmentation.
	Binary
)

func (d DistanceKind) String() string {
	switch d {
	case Squared:
		return "squared"
	case Absolute:
		return "absolute"
	case Binary:
		return "binary"
	default:
		return fmt.Sprintf("DistanceKind(%d)", int(d))
	}
}

// Distance evaluates the selected label distance.
func Distance(kind DistanceKind, a, b int) float64 {
	switch kind {
	case Squared:
		d := float64(a - b)
		return d * d
	case Absolute:
		return math.Abs(float64(a - b))
	case Binary:
		if a == b {
			return 0
		}
		return 1
	default:
		panic("mrf: unknown distance kind")
	}
}

// Problem is a first-order grid MRF instance.
type Problem struct {
	W, H   int
	Labels int
	// Singleton returns the data-term energy of label l at pixel (x, y).
	// The tables cache it, evaluating it once per (pixel, label) for each
	// form of the data term they build; FlipDelta and TotalEnergy call it
	// again when only the code form is built. The table builds may call it
	// from several goroutines at once, so it must be a pure function of
	// (x, y, l): no writes to shared state, no dependence on call order.
	Singleton func(x, y, l int) float64
	// PairWeight scales the doubleton term.
	PairWeight float64
	// Dist selects the doubleton distance function.
	Dist DistanceKind
	// PairDist, when non-nil, overrides Dist with a custom label distance.
	// Motion estimation uses this to apply the squared distance to the 2-D
	// vectors its labels encode, which is how the RSU-G energy stage treats
	// motion labels (Sec. III-D-2).
	PairDist func(a, b int) float64
	// TruncateDist, when positive, caps the doubleton distance —
	// the standard truncated linear/quadratic robustness trick. 0 = no cap.
	TruncateDist float64
}

// Validate reports structural errors in the problem definition.
func (p *Problem) Validate() error {
	switch {
	case p.W <= 0 || p.H <= 0:
		return fmt.Errorf("mrf: invalid grid %dx%d", p.W, p.H)
	case p.Labels < 2:
		return fmt.Errorf("mrf: need at least 2 labels, got %d", p.Labels)
	case p.Singleton == nil:
		return fmt.Errorf("mrf: nil Singleton function")
	case !(p.PairWeight >= 0) || math.IsInf(p.PairWeight, 1):
		// The !(>= 0) form also rejects NaN, which would fill the pair LUT
		// with NaN energies that a quantized sampler encodes as 0.
		return fmt.Errorf("mrf: PairWeight must be non-negative and finite, got %v", p.PairWeight)
	}
	return nil
}

// pairDist applies the configured distance with optional truncation.
func (p *Problem) pairDist(a, b int) float64 {
	var d float64
	if p.PairDist != nil {
		d = p.PairDist(a, b)
	} else {
		d = Distance(p.Dist, a, b)
	}
	if p.TruncateDist > 0 && d > p.TruncateDist {
		d = p.TruncateDist
	}
	return d
}

// base returns the index in Tables.Singles of pixel (x, y)'s first entry:
// row y's block starts at y*W pixels, the pixel sits x>>1 pixels into its
// color's run, and the color-1 run starts after the row's (W+1-y%2)/2
// color-0 pixels. Branch-free, so the per-pixel paths pay a few integer ops;
// the row and segment gathers compute it once per run and step by Labels.
func (p *Problem) base(x, y int) int {
	return (y*p.W + x>>1 + ((x+y)&1)*((p.W+1-y&1)>>1)) * p.Labels
}

// Tables caches the per-Solve lookup structures of a Problem: the singleton
// (data-term) table and a Labels×Labels pairwise LUT with PairWeight and
// TruncateDist folded in. With the tables built, the energy stage is pure
// table lookups — no per-call distance dispatch, math.Abs, or truncation
// branches in the Gibbs inner loop. Solve builds them once per run;
// multi-restart callers can build them once and reuse them across solves
// via SolveOptions.Tables. Tables are safe to share across concurrent
// solves and the parallel solver's workers.
//
// The data term has two forms, each built at most once, on first use, by
// the row-banded fill of tablebuild.go: the float form (Singles) and the
// 8-bit code form (Codes). BuildTables allocates only the pair LUT, and a
// solve builds the one form it reads: the code form when every sampler sees
// the energies only through a step-1 quantizer of at most 8 bits and the
// problem qualifies (see singleCode and pairsQualify), the float form
// otherwise. Both give every quantized sampler the same energy codes
// (DESIGN.md §15). The code form is built with window tables, through
// which a multi-tile solve's checker tiles sum and scan only the labels
// that can be live; the draws stay exact.
type Tables struct {
	p *Problem
	// Singles is the float form of the data term, nil until FloatSingles
	// (or a solve that reads it) builds it: W·H·Labels entries in an order
	// that belongs to the engine. Each grid row is one block of W·Labels
	// entries, holding its pixels of checkerboard color 0 ((x+y)%2 == 0) in
	// x order and then its pixels of color 1, each pixel's Labels entries
	// contiguous. A checkerboard color stage thus streams one contiguous run
	// per row segment. Read it through LabelEnergies, not by index.
	Singles []float64
	// Codes is the code form: each single s stored as its 8-bit energy code
	// min(255, RoundPos(s)), in the layout of Singles. It is nil until
	// CodeSingles (or a solve that reads it) builds it, and stays nil when
	// the problem does not qualify for it.
	Codes []uint8
	// Pair holds the smoothness energies: Pair[nb*Labels+l] is the doubleton
	// energy of label l against neighbor label nb (weight and truncation
	// applied), laid out so one neighbor's row is contiguous.
	Pair []float64
	// win holds the window tables, built with Codes: each pair row's
	// constant and the span where it differs from it, the pair LUT as
	// bytes, and each pixel's minimum single code. nil while Codes is.
	win *window

	// mu serializes the form builds. floatBuilt is stored after Singles is
	// written and codesDone after Codes is (left nil when the problem does
	// not qualify), so a reader that loads them sees the finished form.
	mu         sync.Mutex
	floatBuilt atomic.Bool
	codesDone  atomic.Bool
}

// PairLUT is the standalone pairwise (doubleton) lookup table of a Problem:
// Pair[nb*Labels+l] is the smoothness energy of label l against neighbor
// label nb with PairWeight and TruncateDist folded in — the Labels² half of
// Tables that depends only on the smoothness model, not on the input image.
// It is read-only after construction, so a serving layer can build it once
// per (distance, weight, truncation, label-count) design point and share it
// across every concurrent job at that point via BuildTablesShared.
type PairLUT struct {
	Labels int
	Pair   []float64
}

// BuildPairLUT precomputes just the pairwise LUT of p, in the same entry
// order as BuildTables (so shared and per-solve tables are bit-identical).
func (p *Problem) BuildPairLUT() *PairLUT {
	lut := &PairLUT{Labels: p.Labels, Pair: make([]float64, p.Labels*p.Labels)}
	i := 0
	for nb := 0; nb < p.Labels; nb++ {
		for l := 0; l < p.Labels; l++ {
			lut.Pair[i] = p.PairWeight * p.pairDist(l, nb)
			i++
		}
	}
	return lut
}

// BuildTables precomputes the pair LUT of p; each form of the data term is
// built on first use.
func (p *Problem) BuildTables() *Tables {
	return &Tables{p: p, Pair: p.BuildPairLUT().Pair}
}

// BuildTablesShared builds the tables for p reusing a prebuilt pairwise LUT;
// only the input-dependent data term is left to build, on first use. The
// LUT must have been built from a Problem with the same smoothness model
// (same Labels, PairWeight, distance function and truncation) — the label
// count is checked here, the semantic match is the caller's contract (the
// serving cache keys LUTs by the full smoothness model for exactly this
// reason).
func (p *Problem) BuildTablesShared(lut *PairLUT) (*Tables, error) {
	if lut == nil {
		return p.BuildTables(), nil
	}
	if lut.Labels != p.Labels || len(lut.Pair) != p.Labels*p.Labels {
		return nil, fmt.Errorf("mrf: shared pair LUT built for %d labels, problem has %d", lut.Labels, p.Labels)
	}
	return &Tables{p: p, Pair: lut.Pair}, nil
}

// FloatSingles returns the float form of the data term (Singles), building
// it on first use. A Singleton panic reaches the caller and leaves the form
// unbuilt, so the next call builds it again.
func (t *Tables) FloatSingles() []float64 {
	if t.floatBuilt.Load() {
		return t.Singles
	}
	return t.buildFloats()
}

// buildFloats is FloatSingles' first use, kept apart so the built case
// inlines.
func (t *Tables) buildFloats() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.floatBuilt.Load() {
		t.Singles = t.p.singletonTable()
		t.floatBuilt.Store(true)
	}
	return t.Singles
}

// CodeSingles returns the 8-bit code form of the data term (Codes),
// building it on first use, or nil when the problem does not qualify for
// it. A Singleton panic reaches the caller and leaves the form unbuilt, as
// in FloatSingles.
func (t *Tables) CodeSingles() []uint8 {
	if t.codesDone.Load() {
		return t.Codes
	}
	return t.buildCodes()
}

// buildCodes is CodeSingles' first use, kept apart so the decided case
// inlines.
func (t *Tables) buildCodes() []uint8 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.codesDone.Load() {
		if pairsQualify(t.Pair) {
			w := pairWindow(t.Pair, t.p.Labels)
			if t.Codes, w.minS = t.p.codeTable(); t.Codes != nil {
				t.win = w
			}
		}
		t.codesDone.Store(true)
	}
	return t.Codes
}

// WindowBytes returns the size of the window tables the code form was
// built with, or 0 when the code form is not built.
func (t *Tables) WindowBytes() int {
	if !t.codesDone.Load() || t.win == nil {
		return 0
	}
	return t.win.bytes()
}

// builtFloats returns the float form when it has been built, else nil.
func (t *Tables) builtFloats() []float64 {
	if t.floatBuilt.Load() {
		return t.Singles
	}
	return nil
}

// single is the element type of a stored form of the data term.
type single interface{ float64 | uint8 }

// The gathers (labelEnergies, labelEnergiesSeg, labelEnergiesSegMin) are
// generic over the form of the data term they read: s is t's Singles or
// Codes, in the color-run layout. Every sum reads a single as
// float64(s[i]), which for the float form is the stored value itself, so
// the float gathers' energies keep their bits. Their per-label loops are
// written out rather than calling a generic helper: with Go 1.24 an inlined
// generic helper's loop reloads its dictionary on every label, which cost
// the float row gather about 20%.

// gather binds the gathers to one form of the data term.
type gather[E single] struct {
	t *Tables
	s []E
}

// energyGather is the gather one solve's sweeps read: gather[float64] or
// gather[uint8], picked once per solve (Tables.gatherFor).
type energyGather interface {
	labelEnergies(dst []float64, lab *img.Labels, x, y int)
	labelEnergiesSeg(dst []float64, lab *img.Labels, y, x0, step, n int)
	labelEnergiesSegMin(dst, mins []float64, lab *img.Labels, y, x0, step, n int)
}

func (g gather[E]) labelEnergies(dst []float64, lab *img.Labels, x, y int) {
	labelEnergies(g.t, g.s, dst, lab, x, y)
}

func (g gather[E]) labelEnergiesSeg(dst []float64, lab *img.Labels, y, x0, step, n int) {
	labelEnergiesSeg(g.t, g.s, dst, lab, y, x0, step, n)
}

func (g gather[E]) labelEnergiesSegMin(dst, mins []float64, lab *img.Labels, y, x0, step, n int) {
	labelEnergiesSegMin(g.t, g.s, dst, mins, lab, y, x0, step, n)
}

// floatGather is the gather over the float form, building it on first use.
func (t *Tables) floatGather() gather[float64] {
	return gather[float64]{t: t, s: t.FloatSingles()}
}

// pairRow returns the contiguous row of pairwise energies against neighbor
// label nb: row[l] = PairWeight * dist(l, nb).
func (t *Tables) pairRow(nb int) []float64 {
	L := t.p.Labels
	return t.Pair[nb*L : nb*L+L]
}

// addRow accumulates one neighbor's pairwise row into the energy vector.
func addRow(dst, row []float64) {
	_ = row[len(dst)-1]
	for i := range dst {
		dst[i] += row[i]
	}
}

// LabelEnergies fills dst (length Labels) with the energy of every candidate
// label at pixel (x, y) under the current labeling, using the precomputed
// tables — the fast path of Problem.LabelEnergies. It reads the float form,
// building it on first use.
func (t *Tables) LabelEnergies(dst []float64, lab *img.Labels, x, y int) {
	labelEnergies(t, t.FloatSingles(), dst, lab, x, y)
}

// labelEnergies is one pixel's gather. An interior pixel sums its five terms
// in one pass, d[l] = s[l]+a[l]+b[l]+c[l]+e[l] (its singles plus its left,
// right, up and down pairwise rows), with one store per label; a border
// pixel copies its singles and adds one pairwise row per neighbor. Both
// evaluate singles, left, right, up, down left to right, so they agree bit
// for bit.
func labelEnergies[E single](t *Tables, s []E, dst []float64, lab *img.Labels, x, y int) {
	p := t.p
	L := p.Labels
	base := p.base(x, y)
	s = s[base : base+L]
	labs := lab.L
	i := y*p.W + x
	if x > 0 && x+1 < p.W && y > 0 && y+1 < p.H {
		d, a, b, c, e := dst[:L], t.pairRow(labs[i-1])[:L], t.pairRow(labs[i+1])[:L], t.pairRow(labs[i-p.W])[:L], t.pairRow(labs[i+p.W])[:L]
		for l := range d {
			d[l] = float64(s[l]) + a[l] + b[l] + c[l] + e[l]
		}
		return
	}
	for l, v := range s {
		dst[l] = float64(v)
	}
	if x > 0 {
		addRow(dst, t.pairRow(labs[i-1]))
	}
	if x+1 < p.W {
		addRow(dst, t.pairRow(labs[i+1]))
	}
	if y > 0 {
		addRow(dst, t.pairRow(labs[i-p.W]))
	}
	if y+1 < p.H {
		addRow(dst, t.pairRow(labs[i+p.W]))
	}
}

// LabelEnergiesSeg fills dst with the candidate-label energies of the n
// pixels (x0, y), (x0+step, y), ..., (x0+(n-1)*step, y) as a dense n×Labels
// block: slot i (dst[i*Labels:(i+1)*Labels]) holds pixel x0+i*step. It reads
// the float form, building it on first use.
func (t *Tables) LabelEnergiesSeg(dst []float64, lab *img.Labels, y, x0, step, n int) {
	labelEnergiesSeg(t, t.FloatSingles(), dst, lab, y, x0, step, n)
}

// labelEnergiesSeg is the segment gather behind LabelEnergiesSeg. The tile
// engine gathers one whole row (step 1, the one-tile raster scan) or one
// same-color row segment (step 2, checkerboard tiles) per call; step must
// be 1 or 2. A step-2 segment is one contiguous run of the singles, and a
// step-1 row is gathered as its two color runs, one after the other (slots
// 0, 2, 4, ... then 1, 3, 5, ...): each run's index is computed once and
// then advances by Labels per slot. Each slot accumulates in exactly
// labelEnergies' term order — singles, left, right, up, down — so the block
// is bit-identical to per-pixel calls.
func labelEnergiesSeg[E single](t *Tables, s []E, dst []float64, lab *img.Labels, y, x0, step, n int) {
	if step != 1 && step != 2 {
		panic("mrf: LabelEnergiesSeg step must be 1 or 2")
	}
	p := t.p
	L := p.Labels
	row := y * p.W
	labs := lab.L
	// runs is the segment's color-run count and the slot stride within one.
	runs := 2 / step
	if y > 0 && y+1 < p.H {
		// Interior row: every pixel off the vertical edges has all four
		// neighbors, so its five accumulation passes fuse into one.
		up, down := row-p.W, row+p.W
		for r := 0; r < runs && r < n; r++ {
			base := p.base(x0+r, y)
			for i, x := r, x0+r; i < n; i, x, base = i+runs, x+2, base+L {
				d := dst[i*L : i*L+L]
				if x == 0 || x+1 == p.W {
					labelEnergies(t, s, d, lab, x, y)
					continue
				}
				sl, a, b, c, e := s[base : base+L][:L], t.pairRow(labs[row+x-1])[:L], t.pairRow(labs[row+x+1])[:L],
					t.pairRow(labs[up+x])[:L], t.pairRow(labs[down+x])[:L]
				for l := range d {
					d[l] = float64(sl[l]) + a[l] + b[l] + c[l] + e[l]
				}
			}
		}
		return
	}
	for r := 0; r < runs && r < n; r++ {
		base := p.base(x0+r, y)
		for i := r; i < n; i, base = i+runs, base+L {
			for l, v := range s[base : base+L] {
				dst[i*L+l] = float64(v)
			}
		}
	}
	// Only the first slot can sit on the left edge and only the last on the
	// right edge (x strictly increases), so the boundary branches hoist out.
	first := 0
	if x0 == 0 {
		first = 1
	}
	for i, x := first, x0+first*step; i < n; i, x = i+1, x+step {
		addRow(dst[i*L:i*L+L], t.pairRow(labs[row+x-1]))
	}
	last := n
	if x0+(n-1)*step == p.W-1 {
		last = n - 1
	}
	for i, x := 0, x0; i < last; i, x = i+1, x+step {
		addRow(dst[i*L:i*L+L], t.pairRow(labs[row+x+1]))
	}
	if y > 0 {
		up := row - p.W
		for i, x := 0, x0; i < n; i, x = i+1, x+step {
			addRow(dst[i*L:i*L+L], t.pairRow(labs[up+x]))
		}
	}
	if y+1 < p.H {
		down := row + p.W
		for i, x := 0, x0; i < n; i, x = i+1, x+step {
			addRow(dst[i*L:i*L+L], t.pairRow(labs[down+x]))
		}
	}
}

// labelEnergiesSegMin is labelEnergiesSeg that also writes slot i's minimum
// energy to mins[i], or −Inf when the slot holds a NaN: the tile engine's
// gather for a core.MinBatchSampler. On interior pixels the minimum is found
// as the fused sum streams out, with no second pass over the slot; border
// rows and edge pixels reuse labelEnergies and labelEnergiesSeg and take the
// minimum afterwards. It walks the color runs as labelEnergiesSeg does and
// sums every energy in labelEnergiesSeg's order, so the block is
// bit-identical to it.
func labelEnergiesSegMin[E single](t *Tables, s []E, dst, mins []float64, lab *img.Labels, y, x0, step, n int) {
	p := t.p
	L := p.Labels
	if y == 0 || y+1 == p.H {
		labelEnergiesSeg(t, s, dst, lab, y, x0, step, n)
		for i := range mins[:n] {
			mins[i] = slotMin(dst[i*L : i*L+L])
		}
		return
	}
	row := y * p.W
	labs := lab.L
	up, down := row-p.W, row+p.W
	runs := 2 / step
	for r := 0; r < runs && r < n; r++ {
		base := p.base(x0+r, y)
		for i, x := r, x0+r; i < n; i, x, base = i+runs, x+2, base+L {
			d := dst[i*L : i*L+L]
			if x == 0 || x+1 == p.W {
				labelEnergies(t, s, d, lab, x, y)
				mins[i] = slotMin(d)
				continue
			}
			sl := s[base : base+L][:len(d)]
			r1 := t.pairRow(labs[row+x-1])[:len(d)]
			r2 := t.pairRow(labs[row+x+1])[:len(d)]
			r3 := t.pairRow(labs[up+x])[:len(d)]
			r4 := t.pairRow(labs[down+x])[:len(d)]
			// Four labels per round: the unrolled sum runs faster than the
			// one-label loop, and the minimum's compares, rarely taken once
			// it has settled, ride along.
			m := math.Inf(1)
			l := 0
			for ; l+4 <= len(d); l += 4 {
				d4 := d[l : l+4 : l+4]
				s4, a4, b4, c4, e4 := sl[l:l+4:l+4], r1[l:l+4:l+4], r2[l:l+4:l+4], r3[l:l+4:l+4], r4[l:l+4:l+4]
				v0 := float64(s4[0]) + a4[0] + b4[0] + c4[0] + e4[0]
				v1 := float64(s4[1]) + a4[1] + b4[1] + c4[1] + e4[1]
				v2 := float64(s4[2]) + a4[2] + b4[2] + c4[2] + e4[2]
				v3 := float64(s4[3]) + a4[3] + b4[3] + c4[3] + e4[3]
				d4[0], d4[1], d4[2], d4[3] = v0, v1, v2, v3
				m = minStep(minStep(minStep(minStep(m, v0), v1), v2), v3)
			}
			for ; l < len(d); l++ {
				v := float64(sl[l]) + r1[l] + r2[l] + r3[l] + r4[l]
				d[l] = v
				m = minStep(m, v)
			}
			mins[i] = m
		}
	}
}

// minStep folds e into the running minimum m. A NaN pins m at −Inf, which
// no later energy compares below.
func minStep(m, e float64) float64 {
	if !(e >= m) {
		m = e
		if e != e {
			m = math.Inf(-1)
		}
	}
	return m
}

// slotMin returns the smallest energy of one slot, or −Inf when it holds a
// NaN.
func slotMin(d []float64) float64 {
	m := math.Inf(1)
	for _, e := range d {
		m = minStep(m, e)
	}
	return m
}

// LabelEnergiesRow fills dst (length W×Labels) with the candidate-label
// energies of every pixel in row y — the serial fused sweep's gather. It
// reads the float form, building it on first use.
func (t *Tables) LabelEnergiesRow(dst []float64, lab *img.Labels, y int) {
	labelEnergiesSeg(t, t.FloatSingles(), dst, lab, y, 0, 1, t.p.W)
}

// Labels returns the label count of the problem the tables were built from.
func (t *Tables) Labels() int { return t.p.Labels }

// FlipDelta returns the change in total MRF energy from relabeling pixel
// (x, y) from `from` to `to`, with every neighbor keeping its current label:
// the singleton difference plus one pairwise difference per incident edge.
// Each edge's terms index Pair exactly as TotalEnergy does — edges where
// (x, y) is the right/bottom endpoint use Pair[flipped*L+nb], edges where it
// is the left/top endpoint use Pair[nb*L+flipped] — so no symmetry of the
// distance function is assumed. The caller may invoke it before or after
// writing the flip (only the neighbors are read). Maintaining the running
// energy as init + Σ FlipDelta makes per-sweep observability O(flips)
// instead of a full O(W·H·deg) TotalEnergy recomputation. It reads the two
// singles it needs from the float form when that has been built, and
// otherwise evaluates Singleton for them: the same values, so it never
// builds a form and a solve on the code form tracks the same energies.
func (t *Tables) FlipDelta(lab *img.Labels, x, y, from, to int) float64 {
	w, h, L := t.p.W, t.p.H, t.p.Labels
	i := y*w + x
	labs := lab.L
	pair := t.Pair
	var d float64
	if fs := t.builtFloats(); fs != nil {
		base := t.p.base(x, y)
		d = fs[base+to] - fs[base+from]
	} else {
		d = t.p.Singleton(x, y, to) - t.p.Singleton(x, y, from)
	}
	if x > 0 {
		nb := labs[i-1]
		d += pair[to*L+nb] - pair[from*L+nb]
	}
	if x+1 < w {
		nb := labs[i+1]
		d += pair[nb*L+to] - pair[nb*L+from]
	}
	if y > 0 {
		nb := labs[i-w]
		d += pair[to*L+nb] - pair[from*L+nb]
	}
	if y+1 < h {
		nb := labs[i+w]
		d += pair[nb*L+to] - pair[nb*L+from]
	}
	return d
}

// LabelEnergies fills dst with the energy of every candidate label at pixel
// (x, y) under the current labeling — the quantity the RSU-G energy stage
// computes (Eq. 1), from the Singleton and distance functions themselves:
// it reads no table, so the tests and the sharding battery's reference arm
// that check the Tables fast path against it share no code with it.
func (p *Problem) LabelEnergies(dst []float64, lab *img.Labels, x, y int) {
	for l := 0; l < p.Labels; l++ {
		e := p.Singleton(x, y, l)
		if x > 0 {
			e += p.PairWeight * p.pairDist(l, lab.At(x-1, y))
		}
		if x+1 < p.W {
			e += p.PairWeight * p.pairDist(l, lab.At(x+1, y))
		}
		if y > 0 {
			e += p.PairWeight * p.pairDist(l, lab.At(x, y-1))
		}
		if y+1 < p.H {
			e += p.PairWeight * p.pairDist(l, lab.At(x, y+1))
		}
		dst[l] = e
	}
}

// TotalEnergy returns the full MRF energy of a labeling from the cached
// tables — the same quantity as Problem.TotalEnergy, evaluated without the
// distance dispatch. Terms are accumulated in the same order as
// Problem.TotalEnergy, so for tables whose entries equal the
// directly-computed terms the result is bit-identical. Like FlipDelta it
// reads the float form when that has been built and otherwise evaluates
// Singleton.
func (t *Tables) TotalEnergy(lab *img.Labels) float64 {
	p := t.p
	if lab.W != p.W || lab.H != p.H {
		panic("mrf: labeling size mismatch")
	}
	fs := t.builtFloats()
	L := p.Labels
	var e float64
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			l := lab.At(x, y)
			if fs != nil {
				e += fs[p.base(x, y)+l]
			} else {
				e += p.Singleton(x, y, l)
			}
			if x+1 < p.W {
				e += t.Pair[lab.At(x+1, y)*L+l]
			}
			if y+1 < p.H {
				e += t.Pair[lab.At(x, y+1)*L+l]
			}
		}
	}
	return e
}

// TotalEnergy returns the full MRF energy of a labeling: the sum of all
// singletons plus each doubleton counted once.
func (p *Problem) TotalEnergy(lab *img.Labels) float64 {
	if lab.W != p.W || lab.H != p.H {
		panic("mrf: labeling size mismatch")
	}
	var e float64
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			l := lab.At(x, y)
			e += p.Singleton(x, y, l)
			if x+1 < p.W {
				e += p.PairWeight * p.pairDist(l, lab.At(x+1, y))
			}
			if y+1 < p.H {
				e += p.PairWeight * p.pairDist(l, lab.At(x, y+1))
			}
		}
	}
	return e
}
