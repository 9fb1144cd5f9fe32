// Package uq is the uncertainty-quantification subsystem: it turns the
// label samples the MCMC solver draws from the Gibbs posterior — and until
// now discarded — into per-pixel posterior marginals, entropy and confidence
// maps, MAP-vs-marginal-mode disagreement masks, and credible label sets.
//
// The RSU is a sampling machine: every sweep of the solver is one draw from
// (an approximation of) the posterior over labelings, and follow-up work on
// sampling-based MRF accelerators treats the per-pixel marginal distribution
// as the accelerator's key deliverable, not just the final MAP estimate.
// An Accumulator implements mrf.Collector; attached through
// mrf.SolveOptions.Collector it histograms the labeling after every
// collected sweep (past a burn-in, with optional thinning) at O(W·H) integer
// increments per sweep and zero steady-state allocations. Estimation is a
// separate, pure step (Estimate), so collection can run inside the solver's
// hot loop while the estimator math stays testable against exact enumeration
// (internal/conformance's marginal battery).
package uq

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rsu/internal/img"
)

// Options configures posterior sample collection.
type Options struct {
	// BurnIn is the number of leading sweeps discarded before collection
	// begins. Negative selects the default: half the run's sweeps, the
	// usual discard for a chain whose start is far from equilibrium.
	BurnIn int
	// Thin collects every Thin-th sweep after burn-in (sweep k is collected
	// when k >= BurnIn and (k - BurnIn) % Thin == 0). 0 or 1 collects every
	// post-burn-in sweep. Thinning trades sample count against sample
	// autocorrelation; it never changes the solver's label trace.
	Thin int
}

// Resolve maps the options onto a concrete run of `iterations` sweeps:
// negative BurnIn becomes iterations/2, zero Thin becomes 1, and a burn-in
// that would leave no sweep to collect is an error.
func (o Options) Resolve(iterations int) (Options, error) {
	if iterations <= 0 {
		return Options{}, fmt.Errorf("uq: run has %d sweeps", iterations)
	}
	if o.BurnIn < 0 {
		o.BurnIn = iterations / 2
	}
	if o.Thin <= 0 {
		o.Thin = 1
	}
	if o.BurnIn >= iterations {
		return Options{}, fmt.Errorf("uq: burn-in %d discards all %d sweeps", o.BurnIn, iterations)
	}
	return o, nil
}

// NewForRun resolves o against a run of `iterations` sweeps (see
// Options.Resolve) and returns the accumulator for a W×H problem with the
// given label count — the one-liner every application driver shares.
func NewForRun(o Options, w, h, labels, iterations int) (*Accumulator, error) {
	ro, err := o.Resolve(iterations)
	if err != nil {
		return nil, err
	}
	return NewAccumulator(w, h, labels, ro)
}

// Accumulator collects per-pixel label histograms from solver sweeps. It
// implements mrf.Collector; the same value may be reused across several
// solves of identically-sized problems (the conformance battery pools many
// independent chains into one accumulator this way). Collect runs on the
// goroutine driving the solve, so no internal locking is needed.
type Accumulator struct {
	w, h, labels int
	opts         Options
	counts       []uint32 // (y*w+x)*labels + l
	samples      int
	elapsed      time.Duration // cumulative Collect time, for overhead metrics
}

// NewAccumulator returns an accumulator for a W×H problem with the given
// label count. opts must already be resolved (Options.Resolve) or carry
// explicit non-negative values.
func NewAccumulator(w, h, labels int, opts Options) (*Accumulator, error) {
	if w <= 0 || h <= 0 || labels < 2 {
		return nil, fmt.Errorf("uq: invalid accumulator shape %dx%d with %d labels", w, h, labels)
	}
	if opts.BurnIn < 0 {
		return nil, fmt.Errorf("uq: unresolved negative burn-in %d (call Options.Resolve)", opts.BurnIn)
	}
	if opts.Thin <= 0 {
		opts.Thin = 1
	}
	return &Accumulator{
		w: w, h: h, labels: labels, opts: opts,
		counts: make([]uint32, w*h*labels),
	}, nil
}

// Collect implements mrf.Collector: sweeps before the burn-in and off the
// thinning stride return immediately; collected sweeps add one count per
// pixel. The labeling is read, never retained — the solver may keep mutating
// its buffer after Collect returns.
func (a *Accumulator) Collect(sweep int, lab *img.Labels) {
	if sweep < a.opts.BurnIn || (sweep-a.opts.BurnIn)%a.opts.Thin != 0 {
		return
	}
	start := time.Now()
	if lab.W != a.w || lab.H != a.h {
		panic(fmt.Sprintf("uq: labeling %dx%d does not match accumulator %dx%d", lab.W, lab.H, a.w, a.h))
	}
	L := a.labels
	for i, l := range lab.L {
		a.counts[i*L+l]++
	}
	a.samples++
	a.elapsed += time.Since(start)
}

// Samples returns the number of labelings collected so far.
func (a *Accumulator) Samples() int { return a.samples }

// Histogram returns the raw label counts of pixel (x, y) — the conformance
// battery chi-squares these against exact enumeration.
func (a *Accumulator) Histogram(x, y int) []uint32 {
	base := (y*a.w + x) * a.labels
	return a.counts[base : base+a.labels]
}

// Estimate turns the collected histograms into a Result. It errors when no
// sample was collected (burn-in past the end of the run, or Collect never
// invoked).
func (a *Accumulator) Estimate() (*Result, error) {
	if a.samples == 0 {
		return nil, fmt.Errorf("uq: no samples collected (burn-in %d, thin %d)", a.opts.BurnIn, a.opts.Thin)
	}
	r := &Result{
		W: a.w, H: a.h, Labels: a.labels,
		Samples: a.samples, BurnIn: a.opts.BurnIn, Thin: a.opts.Thin,
		Marginals:      make([]float64, len(a.counts)),
		CollectSeconds: a.elapsed.Seconds(),
	}
	inv := 1 / float64(a.samples)
	for i, c := range a.counts {
		r.Marginals[i] = float64(c) * inv
	}
	return r, nil
}

// Result holds the posterior marginal estimates of one collection run. All
// derived maps (mode, entropy, confidence) are pure functions of Marginals.
type Result struct {
	W, H, Labels int
	// Samples is the number of collected labelings; BurnIn and Thin record
	// the collection policy that produced them.
	Samples      int
	BurnIn, Thin int
	// Marginals is the per-pixel posterior marginal estimate, indexed
	// (y*W+x)*Labels + l. Every pixel's row sums to 1.
	Marginals []float64
	// CollectSeconds is the cumulative wall-clock time Collect spent, the
	// measured collection overhead the serving layer exports. After a
	// checkpoint resume it covers the resumed segment only: snapshots carry
	// no measured time.
	CollectSeconds float64
}

// Marginal returns pixel (x, y)'s marginal distribution (length Labels).
func (r *Result) Marginal(x, y int) []float64 {
	base := (y*r.W + x) * r.Labels
	return r.Marginals[base : base+r.Labels]
}

// Mode returns the marginal-mode labeling: per pixel, the label with the
// largest posterior marginal (ties resolved to the lowest label index, so
// the map is deterministic).
func (r *Result) Mode() *img.Labels {
	mode := img.NewLabels(r.W, r.H)
	L := r.Labels
	for i := 0; i < r.W*r.H; i++ {
		row := r.Marginals[i*L : i*L+L]
		best, bestP := 0, row[0]
		for l := 1; l < L; l++ {
			if row[l] > bestP {
				best, bestP = l, row[l]
			}
		}
		mode.L[i] = best
	}
	return mode
}

// Entropy returns the per-pixel posterior entropy in bits (0 for a
// concentrated marginal, log2(Labels) for uniform), row-major.
func (r *Result) Entropy() []float64 {
	L := r.Labels
	out := make([]float64, r.W*r.H)
	for i := range out {
		var h float64
		for _, p := range r.Marginals[i*L : i*L+L] {
			if p > 0 {
				h -= p * math.Log2(p)
			}
		}
		out[i] = h
	}
	return out
}

// Confidence returns the per-pixel confidence map: the largest marginal
// probability of each pixel, in (0, 1], row-major. 1 means every collected
// sample agreed on the label.
func (r *Result) Confidence() []float64 {
	L := r.Labels
	out := make([]float64, r.W*r.H)
	for i := range out {
		best := 0.0
		for _, p := range r.Marginals[i*L : i*L+L] {
			if p > best {
				best = p
			}
		}
		out[i] = best
	}
	return out
}

// MeanConfidence returns the mean of the confidence map — the scalar the
// fault layer's degradation verdict thresholds on (fault.DegradedConfidence).
func (r *Result) MeanConfidence() float64 {
	conf := r.Confidence()
	if len(conf) == 0 {
		return 0
	}
	var sum float64
	for _, c := range conf {
		sum += c
	}
	return sum / float64(len(conf))
}

// ConfidenceGray renders the confidence map as a grayscale image (255 =
// fully confident), the PGM artifact the CLIs emit.
func (r *Result) ConfidenceGray() *img.Gray {
	g := img.NewGray(r.W, r.H)
	for i, c := range r.Confidence() {
		g.Pix[i] = 255 * c
	}
	return g
}

// EntropyGray renders the entropy map normalized by the maximum possible
// entropy log2(Labels) (255 = maximally uncertain).
func (r *Result) EntropyGray() *img.Gray {
	g := img.NewGray(r.W, r.H)
	hmax := math.Log2(float64(r.Labels))
	for i, h := range r.Entropy() {
		g.Pix[i] = 255 * h / hmax
	}
	return g.Clamp255()
}

// Disagreement compares a point estimate (typically the solver's final MAP
// labeling) against the marginal mode: it returns the number of disagreeing
// pixels and a 0/1 mask of them. Disagreement flags pixels where the single
// returned label is not the one the posterior actually favors — exactly the
// pixels a downstream consumer should distrust.
func (r *Result) Disagreement(point *img.Labels) (int, *img.Labels, error) {
	if point.W != r.W || point.H != r.H {
		return 0, nil, fmt.Errorf("uq: point estimate %dx%d does not match marginals %dx%d", point.W, point.H, r.W, r.H)
	}
	mode := r.Mode()
	mask := img.NewLabels(r.W, r.H)
	n := 0
	for i := range mask.L {
		if point.L[i] != mode.L[i] {
			mask.L[i] = 1
			n++
		}
	}
	return n, mask, nil
}

// CredibleSet returns the smallest set of labels whose accumulated marginal
// mass at pixel (x, y) reaches `mass` (e.g. 0.9), ordered by decreasing
// probability. Ties order by label index, so the set is deterministic.
func (r *Result) CredibleSet(x, y int, mass float64) []int {
	row := r.Marginal(x, y)
	idx := make([]int, len(row))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return row[idx[a]] > row[idx[b]] })
	var acc float64
	for n, l := range idx {
		acc += row[l]
		if acc >= mass {
			return idx[:n+1]
		}
	}
	return idx
}

// Summary condenses a Result (and optionally a point estimate for the
// disagreement rate) into the flat JSON record the CLIs and the serving
// layer emit.
type Summary struct {
	Samples int `json:"samples"`
	BurnIn  int `json:"burn_in"`
	Thin    int `json:"thin"`
	// MeanConfidence / MinConfidence summarize the confidence map.
	MeanConfidence float64 `json:"mean_confidence"`
	MinConfidence  float64 `json:"min_confidence"`
	// MeanEntropyBits / MaxEntropyBits summarize the entropy map.
	MeanEntropyBits float64 `json:"mean_entropy_bits"`
	MaxEntropyBits  float64 `json:"max_entropy_bits"`
	// DisagreementPct is the share of pixels whose point estimate differs
	// from the marginal mode, in percent (0 when no point estimate given).
	DisagreementPct float64 `json:"disagreement_pct"`
	// Credible90MeanSize is the mean size of the 90% credible label sets —
	// 1 everywhere means the posterior is essentially deterministic.
	Credible90MeanSize float64 `json:"credible90_mean_size"`
	// CollectSeconds is the measured collection overhead.
	CollectSeconds float64 `json:"collect_seconds"`
}

// Summarize builds the Summary. point may be nil (disagreement reported 0).
func (r *Result) Summarize(point *img.Labels) (Summary, error) {
	s := Summary{
		Samples: r.Samples, BurnIn: r.BurnIn, Thin: r.Thin,
		MinConfidence:  1,
		CollectSeconds: r.CollectSeconds,
	}
	n := float64(r.W * r.H)
	for _, c := range r.Confidence() {
		s.MeanConfidence += c
		if c < s.MinConfidence {
			s.MinConfidence = c
		}
	}
	s.MeanConfidence /= n
	for _, h := range r.Entropy() {
		s.MeanEntropyBits += h
		if h > s.MaxEntropyBits {
			s.MaxEntropyBits = h
		}
	}
	s.MeanEntropyBits /= n
	var setSize int
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			setSize += len(r.CredibleSet(x, y, 0.9))
		}
	}
	s.Credible90MeanSize = float64(setSize) / n
	if point != nil {
		d, _, err := r.Disagreement(point)
		if err != nil {
			return Summary{}, err
		}
		s.DisagreementPct = 100 * float64(d) / n
	}
	return s, nil
}

// WriteArtifacts writes the confidence and entropy maps as PGMs plus the
// JSON summary into dir, named <name>_confidence.pgm, <name>_entropy.pgm and
// <name>_uq.json — the CLI output contract. point may be nil.
func (r *Result) WriteArtifacts(dir, name string, point *img.Labels) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for suffix, g := range map[string]*img.Gray{
		"_confidence.pgm": r.ConfidenceGray(),
		"_entropy.pgm":    r.EntropyGray(),
	} {
		p := filepath.Join(dir, name+suffix)
		if err := img.SavePGM(p, g); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	sum, err := r.Summarize(point)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return nil, err
	}
	p := filepath.Join(dir, name+"_uq.json")
	if err := os.WriteFile(p, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	paths = append(paths, p)
	sort.Strings(paths)
	return paths, nil
}
