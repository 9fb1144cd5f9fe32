package conformance

import (
	"fmt"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/uq"
)

// MarginalGrid is one tiny-grid design point of the posterior-marginal
// battery: an MRF small enough (n = W·H pixels, K = Labels) that the full
// K^n configuration space enumerates exactly. The exact engine pushes a
// distribution vector over all configurations through the solver's per-site
// update kernels (ExpectedOutcome), so the uq estimates from real solver
// runs can be chi-square-checked against ground truth — including the
// transient after a small number of sweeps, not just the stationary law.
//
// Singles and PairWeight are kept integer-valued so the energies every site
// update sees are exact in both the solver's Tables path and the direct
// evaluation here — no float round-off can straddle a quantizer boundary
// and silently fork the two computations.
type MarginalGrid struct {
	Name string
	W, H int
	// Labels is the label count K.
	Labels int
	// Singles is the data term, [site][label] with site = y*W + x.
	Singles [][]float64
	// PairWeight scales the absolute label distance between 4-neighbors
	// (mrf.Absolute, no truncation).
	PairWeight float64
	// T is the fixed sampling temperature (the battery runs Alpha = 1).
	T float64
	// Sweeps is the number of Gibbs sweeps per replicate chain.
	Sweeps int
}

// DefaultMarginalGrids returns the 1×2 and 2×2 grids the gate runs: the
// smallest chains with a pairwise interaction, and the smallest where the
// serial raster order and the checkerboard color order genuinely differ.
func DefaultMarginalGrids() []MarginalGrid {
	return []MarginalGrid{
		{
			Name: "1x2", W: 2, H: 1, Labels: 3,
			Singles:    [][]float64{{0, 6, 12}, {10, 2, 4}},
			PairWeight: 4, T: 8, Sweeps: 3,
		},
		{
			Name: "2x2", W: 2, H: 2, Labels: 3,
			Singles:    [][]float64{{0, 6, 12}, {10, 2, 4}, {3, 9, 0}, {5, 5, 1}},
			PairWeight: 3, T: 8, Sweeps: 3,
		},
	}
}

// Problem builds the grid's mrf.Problem — the instance the real solver runs.
func (g MarginalGrid) Problem() *mrf.Problem {
	singles := g.Singles
	w := g.W
	return &mrf.Problem{
		W: g.W, H: g.H, Labels: g.Labels,
		Singleton:  func(x, y, l int) float64 { return singles[y*w+x][l] },
		PairWeight: g.PairWeight,
		Dist:       mrf.Absolute,
	}
}

// sites returns the pixel count n.
func (g MarginalGrid) sites() int { return g.W * g.H }

// states returns K^n, the configuration-space size.
func (g MarginalGrid) states() int {
	s := 1
	for i := 0; i < g.sites(); i++ {
		s *= g.Labels
	}
	return s
}

// siteOrder returns the per-sweep site update order: the raster scan of the
// serial solver, or the checkerboard color order of the tile engine (color 0
// then color 1, each in raster order — within a color no two sites neighbor,
// so any sequentialization has the tile engine's distribution).
func (g MarginalGrid) siteOrder(checkerboard bool) []int {
	if !checkerboard {
		order := make([]int, g.sites())
		for i := range order {
			order[i] = i
		}
		return order
	}
	var order []int
	for color := 0; color < 2; color++ {
		for y := 0; y < g.H; y++ {
			for x := (y + color) % 2; x < g.W; x += 2 {
				order = append(order, y*g.W+x)
			}
		}
	}
	return order
}

// siteEnergies fills dst (length Labels) with the candidate energies of one
// site under configuration labs, mirroring Problem.LabelEnergies directly
// from the grid definition — the exact engine shares no table code with the
// solver, so a Tables bug cannot cancel out of the comparison.
func (g MarginalGrid) siteEnergies(dst []float64, labs []int, site int) {
	x, y := site%g.W, site/g.W
	for l := 0; l < g.Labels; l++ {
		e := g.Singles[site][l]
		if x > 0 {
			e += g.PairWeight * mrf.Distance(mrf.Absolute, l, labs[site-1])
		}
		if x < g.W-1 {
			e += g.PairWeight * mrf.Distance(mrf.Absolute, l, labs[site+1])
		}
		if y > 0 {
			e += g.PairWeight * mrf.Distance(mrf.Absolute, l, labs[site-g.W])
		}
		if y < g.H-1 {
			e += g.PairWeight * mrf.Distance(mrf.Absolute, l, labs[site+g.W])
		}
		dst[l] = e
	}
}

// exactDist pushes the all-zero initial point mass through Sweeps exact
// sweep operators (per-site updates in the given order, each the analytic
// ExpectedOutcome of one Unit.Sample call) and returns the distribution over
// all K^n configurations — the law of the labeling a replicate chain holds
// after its final sweep. A kept race (no label fires) folds onto the site's
// current label, exactly as the solver-level Sample contract does.
func exactDist(g MarginalGrid, cfg core.Config, T float64, order []int) ([]float64, error) {
	n, K := g.sites(), g.Labels
	pow := make([]int, n)
	pow[0] = 1
	for i := 1; i < n; i++ {
		pow[i] = pow[i-1] * K
	}
	d := make([]float64, g.states())
	d[0] = 1 // the solver's all-zero init
	next := make([]float64, len(d))
	labs := make([]int, n)
	energies := make([]float64, K)
	for sweep := 0; sweep < g.Sweeps; sweep++ {
		for _, site := range order {
			for i := range next {
				next[i] = 0
			}
			for s, p := range d {
				if p == 0 {
					continue
				}
				t := s
				for i := 0; i < n; i++ {
					labs[i] = t % K
					t /= K
				}
				g.siteEnergies(energies, labs, site)
				out, err := ExpectedOutcome(cfg, T, energies)
				if err != nil {
					return nil, err
				}
				cur := labs[site]
				for l := 0; l < K; l++ {
					q := out.Win[l]
					if l == cur {
						q += out.Keep
					}
					if q == 0 {
						continue
					}
					next[s+(l-cur)*pow[site]] += p * q
				}
			}
			d, next = next, d
		}
	}
	return d, nil
}

// exactMarginal reduces a configuration distribution to one site's marginal.
func exactMarginal(g MarginalGrid, dist []float64, site int) []float64 {
	K := g.Labels
	pow := 1
	for i := 0; i < site; i++ {
		pow *= K
	}
	m := make([]float64, K)
	for s, p := range dist {
		m[(s/pow)%K] += p
	}
	return m
}

// jointCollector is the battery's mrf.Collector: it drives the production
// uq.Accumulator (so the per-pixel histograms under test come from the real
// collection path) and additionally counts full joint configurations, which
// the per-pixel marginals alone cannot distinguish.
type jointCollector struct {
	acc    *uq.Accumulator
	burnIn int
	labels int
	joint  []float64
}

func (c *jointCollector) Collect(sweep int, lab *img.Labels) {
	c.acc.Collect(sweep, lab)
	if sweep < c.burnIn {
		return
	}
	s := 0
	for i := len(lab.L) - 1; i >= 0; i-- {
		s = s*c.labels + lab.L[i]
	}
	c.joint[s]++
}

// MarginalPoint is one configuration cell of the marginal battery.
type MarginalPoint struct {
	Name   string
	Config core.Config
}

// DefaultMarginalPoints spans all four sampling kernel paths and both
// tie-break policies (ties only exist on the binned-time kernels; the
// continuous paths have tie probability zero).
func DefaultMarginalPoints() []MarginalPoint {
	firstWins := core.NewRSUG()
	firstWins.Name = "new-RSUG-tie-first"
	firstWins.Tie = core.TieFirstWins
	return []MarginalPoint{
		{Name: "new-rsug", Config: core.NewRSUG()},
		{Name: "new-rsug-tie-first", Config: firstWins},
		{Name: "float-energy-codes", Config: core.Config{
			Name:       "float-energy-codes",
			LambdaBits: 4, Mode: core.ConvertScaledCutoff,
			TimeBits: 5, Truncation: 0.05, Tie: core.TieRandom}},
		{Name: "binned-float-tie-first", Config: core.Config{
			Name: "binned-float-tie-first", Mode: core.ConvertScaled,
			TimeBits: 6, Truncation: 0.05, Tie: core.TieFirstWins}},
		{Name: "float-reference", Config: core.FloatReference()},
	}
}

// MarginalOptions tunes a RunMarginalBattery call.
type MarginalOptions struct {
	// Replicates is the number of independent chains per (grid, point,
	// solver) cell; each contributes exactly one iid sample (the labeling
	// after its final sweep) to the pooled histograms. 0 means 2000.
	Replicates int
	// Alpha is the total false-rejection budget, Bonferroni-split across all
	// tests. 0 means 1e-3.
	Alpha float64
	// Seed derives every sampler's RNG stream.
	Seed uint64
}

// marginalSolvers are the solvers each cell runs: the serial raster solver
// and the tile engine at two workers (two tiles, so the color order is
// really exercised).
var marginalSolvers = []struct {
	name         string
	checkerboard bool
}{
	{"serial", false},
	{"parallel", true},
}

// RunMarginalBattery chi-squares uq posterior-marginal estimates against
// exact enumeration on every (grid, configuration, solver) cell. Each cell
// runs Replicates independent solver chains from the all-zero labeling; a
// shared uq.Accumulator with BurnIn = Sweeps-1 collects exactly the final
// labeling of each chain, so the pooled histograms are iid draws from the
// exact transient distribution — correlated within-chain samples would
// invalidate the chi-square and are deliberately excluded. Per pixel, the
// accumulator's histogram is tested against the exact marginal; the joint
// configuration counts (which per-pixel marginals cannot distinguish) are
// tested against the full exact distribution. The returned error reports
// setup problems, not statistical failures; gate on report.Failures().
func RunMarginalBattery(grids []MarginalGrid, points []MarginalPoint, o MarginalOptions) (*Report, error) {
	if o.Replicates <= 0 {
		o.Replicates = 2000
	}
	if o.Alpha <= 0 {
		o.Alpha = 1e-3
	}
	tests := 0
	for _, g := range grids {
		tests += len(points) * len(marginalSolvers) * (g.sites() + 1)
	}
	if tests == 0 {
		return nil, fmt.Errorf("conformance: empty marginal battery")
	}
	rep := &Report{Threshold: o.Alpha / float64(tests)}

	stream := 0
	for _, pt := range points {
		path := KernelPath(pt.Config)
		for _, g := range grids {
			prob := g.Problem()
			sched := mrf.Schedule{T0: g.T, Alpha: 1, Iterations: g.Sweeps}
			for _, sv := range marginalSolvers {
				exact, err := exactDist(g, pt.Config, g.T, g.siteOrder(sv.checkerboard))
				if err != nil {
					return nil, fmt.Errorf("conformance: marginals %s/%s: %w", pt.Name, g.Name, err)
				}
				// One sampler per logical worker, reused across replicates:
				// the draws are iid, so consecutive chains from one stream
				// are independent, and stream reuse keeps setup cheap.
				workers := 1
				if sv.checkerboard {
					workers = 2
				}
				samplers := make([]core.LabelSampler, workers)
				for w := range samplers {
					u, err := core.NewUnit(pt.Config, rng.NewXoshiro256(core.StreamSeed(o.Seed, stream)), true)
					if err != nil {
						return nil, fmt.Errorf("conformance: marginals %s: %w", pt.Name, err)
					}
					samplers[w] = u
					stream++
				}
				acc, err := uq.NewAccumulator(g.W, g.H, g.Labels, uq.Options{BurnIn: g.Sweeps - 1, Thin: 1})
				if err != nil {
					return nil, fmt.Errorf("conformance: marginals %s/%s: %w", pt.Name, g.Name, err)
				}
				col := &jointCollector{acc: acc, burnIn: g.Sweeps - 1, labels: g.Labels, joint: make([]float64, g.states())}
				opts := mrf.SolveOptions{Init: img.NewLabels(g.W, g.H), Collector: col, Workers: workers}
				factory := func(w int) core.LabelSampler { return samplers[w] }
				for ri := 0; ri < o.Replicates; ri++ {
					if _, err := mrf.SolveAuto(prob, factory, sched, opts); err != nil {
						return nil, fmt.Errorf("conformance: marginals %s/%s/%s: %w", pt.Name, g.Name, sv.name, err)
					}
				}
				if acc.Samples() != o.Replicates {
					return nil, fmt.Errorf("conformance: marginals %s/%s/%s: collected %d samples, want %d",
						pt.Name, g.Name, sv.name, acc.Samples(), o.Replicates)
				}

				// Joint configuration test. conformanceP expects an Outcome
				// with a trailing keep cell; a zero-mass keep cell pools away.
				obs := append(append([]float64(nil), col.joint...), 0)
				p, ok := conformanceP(obs, Outcome{Win: exact}, o.Replicates)
				cellName := fmt.Sprintf("%s/%s/%s", pt.Name, g.Name, sv.name)
				rep.Checks = append(rep.Checks, Check{
					Name: cellName + " joint", Path: path,
					N: o.Replicates, P: p, Skipped: !ok,
				})
				// Per-pixel marginal tests against the production
				// accumulator's histograms.
				for site := 0; site < g.sites(); site++ {
					hist := acc.Histogram(site%g.W, site/g.W)
					obs := make([]float64, g.Labels+1)
					for l, c := range hist {
						obs[l] = float64(c)
					}
					p, ok := conformanceP(obs, Outcome{Win: exactMarginal(g, exact, site)}, o.Replicates)
					rep.Checks = append(rep.Checks, Check{
						Name: fmt.Sprintf("%s pixel(%d,%d)", cellName, site%g.W, site/g.W),
						Path: path, N: o.Replicates, P: p, Skipped: !ok,
					})
				}
			}
		}
	}
	return rep, nil
}
