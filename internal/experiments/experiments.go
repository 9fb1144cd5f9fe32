// Package experiments contains one driver per table and figure of the
// paper's evaluation, plus the ablations DESIGN.md calls out. Each driver
// returns a structured result whose String method renders the same rows or
// series the paper reports; cmd/rsu-bench and the repository benchmarks are
// thin wrappers around this package. EXPERIMENTS.md records paper-reported
// versus regenerated values.
package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"rsu/internal/apps/stereo"
	"rsu/internal/core"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/synth"
)

// Options tunes a driver run.
type Options struct {
	// Seed makes every run reproducible; samplers derive their streams
	// from it.
	Seed uint64
	// Scale grows the synthetic scenes (1 = experiment default).
	Scale int
	// IterScale multiplies annealing iteration counts; benches use < 1 to
	// bound run time. 0 means 1.
	IterScale float64
	// OutDir receives PGM renderings for the figure experiments; empty
	// disables file output.
	OutDir string
	// Workers bounds the experiment runner's design-point parallelism:
	// independent design points (sweep entries, datasets) fan across this
	// many goroutines. 0 = GOMAXPROCS, 1 = serial. Results are identical
	// for every worker count because each point derives its RNG stream
	// from subSeed of its own tag, never from evaluation order.
	Workers int
	// Ctx, when non-nil, bounds every solve the driver performs: when it is
	// cancelled or its deadline expires, the running solve aborts between
	// sweeps and the driver returns the context's error. nil means no bound.
	Ctx context.Context
}

// ctx resolves the run context.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) scale() int {
	if o.Scale < 1 {
		return 1
	}
	return o.Scale
}

func (o Options) iters(n int) int {
	f := o.IterScale
	if f <= 0 {
		f = 1
	}
	v := int(float64(n) * f)
	if v < 1 {
		v = 1
	}
	return v
}

// schedule applies IterScale to an annealing schedule while preserving its
// temperature ladder: the iteration count shrinks and Alpha is re-derived
// so the final temperature stays the same. Quick passes then behave like
// compressed versions of the full run instead of stopping mid-anneal.
func (o Options) schedule(s mrf.Schedule) mrf.Schedule {
	n := o.iters(s.Iterations)
	if n != s.Iterations && s.Alpha < 1 {
		s.Alpha = math.Pow(s.Alpha, float64(s.Iterations)/float64(n))
	}
	s.Iterations = n
	return s
}

// forEach runs fn(0) .. fn(n-1) over the option's worker pool. Callers
// write results into preallocated index-addressed slices, so the output is
// independent of scheduling; the first error (by index) is returned.
func (o Options) forEach(n int, fn func(i int) error) error {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := o.ctx().Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := o.ctx().Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// subSeed derives a reproducible per-task seed.
func (o Options) subSeed(tag string) uint64 {
	h := o.Seed ^ 0x9e3779b97f4a7c15
	for _, b := range []byte(tag) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return h
}

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) (fmt.Stringer, error)
}

// Registry lists every experiment in presentation order.
func Registry() []Runner {
	return []Runner{
		{"fig3", "Fig. 3: software-only vs previous RSU-G result quality", func(o Options) (fmt.Stringer, error) { return Fig3(o) }},
		{"fig4", "Fig. 4: software vs previous RSU-G disparity maps (PGM)", func(o Options) (fmt.Stringer, error) { return Fig4(o) }},
		{"energybits", "Sec. III-C-1: energy precision vs result quality", func(o Options) (fmt.Stringer, error) { return EnergyBits(o) }},
		{"fig5a", "Fig. 5a: result quality vs exponential decay rate precision", func(o Options) (fmt.Stringer, error) { return Fig5a(o) }},
		{"fig5b", "Fig. 5b: per-dataset quality at Lambda_bits = 4", func(o Options) (fmt.Stringer, error) { return Fig5b(o) }},
		{"fig6", "Fig. 6: teddy disparity maps, scaled vs full technique (PGM)", func(o Options) (fmt.Stringer, error) { return Fig6(o) }},
		{"fig7", "Fig. 7: probability-ratio error vs distribution truncation", func(o Options) (fmt.Stringer, error) { return Fig7(o) }},
		{"fig8", "Fig. 8: result quality over Time_bits x Truncation", func(o Options) (fmt.Stringer, error) { return Fig8(o) }},
		{"fig9a", "Fig. 9a: final stereo quality, new RSU-G vs software", func(o Options) (fmt.Stringer, error) { return Fig9a(o) }},
		{"fig9b", "Fig. 9b: teddy disparity map on the new RSU-G (PGM)", func(o Options) (fmt.Stringer, error) { return Fig9b(o) }},
		{"fig9c", "Fig. 9c: motion estimation end-point error", func(o Options) (fmt.Stringer, error) { return Fig9c(o) }},
		{"fig9d", "Fig. 9d: segmentation Variation of Information", func(o Options) (fmt.Stringer, error) { return Fig9d(o) }},
		{"table1", "Table I: std-dev of VoI across the 30 tested images", func(o Options) (fmt.Stringer, error) { return Table1(o) }},
		{"table2", "Table II: stereo execution time and speedups", func(o Options) (fmt.Stringer, error) { return Table2(o) }},
		{"table3", "Table III: new RSU-G area and power", func(o Options) (fmt.Stringer, error) { return Table3(o) }},
		{"table4", "Table IV: area vs alternative RNG designs + quality parity", func(o Options) (fmt.Stringer, error) { return Table4(o) }},
		{"accelerator", "Sec. II-C: discrete 336-unit accelerator speedups + parallel Gibbs", func(o Options) (fmt.Stringer, error) { return Accelerator(o) }},
		{"ablate-tiebreak", "Ablation: selection tie-break policy", func(o Options) (fmt.Stringer, error) { return AblateTieBreak(o) }},
		{"ablate-converter", "Ablation: LUT vs comparison converter", func(o Options) (fmt.Stringer, error) { return AblateConverter(o) }},
		{"ablate-pipeline", "Ablation: pipeline timing and temperature-update stalls", func(o Options) (fmt.Stringer, error) { return AblatePipeline(o) }},
		{"ablate-device", "Ablation: device-level machine vs functional unit", func(o Options) (fmt.Stringer, error) { return AblateDevice(o) }},
		{"ext-barker", "Extension: Barker/Metropolis sampling unit", func(o Options) (fmt.Stringer, error) { return Barker(o) }},
		{"ext-phasetype", "Extension: phase-type (Erlang) sampling on the RET substrate", func(o Options) (fmt.Stringer, error) { return PhaseType(o) }},
		{"ext-pyramid", "Extension: image-pyramid motion beyond 64 labels", func(o Options) (fmt.Stringer, error) { return Pyramid(o) }},
		{"ext-bleaching", "Extension: photo-bleaching drift and mitigation", func(o Options) (fmt.Stringer, error) { return Bleaching(o) }},
		{"ext-forster", "Extension: exciton-level validation of the RET abstraction", func(o Options) (fmt.Stringer, error) { return Forster(o) }},
		{"ext-pareto", "Extension: cost/quality synthesis of the Fig. 8 diagonal", func(o Options) (fmt.Stringer, error) { return Pareto(o) }},
		{"ext-mixing", "Extension: MCMC mixing diagnostics across samplers", func(o Options) (fmt.Stringer, error) { return Mixing(o) }},
		{"ext-rng", "Extension: RNG statistical battery and LFSR period exposure", func(o Options) (fmt.Stringer, error) { return RNGBattery(o) }},
		{"ext-ising", "Extension: 2-D Ising magnetization across the phase transition", func(o Options) (fmt.Stringer, error) { return Ising(o) }},
		{"fault-sweep", "Extension: result quality vs injected device-fault rate", func(o Options) (fmt.Stringer, error) { return FaultSweep(o) }},
	}
}

// Lookup returns the runner with the given id.
func Lookup(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// --- shared helpers ---

// stereoParams returns the tuned stereo parameters with iteration scaling
// and the run context threaded through.
func stereoParams(o Options) stereo.Params {
	p := stereo.DefaultParams()
	p.Schedule = o.schedule(p.Schedule)
	p.Ctx = o.Ctx
	return p
}

// runStereoWith solves one pair with a sampler built from cfg (or the
// software baseline when cfg is nil) and returns the bad-pixel percentage.
func runStereoWith(o Options, pair *synth.StereoPair, cfg *core.Config, tag string) (*stereo.Result, error) {
	p := stereoParams(o)
	var s core.LabelSampler
	src := rng.NewXoshiro256(o.subSeed(tag + pair.Name))
	if cfg == nil {
		s = core.NewSoftwareSampler(src)
	} else {
		u, err := core.NewUnit(*cfg, src, true)
		if err != nil {
			return nil, err
		}
		s = u
	}
	return stereo.Solve(pair, s, p)
}

// table renders rows of labeled float columns with a fixed precision.
type table struct {
	title   string
	columns []string
	rows    []tableRow
	prec    int
	notes   []string
}

type tableRow struct {
	name string
	vals []float64
}

func (t *table) add(name string, vals ...float64) {
	t.rows = append(t.rows, tableRow{name, vals})
}

func (t *table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.title)
	prec := t.prec
	if prec == 0 {
		prec = 2
	}
	w := 12
	fmt.Fprintf(&b, "%-24s", "")
	for _, c := range t.columns {
		fmt.Fprintf(&b, "%*s", w, c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-24s", r.name)
		for _, v := range r.vals {
			fmt.Fprintf(&b, "%*.*f", w, prec, v)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// meanStd returns the mean and population standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std /= float64(len(xs))
	return mean, math.Sqrt(std)
}
