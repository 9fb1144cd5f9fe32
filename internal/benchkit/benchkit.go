// Package benchkit measures the repository's performance-critical kernels:
// the RSU-G sampling kernels, the energy gathers, the batched draw, the
// incremental energy and the annealing ladder. Each kernel is timed against
// a frozen calibration loop in short interleaved rounds, so a report records
// how many calibration ops one kernel op costs — a number that holds still
// while the host's speed drifts, and that a checked-in baseline can gate.
// cmd/rsu-bench -perf runs the suite and writes the machine-readable
// BENCH_<n>.json report; -perf-check gates a fresh run against one.
package benchkit

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"rsu/internal/apps/stereo"
	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/synth"
)

// Schema identifies the report format.
const Schema = "rsu-bench-perf/v2"

// Result is one kernel's measurement. NsOp and CalNsOp are the medians over
// the rounds of the kernel's and the calibration loop's ns/op; Scaled is the
// median over the rounds of their per-round ratio — the kernel's ns/op in
// units of one calibration op, the number the gate compares.
type Result struct {
	Name    string  `json:"name"`
	NsOp    float64 `json:"ns_op"`
	CalNsOp float64 `json:"cal_ns_op"`
	Scaled  float64 `json:"scaled"`
}

// Report is the full suite output, with the host it ran on. The suite is
// single-threaded; GOMAXPROCS is left as the host sets it.
type Report struct {
	Schema     string   `json:"schema"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchmarks []Result `json:"benchmarks"`
}

const (
	// epochs is the number of fresh starts the rounds are split over; see
	// Run.
	epochs = 8
	// roundsPerEpoch is the number of rounds in each; a round times every
	// kernel once, next to one calibration run. Spreading a kernel's rounds
	// over the whole suite keeps one slow stretch of the host from deciding
	// its median.
	roundsPerEpoch = 25
	// roundTime is the target length of one timed run. Short runs keep each
	// calibration run next to its kernel run, so both see the same host
	// speed.
	roundTime = time.Millisecond
)

// calWords is the calibration table's length: 32768 float64s, 256 KiB —
// past L1 and inside L2 on common hosts, like the stereo scene's tables.
const calWords = 1 << 15

// calLabels is the width of one calibration op's gather and draw.
const calLabels = 56

// calibration is the suite's yardstick: a frozen loop shaped like the
// sampler's work — a 5-row gather over a 256 KiB table like a pixel's energy
// gather, one xoshiro256** uniform and compare per label like a TTF draw,
// and a dependent polynomial chain like a libm call. It calls no program
// code, so a change to the program never moves it; changing it rescales
// every checked-in baseline. Its scratch row lives in the same allocation as
// the table, so their relative placement, which store-to-load aliasing
// depends on, is the same in every process.
type calibration struct {
	table [calWords]float64
	dst   [calLabels]float64
	state [4]uint64
	hits  int
	sink  float64
}

func newCalibration() *calibration {
	c := &calibration{state: [4]uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 1}}
	for i := range c.table {
		c.table[i] = float64(i & 255)
	}
	return c
}

// run performs n calibration ops.
func (c *calibration) run(n int) {
	t, dst := &c.table, &c.dst
	s0, s1, s2, s3 := c.state[0], c.state[1], c.state[2], c.state[3]
	hits, acc := c.hits, 0.0
	for i := 0; i < n; i++ {
		base := (i * 977) & (calWords - 1024)
		for l := range dst {
			dst[l] = t[base+l] + t[base+64+l] + t[base+128+l] + t[base+256+l] + t[base+512+l]
		}
		for l := range dst {
			r := bits.RotateLeft64(s1*5, 7) * 9
			t1 := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t1
			s3 = bits.RotateLeft64(s3, 45)
			if float64(r>>11)*0x1p-45 < dst[l] {
				hits++
			}
		}
		x, p := dst[i%calLabels]*(1.0/2048), 1.0
		for k := 0; k < 24; k++ {
			p = p*x + 0.5
		}
		acc += p
	}
	c.state = [4]uint64{s0, s1, s2, s3}
	c.hits, c.sink = hits, c.sink+acc
}

// nsPerOp times one run of n ops.
func nsPerOp(fn func(n int), n int) float64 {
	start := time.Now()
	fn(n)
	return float64(time.Since(start)) / float64(n)
}

// opsPerRound returns the op count whose run takes about roundTime: it
// grows n tenfold until a run takes a tenth of that, then scales.
func opsPerRound(fn func(n int)) int {
	for n := 1; ; n *= 10 {
		if ns := nsPerOp(fn, n) * float64(n); ns >= float64(roundTime)/10 {
			return max(1, int(float64(n)*float64(roundTime)/ns))
		}
	}
}

// median returns the (upper) median of v, reordering v.
func median(v []float64) float64 {
	slices.Sort(v)
	return v[len(v)/2]
}

// benchEnergies builds the energy vector the Unit.Sample kernels share.
func benchEnergies(labels int) []float64 {
	energies := make([]float64, labels)
	for i := range energies {
		energies[i] = float64(i * 200 / labels)
	}
	return energies
}

// unitSample times Unit.Sample over one energy vector at temperature 20.
func unitSample(cfg core.Config, labels int) func(n int) {
	u := core.MustUnit(cfg, rng.NewXoshiro256(1), true)
	core.MustSetTemperature(u, 20)
	energies := benchEnergies(labels)
	cur := 0
	return func(n int) {
		c := cur
		for i := 0; i < n; i++ {
			c = core.MustSample(u, energies, c)
		}
		cur = c
	}
}

// stereoBench is the stereo problem the gather kernels share, with a
// striped labeling.
type stereoBench struct {
	prob *mrf.Problem
	tab  *mrf.Tables
	lab  *img.Labels
}

func newStereoBench() stereoBench {
	prob := stereo.BuildProblem(synth.Poster(1), stereo.DefaultParams())
	lab := img.NewLabels(prob.W, prob.H)
	for i := range lab.L {
		lab.L[i] = i % prob.Labels
	}
	// The kernels time the float form's gather and FlipDelta: build it
	// here, outside the timed loops.
	tab := prob.BuildTables()
	tab.FloatSingles()
	return stereoBench{prob: prob, tab: tab, lab: lab}
}

// labelEnergies times one pixel's energy gather through the tables.
func (s stereoBench) labelEnergies() func(n int) {
	dst := make([]float64, s.prob.Labels)
	return func(n int) {
		for i := 0; i < n; i++ {
			s.tab.LabelEnergies(dst, s.lab, i%s.prob.W, (i/s.prob.W)%s.prob.H)
		}
	}
}

// sweepRow times one row's fused energy gather (LabelEnergiesRow).
func (s stereoBench) sweepRow() func(n int) {
	block := make([]float64, s.prob.W*s.prob.Labels)
	return func(n int) {
		for i := 0; i < n; i++ {
			s.tab.LabelEnergiesRow(block, s.lab, i%s.prob.H)
		}
	}
}

// energyIncremental times one mid-anneal sweep's energy bookkeeping: the
// FlipDelta of 5% of the pixels. The flips replay within an 8-row band: the
// solver calls FlipDelta on a segment right after gathering that segment's
// energies, so its operands are cache-hot, and scattering the flips over the
// whole table would time L2 misses the solver does not have (and that swing
// with whatever else shares the core's cache).
func (s stereoBench) energyIncremental() func(n int) {
	const bandRows = 8
	w := s.prob.W
	flips := w * s.prob.H / 20
	var sink float64
	return func(n int) {
		var sum float64
		for i := 0; i < n; i++ {
			for f := 0; f < flips; f++ {
				idx := (f*37 + i) % (w * bandRows)
				x, y := idx%w, idx/w
				cur := s.lab.At(x, y)
				sum += s.tab.FlipDelta(s.lab, x, y, cur, (cur+1)%s.prob.Labels)
			}
		}
		sink += sum
	}
}

// sampleBatch times one fused SampleBatch call over a 96-pixel, 8-label row
// segment.
func sampleBatch() func(n int) {
	const seg, labels = 96, 8
	energies := benchEnergies(labels)
	block := make([]float64, seg*labels)
	for i := 0; i < seg; i++ {
		copy(block[i*labels:(i+1)*labels], energies)
	}
	currents := make([]int, seg)
	out := make([]int, seg)
	u := core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(1), true)
	core.MustSetTemperature(u, 20)
	return func(n int) {
		for i := 0; i < n; i++ {
			if err := u.SampleBatch(block, labels, currents, out); err != nil {
				panic(err)
			}
		}
	}
}

// scheduleTemperature times a 500-step annealing ladder's temperatures.
func scheduleTemperature() func(n int) {
	s := mrf.Schedule{T0: 32, Alpha: 0.9885, Iterations: 500}
	var sink float64
	return func(n int) {
		var sum float64
		for i := 0; i < n; i++ {
			for k := 0; k < s.Iterations; k++ {
				sum += s.Temperature(k)
			}
		}
		sink += sum
	}
}

// kernel is one entry of the suite: its name and a constructor for its
// timed loop (n ops per call).
type kernel struct {
	name  string
	build func() func(n int)
}

func suite() []kernel {
	sb := sync.OnceValue(newStereoBench)
	return []kernel{
		{"unit-sample-new8", func() func(n int) { return unitSample(core.NewRSUG(), 8) }},
		{"unit-sample-new56", func() func(n int) { return unitSample(core.NewRSUG(), 56) }},
		{"unit-sample-prev56", func() func(n int) { return unitSample(core.PrevRSUG(), 56) }},
		{"label-energies-stereo", func() func(n int) { return sb().labelEnergies() }},
		{"sweep-row-kernel", func() func(n int) { return sb().sweepRow() }},
		{"sample-batch", sampleBatch},
		{"energy-incremental", func() func(n int) { return sb().energyIncremental() }},
		{"schedule-temperature-500", scheduleTemperature},
	}
}

// MicroSet lists the suite's kernels, in suite order; the gate checks every
// one of them.
func MicroSet() []string {
	var names []string
	for _, k := range suite() {
		names = append(names, k.name)
	}
	return names
}

// Run executes the suite in epochs. A loop's speed can hinge on where its
// data and its goroutine's stack land (store-to-load aliasing, cache sets):
// the same binary timed a kernel up to 1.3x apart between processes on a
// 2-vCPU host. So each epoch builds the calibration and every kernel afresh,
// while the earlier epochs' copies stay live so the new ones land elsewhere,
// and times them on a new goroutine at a stack depth of its own; the median
// over all rounds then no longer rests on one placement. In every round
// each kernel runs once untimed, to refill the caches the other kernels
// evicted, and is then timed next to one calibration run, in an order that
// alternates between rounds. A kernel's scaled time is the median over all
// rounds of its ns/op divided by the calibration's.
func Run() Report {
	rep := Report{
		Schema:     Schema,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	names := MicroSet()
	kns, cns := make([][]float64, len(names)), make([][]float64, len(names))
	var calOps int
	var ops []int
	var live []any
	for e := 0; e < epochs; e++ {
		cal := newCalibration()
		var runs []func(n int)
		for _, k := range suite() {
			runs = append(runs, k.build())
		}
		if e == 0 {
			calOps = opsPerRound(cal.run)
			for _, run := range runs {
				ops = append(ops, opsPerRound(run))
			}
		}
		live = append(live, cal, runs)
		runtime.GC()
		done := make(chan struct{})
		go shiftStack(e, func() {
			defer close(done)
			for r := 0; r < roundsPerEpoch; r++ {
				for i, run := range runs {
					run(max(1, ops[i]/8))
					var k, c float64
					if r%2 == 0 {
						c = nsPerOp(cal.run, calOps)
						k = nsPerOp(run, ops[i])
					} else {
						k = nsPerOp(run, ops[i])
						c = nsPerOp(cal.run, calOps)
					}
					kns[i] = append(kns[i], k)
					cns[i] = append(cns[i], c)
				}
			}
		})
		<-done
	}
	runtime.KeepAlive(live)
	for i, name := range names {
		ratios := make([]float64, len(kns[i]))
		for r := range ratios {
			ratios[r] = kns[i][r] / cns[i][r]
		}
		rep.Benchmarks = append(rep.Benchmarks, Result{
			Name: name, NsOp: median(kns[i]), CalNsOp: median(cns[i]), Scaled: median(ratios),
		})
	}
	return rep
}

// shiftStack runs fn at least depth*512 bytes further down the goroutine's
// stack.
//
//go:noinline
func shiftStack(depth int, fn func()) byte {
	var pad [512]byte
	pad[depth&511] = byte(depth)
	if depth <= 0 {
		fn()
	} else {
		shiftStack(depth-1, fn)
	}
	return pad[(depth*7)&511]
}

// String renders the report as an aligned table.
func (r Report) String() string {
	s := fmt.Sprintf("%s (%s %s/%s, NumCPU %d, GOMAXPROCS %d)\n",
		r.Schema, r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU, r.GOMAXPROCS)
	s += fmt.Sprintf("%-28s %12s %12s %10s\n", "kernel", "ns/op", "cal ns/op", "scaled")
	for _, b := range r.Benchmarks {
		s += fmt.Sprintf("%-28s %12.1f %12.1f %10.4f\n", b.Name, b.NsOp, b.CalNsOp, b.Scaled)
	}
	return s
}
