package conformance

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"rsu/internal/apps/flow"
	"rsu/internal/apps/ising"
	"rsu/internal/apps/segment"
	"rsu/internal/apps/stereo"
	"rsu/internal/checkpoint"
	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/shard"
	"rsu/internal/synth"
)

// goldenSeed seeds every golden scenario's RNG streams. Changing it (or any
// model parameter below) invalidates the checked-in traces; regenerate with
// -update-golden and review the diff.
const goldenSeed = 2026

// GoldenWorkerCounts are the solver worker counts each application is traced
// at. Workers own independent RNG streams, so every count has its own
// golden; 1 is the serial solver path.
var GoldenWorkerCounts = []int{1, 2, 4}

// Trace is the deterministic fingerprint of one solver run: the final label
// map plus the total MRF energy after every sweep.
type Trace struct {
	App     string
	Workers int
	Labels  *img.Labels
	Energy  []float64
}

// Encode renders the trace in a stable text format. Energies are written as
// hexadecimal floats, which round-trip bit-exactly; comparison is done on
// raw bytes.
func (t *Trace) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "rsu golden trace v1\napp %s\nworkers %d\n", t.App, t.Workers)
	fmt.Fprintf(&b, "labels %dx%d\n", t.Labels.W, t.Labels.H)
	for y := 0; y < t.Labels.H; y++ {
		for x := 0; x < t.Labels.W; x++ {
			if x > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(t.Labels.At(x, y)))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "energy %d\n", len(t.Energy))
	for _, e := range t.Energy {
		b.WriteString(strconv.FormatFloat(e, 'x', -1, 64))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// goldenApps are the four traced applications, in golden-matrix order.
var goldenApps = []string{"stereo", "flow", "segment", "ising"}

// goldenFactory builds every golden run's samplers: the new-RSUG unit on
// per-stream RNGs derived from goldenSeed.
var goldenFactory = core.StreamFactory(goldenSeed, func(src rng.Source) core.LabelSampler {
	return core.MustUnit(core.NewRSUG(), src, true)
})

// Scenario is one golden-traced run: an application at a worker count.
type Scenario struct {
	App     string
	Workers int
}

// String names the scenario, e.g. "stereo_w2".
func (s Scenario) String() string { return fmt.Sprintf("%s_w%d", s.App, s.Workers) }

// File returns the scenario's golden file name.
func (s Scenario) File() string { return s.String() + ".golden" }

// Scenarios returns the full golden matrix: every application at every
// worker count in GoldenWorkerCounts.
func Scenarios() []Scenario {
	var out []Scenario
	for _, app := range goldenApps {
		for _, w := range GoldenWorkerCounts {
			out = append(out, Scenario{App: app, Workers: w})
		}
	}
	return out
}

// goldenRun is one scenario's fixed problem and the trace its solver legs
// append to.
type goldenRun struct {
	s     Scenario
	prob  *mrf.Problem
	sched mrf.Schedule
	init  *img.Labels
	tr    *Trace
	// samplers are the last solver leg's streams, in stream order.
	samplers []core.LabelSampler
}

// start builds the scenario's problem and an empty trace. A run on an
// explicit tile geometry is labelled with its tile count, so a 1x1 tiling
// (the serial solver) encodes as the app's w1 golden.
func (s Scenario) start(opts mrf.SolveOptions) (*goldenRun, error) {
	prob, sched, init, err := goldenProblem(s.App)
	if err != nil {
		return nil, err
	}
	workers := s.Workers
	if !opts.Shards.IsZero() {
		workers = opts.Shards.Tiles()
	}
	return &goldenRun{s: s, prob: prob, sched: sched, init: init, tr: &Trace{App: s.App, Workers: workers}}, nil
}

// solve runs one solver leg under ctx, appending the total energy after
// every sweep to the trace and keeping the leg's samplers.
func (g *goldenRun) solve(ctx context.Context, opts mrf.SolveOptions) (*img.Labels, error) {
	opts.Init, opts.Workers = g.init, g.s.Workers
	// The trace pins the historical byte format: keep evaluating the energy
	// through Problem.TotalEnergy rather than trusting SolveStats.Energy, so
	// the golden bytes cannot drift with the observability layer.
	opts.OnSweep = func(_ int, lab *img.Labels, _ mrf.SolveStats) {
		g.tr.Energy = append(g.tr.Energy, g.prob.TotalEnergy(lab))
	}
	g.samplers = nil
	factory := func(stream int) core.LabelSampler {
		s := goldenFactory(stream)
		g.samplers = append(g.samplers, s)
		return s
	}
	return mrf.Solve(ctx, g.prob, factory, g.sched, opts)
}

// Run is the golden trace runner: it solves a small fixed-seed instance of
// the scenario's application with the new-RSUG sampler under opts and traces
// the energy after every sweep. The runner sets Init, Workers and OnSweep
// from the scenario; every other option is the caller's, and the zero
// SolveOptions reproduces the checked-in golden.
func (s Scenario) Run(opts mrf.SolveOptions) (*Trace, error) {
	g, err := s.start(opts)
	if err != nil {
		return nil, err
	}
	if g.tr.Labels, err = g.solve(context.Background(), opts); err != nil {
		return nil, fmt.Errorf("%s: %w", s, err)
	}
	return g.tr, nil
}

// runResumed is Run interrupted at the schedule midpoint and resumed. The
// head leg checkpoints at the midpoint and is then cancelled, exercising both
// the periodic and the on-cancel capture paths, whose snapshots must agree
// byte for byte (nothing advances between them). The tail leg resumes from
// the snapshot after a full container encode/decode round trip, as a
// restarted process would, and with Shards unset: the snapshot alone must
// route a sharded resume back onto its tiles. The trace splices both legs'
// energies; it must equal an uninterrupted run's. The labels alone can hide
// a lost RNG stream (a tile whose draws changed no label), so every stream's
// final sampler state must also equal an uninterrupted run's under opts;
// that run's trace is returned as ref.
func (s Scenario) runResumed(opts mrf.SolveOptions) (resumed, ref *Trace, err error) {
	g, err := s.start(opts)
	if err != nil {
		return nil, nil, err
	}
	mid := g.sched.Iterations / 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var containers [][]byte
	head := opts
	head.CheckpointEvery = mid
	head.OnCheckpoint = func(st *mrf.SolverState) error {
		containers = append(containers, checkpoint.Encode(&checkpoint.Snapshot{
			App: s.App, Seed: goldenSeed, Schedule: g.sched, State: *st,
		}))
		if len(containers) == 1 {
			cancel()
		}
		return nil
	}
	_, err = g.solve(ctx, head)
	switch {
	case err == nil:
		return nil, nil, fmt.Errorf("%s: head leg ran to completion instead of cancelling", s)
	case !errors.Is(err, context.Canceled):
		return nil, nil, fmt.Errorf("%s: head leg: %w", s, err)
	case len(containers) != 2:
		return nil, nil, fmt.Errorf("%s: expected a periodic and an on-cancel snapshot, got %d", s, len(containers))
	case !bytes.Equal(containers[0], containers[1]):
		return nil, nil, fmt.Errorf("%s: periodic and on-cancel snapshots differ — capture is not a pure function of solver state", s)
	case len(g.tr.Energy) != mid:
		return nil, nil, fmt.Errorf("%s: head leg logged %d sweeps, want %d", s, len(g.tr.Energy), mid)
	}

	snap, err := checkpoint.Decode(containers[0])
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", s, err)
	}
	if got := (shard.Geometry{Rows: snap.State.ShardRows, Cols: snap.State.ShardCols}); !opts.Shards.IsZero() && got != opts.Shards {
		return nil, nil, fmt.Errorf("%s: snapshot carries %s tiles, want %s", s, got, opts.Shards)
	}
	if snap.State.NextSweep != mid {
		return nil, nil, fmt.Errorf("%s: snapshot resumes at sweep %d, want %d", s, snap.State.NextSweep, mid)
	}
	tail := opts
	tail.Shards, tail.Resume = shard.Geometry{}, &snap.State
	if g.tr.Labels, err = g.solve(context.Background(), tail); err != nil {
		return nil, nil, fmt.Errorf("%s: tail leg: %w", s, err)
	}
	if len(g.tr.Energy) != g.sched.Iterations {
		return nil, nil, fmt.Errorf("%s: spliced log has %d sweeps, want %d", s, len(g.tr.Energy), g.sched.Iterations)
	}
	if ref, err = g.matchStreams(opts); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", s, err)
	}
	return g.tr, ref, nil
}

// matchStreams runs the scenario uninterrupted under opts, requires the
// last leg's final sampler states to equal that run's, stream for stream,
// and returns the uninterrupted run's trace.
func (g *goldenRun) matchStreams(opts mrf.SolveOptions) (*Trace, error) {
	ref, err := g.s.start(opts)
	if err == nil {
		ref.tr.Labels, err = ref.solve(context.Background(), opts)
	}
	if err != nil {
		return nil, fmt.Errorf("uninterrupted run: %w", err)
	}
	if len(g.samplers) != len(ref.samplers) {
		return nil, fmt.Errorf("resumed run has %d streams, uninterrupted run %d", len(g.samplers), len(ref.samplers))
	}
	for i, s := range g.samplers {
		got, err := s.(core.Checkpointable).CaptureState()
		want, werr := ref.samplers[i].(core.Checkpointable).CaptureState()
		if err = errors.Join(err, werr); err != nil {
			return nil, fmt.Errorf("stream %d: %w", i, err)
		}
		if got != want {
			return nil, fmt.Errorf("stream %d sampler state after resume differs from the uninterrupted run's", i)
		}
	}
	return ref.tr, nil
}

// goldenProblem builds the fixed miniature MRF instance for one application.
// Sizes and schedules are deliberately small: the traces pin determinism and
// regression, not solution quality (the apps' own tests cover quality).
func goldenProblem(app string) (*mrf.Problem, mrf.Schedule, *img.Labels, error) {
	switch app {
	case "stereo":
		pair := synth.Stereo("golden", 28, 20, 10, 3, 7)
		prob := stereo.BuildProblem(pair, stereo.DefaultParams())
		return prob, mrf.Schedule{T0: 32, Alpha: 0.9, Iterations: 24}, nil, nil
	case "flow":
		pair := synth.Flow("golden", 20, 14, 2, 2, 9)
		prob := flow.BuildProblem(pair, flow.DefaultParams())
		init := img.NewLabels(20, 14)
		init.Fill(synth.VectorToLabel(0, 0, pair.Radius))
		return prob, mrf.Schedule{T0: 32, Alpha: 0.9, Iterations: 18}, init, nil
	case "segment":
		scene := synth.Segments("golden", 24, 16, 3, 6, 11)
		p := segment.DefaultParams()
		means := segment.FitMeans(scene.Image, scene.Segments, p.KMeansIters)
		prob := segment.BuildProblem(scene.Image, means, p)
		return prob, mrf.Schedule{T0: p.Temperature, Alpha: 1, Iterations: 15}, nil, nil
	case "ising":
		m := ising.Model{N: 16, J: 16}
		if err := m.Validate(); err != nil {
			return nil, mrf.Schedule{}, nil, err
		}
		prob := m.Problem()
		init := img.NewLabels(m.N, m.N).Fill(1)
		return prob, mrf.Schedule{T0: 2.4 * m.J, Alpha: 1, Iterations: 16}, init, nil
	default:
		return nil, mrf.Schedule{}, nil, fmt.Errorf("conformance: unknown golden app %q", app)
	}
}

// UpdateGolden regenerates every golden file in dir.
func UpdateGolden(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range Scenarios() {
		tr, err := s.Run(mrf.SolveOptions{})
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, s.File()), tr.Encode(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
