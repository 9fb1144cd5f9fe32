// Package runopt holds the command-line flags shared by the rsu-* solver
// tools: the sampler, seed and worker count, tile sharding, posterior (UQ)
// collection, device-fault injection, checkpoint/resume, wall-clock timeouts
// (context cancellation), CPU profiling, the JSONL per-sweep run log, and the
// annealing temperature floor. Each binary registers them with one Register
// call and turns them into the app's run options with one Start call, so
// every tool validates and applies them identically.
package runopt

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"rsu/internal/apps"
	"rsu/internal/checkpoint"
	"rsu/internal/core"
	"rsu/internal/fault"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/shard"
	"rsu/internal/uq"
	"rsu/internal/viz"
)

// Flags are the shared run options. Register sets the command-line
// defaults; zero rates, paths and durations mean "off".
type Flags struct {
	// Sampler names the sampler: software | new | prev.
	Sampler string
	// Seed is the master random seed (RNG streams, and faults by default).
	Seed uint64
	// Workers is the solver worker count: 0 = GOMAXPROCS, 1 = serial.
	Workers int
	// Shards is the "RxC" tile geometry; empty leaves sharding to the
	// solver's auto-dispatch (large grids shard themselves).
	Shards string

	// Timeout bounds the whole run; 0 means unbounded. On expiry the solver
	// aborts between sweeps and the tool exits with the context error.
	Timeout time.Duration
	// Pprof, when non-empty, writes a CPU profile of the run to this file.
	Pprof string
	// RunLog, when non-empty, streams per-sweep SolveStats as JSON Lines
	// ("-" = stdout).
	RunLog string
	// TFloor overrides the annealing temperature floor; 0 keeps
	// mrf.DefaultTFloor.
	TFloor float64

	// UQ turns posterior sample collection on. BurnIn is the sweeps
	// discarded first (negative = half the run, see uq.Options); Thin
	// collects every Thin-th post-burn-in sweep.
	UQ     bool
	BurnIn int
	Thin   int

	// Checkpoint is the snapshot file (empty disables checkpointing),
	// CheckpointEvery the periodic capture cadence in sweeps (<= 0 captures
	// only on cancellation), and Resume restores Checkpoint's snapshot when
	// the file exists (a missing file is a fresh start, so restart loops can
	// always pass -resume).
	Checkpoint      string
	CheckpointEvery int
	Resume          bool

	// Device-fault rates, one per fault type in fault.Config (all zero = the
	// ideal device). FaultSeed seeds the fault RNG streams; 0 derives it
	// from Seed.
	FaultBleed, FaultDark, FaultStuck, FaultDrift float64
	FaultSeed                                     uint64
}

// Register installs the shared flags on fs (flag.CommandLine in the tools).
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Sampler, "sampler", "new", "software | new | prev")
	fs.Uint64Var(&f.Seed, "seed", 1, "random seed")
	fs.IntVar(&f.Workers, "workers", 0, "solver workers: 0 = GOMAXPROCS, 1 = serial")
	fs.StringVar(&f.Shards, "shards", "",
		"tile the grid RxC (e.g. 2x2) and run the sharded solver; empty = automatic")

	fs.DurationVar(&f.Timeout, "timeout", 0,
		"abort the solve after this duration (e.g. 30s, 2m; 0 = no limit)")
	fs.StringVar(&f.Pprof, "pprof", "",
		"write a CPU profile to this file")
	fs.StringVar(&f.RunLog, "runlog", "",
		"stream per-sweep stats as JSON Lines to this file (\"-\" = stdout)")
	fs.Float64Var(&f.TFloor, "tfloor", 0,
		fmt.Sprintf("annealing temperature floor (0 = default %g)", mrf.DefaultTFloor))

	fs.BoolVar(&f.UQ, "uq", false,
		"collect posterior samples; report confidence/entropy maps and a UQ summary")
	fs.IntVar(&f.BurnIn, "burnin", -1,
		"sweeps discarded before UQ collection (-1 = half the run)")
	fs.IntVar(&f.Thin, "thin", 1,
		"collect every Nth post-burn-in sweep")

	fs.StringVar(&f.Checkpoint, "checkpoint", "",
		"snapshot file for checkpoint/resume (empty = off)")
	fs.IntVar(&f.CheckpointEvery, "checkpoint-every", 10,
		"write a snapshot every N sweeps (<= 0 = only on cancellation)")
	fs.BoolVar(&f.Resume, "resume", false,
		"resume from -checkpoint if the file exists (bit-exact continuation)")

	fs.Float64Var(&f.FaultBleed, "fault-bleed", 0,
		"per-draw probability of inter-column optical bleed-through")
	fs.Float64Var(&f.FaultDark, "fault-dark", 0,
		"SPAD dark-count rate per time bin (e.g. 1e-6)")
	fs.Float64Var(&f.FaultStuck, "fault-stuck", 0,
		"probability each replica row is stuck dark for the whole run")
	fs.Float64Var(&f.FaultDrift, "fault-drift", 0,
		"fractional quantum-yield loss per draw (photobleaching drift)")
	fs.Uint64Var(&f.FaultSeed, "fault-seed", 0,
		"fault-stream RNG seed (0 = derive from -seed)")
}

// Apply threads the temperature-floor override into a schedule. Every
// non-zero value passes through, so the solver's Schedule.Validate rejects
// a negative or NaN floor instead of the run silently keeping the default.
func (f *Flags) Apply(s *mrf.Schedule) {
	if f.TFloor != 0 {
		s.TFloor = f.TFloor
	}
}

// faults maps the fault flags onto a fault.Config, nil when all rates are
// zero. The software baseline models no device to fault, and a zero
// -fault-seed derives from -seed so faulted runs stay reproducible.
func (f *Flags) faults() (*fault.Config, error) {
	cfg := fault.Config{
		BleedThrough:    f.FaultBleed,
		DarkCountPerBin: f.FaultDark,
		StuckRow:        f.FaultStuck,
		Drift:           f.FaultDrift,
		Seed:            f.FaultSeed,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Active() {
		return nil, nil
	}
	if f.Sampler == "software" {
		return nil, fmt.Errorf("runopt: fault injection requires a hardware sampler (new | prev); the software baseline models no device")
	}
	if cfg.Seed == 0 {
		cfg.Seed = f.Seed
	}
	return &cfg, nil
}

// plan maps the checkpoint flags onto a checkpoint.Plan, nil without
// -checkpoint. app, sampler and seed pin the run identity a resumed
// snapshot must match.
func (f *Flags) plan(app string) (*checkpoint.Plan, error) {
	if f.Checkpoint == "" {
		if f.Resume {
			return nil, fmt.Errorf("runopt: -resume requires -checkpoint")
		}
		return nil, nil
	}
	return &checkpoint.Plan{
		Path: f.Checkpoint, Every: f.CheckpointEvery, Resume: f.Resume,
		App: app, Sampler: f.Sampler, Seed: f.Seed,
	}, nil
}

// Runtime is the activated form of Flags. Options holds the app run options
// the flags select; the runtime also owns an open profile, an open run log
// and the deadline context. Always Close it (idempotent) so the profile and
// log are flushed, and report its error: a profile or run log that could not
// be written is a failed run.
type Runtime struct {
	// Options are the run options for the app's Params (p.Options =
	// rt.Options): sampler factory, Workers, Shards, the deadline context,
	// the run-log OnSweep hook, UQ, Faults and the checkpoint Plan.
	Options apps.Options

	cancel context.CancelFunc
	files  []*os.File
	prof   *errWriter // the running CPU profile's output; nil when none runs
	log    *mrf.RunLog
}

// errWriter forwards writes to w and keeps the first write error, which
// pprof's profile writer would otherwise drop.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	n, err := e.w.Write(p)
	if e.err == nil {
		e.err = err
	}
	return n, err
}

// startProfile starts the CPU profile into w.
func (r *Runtime) startProfile(w io.Writer) error {
	ew := &errWriter{w: w}
	if err := pprof.StartCPUProfile(ew); err != nil {
		return err
	}
	r.prof = ew
	return nil
}

// Start validates the flags and activates them for one run of app (stamped
// into the checkpoint plan); run names the solve in the run-log records. It
// checks every flag before it opens the profile and run-log outputs, and on
// error nothing is left open.
func (f *Flags) Start(app, run string) (*Runtime, error) {
	r := &Runtime{}
	o := &r.Options
	var err error
	if f.UQ {
		o.UQ = &uq.Options{BurnIn: f.BurnIn, Thin: f.Thin}
	}
	if o.Faults, err = f.faults(); err != nil {
		return nil, err
	}
	if o.Checkpoint, err = f.plan(app); err != nil {
		return nil, err
	}
	build, err := core.SamplerBuilder(f.Sampler)
	if err != nil {
		return nil, err
	}
	o.SamplerFactory = core.StreamFactory(f.Seed, build)
	o.Workers = f.Workers
	if f.Shards != "" {
		if o.Shards, err = shard.Parse(f.Shards); err != nil {
			return nil, fmt.Errorf("runopt: -shards: %w", err)
		}
	}

	if f.Pprof != "" {
		pf, err := os.Create(f.Pprof)
		if err != nil {
			return nil, fmt.Errorf("runopt: -pprof: %w", err)
		}
		if err := r.startProfile(pf); err != nil {
			_ = pf.Close()
			return nil, fmt.Errorf("runopt: -pprof: %w", err)
		}
		r.files = append(r.files, pf)
	}
	if f.RunLog != "" {
		out := os.Stdout
		if f.RunLog != "-" {
			lf, err := os.Create(f.RunLog)
			if err != nil {
				_ = r.Close()
				return nil, fmt.Errorf("runopt: -runlog: %w", err)
			}
			r.files = append(r.files, lf)
			out = lf
		}
		r.log = mrf.NewRunLog(out)
		o.OnSweep = r.log.Hook(run, nil)
	}
	if f.Timeout > 0 {
		o.Ctx, r.cancel = context.WithTimeout(context.Background(), f.Timeout)
	} else {
		o.Ctx, r.cancel = context.WithCancel(context.Background())
	}
	return r, nil
}

// Close stops profiling, cancels the context, and closes every file the
// runtime opened. It returns the first profile and run-log write errors
// joined with any file-close error. Safe to call more than once; later
// calls return nil.
func (r *Runtime) Close() error {
	var errs []error
	if r.prof != nil {
		pprof.StopCPUProfile()
		if r.prof.err != nil {
			errs = append(errs, fmt.Errorf("runopt: -pprof: %w", r.prof.err))
		}
		r.prof = nil
	}
	if r.log != nil {
		if err := r.log.Err(); err != nil {
			errs = append(errs, fmt.Errorf("runopt: -runlog: %w", err))
		}
		r.log = nil
	}
	if r.cancel != nil {
		r.cancel()
		r.cancel = nil
	}
	for _, f := range r.files {
		if err := f.Close(); err != nil {
			errs = append(errs, fmt.Errorf("runopt: %w", err))
		}
	}
	r.files = nil
	return errors.Join(errs...)
}

// ReportResume prints the resume point when the plan restored a snapshot. pl
// may be nil (no -checkpoint) — the tools call it unconditionally after
// the solve.
func ReportResume(w io.Writer, pl *checkpoint.Plan) {
	if pl == nil {
		return
	}
	if s := pl.Resumed(); s != nil {
		fmt.Fprintf(w, "resuming %s from sweep %d/%d (%s)\n",
			s.App, s.State.NextSweep, s.Schedule.Iterations, pl.Path)
	}
}

// ReportFaults prints a fault report's one-line summary to w. r may be nil
// (no injection requested) — the tools call it unconditionally.
func ReportFaults(w io.Writer, r *fault.Report) {
	if r != nil {
		fmt.Fprintln(w, r.String())
	}
}

// ReportUQ prints a UQ run's summary line and confidence histogram to w and,
// when outDir is non-empty, writes the confidence/entropy PGMs plus the JSON
// summary there (see uq.Result.WriteArtifacts). r may be nil — the tools call
// it unconditionally after a solve — and point (the solver's final labeling,
// for the disagreement rate) may be nil too.
func ReportUQ(w io.Writer, r *uq.Result, point *img.Labels, outDir, name string) error {
	if r == nil {
		return nil
	}
	sum, err := r.Summarize(point)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "UQ: %d samples (burn-in %d, thin %d)  mean conf %.3f  min conf %.3f  mean entropy %.3f bits  disagree %.2f%%  |credible90| %.2f\n",
		sum.Samples, sum.BurnIn, sum.Thin, sum.MeanConfidence, sum.MinConfidence,
		sum.MeanEntropyBits, sum.DisagreementPct, sum.Credible90MeanSize)
	fmt.Fprint(w, viz.Histogram(r.Confidence(), 0, 1, 5, 40))
	if outDir != "" {
		paths, err := r.WriteArtifacts(outDir, name, point)
		if err != nil {
			return err
		}
		for _, p := range paths {
			fmt.Fprintln(w, "wrote", p)
		}
	}
	return nil
}
