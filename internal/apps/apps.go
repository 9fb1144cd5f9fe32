// Package apps holds what the MRF application drivers (stereo, flow,
// segment, ising) share: the run options every app accepts and the one
// solve path that wires them into the solver. Each driver keeps only its
// problem build, initial labeling, schedule and scoring — the same split the
// paper's RSU-G makes between one Gibbs functional unit and the
// applications that program it (Sec. III).
package apps

import (
	"context"
	"fmt"

	"rsu/internal/checkpoint"
	"rsu/internal/core"
	"rsu/internal/fault"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/shard"
	"rsu/internal/uq"
)

// Options are the run options shared by every application driver. The
// apps embed them in their Params (ising in its Model), so they are set as
// p.Workers, p.Ctx, and so on.
type Options struct {
	// SamplerFactory, when non-nil, builds one sampler per RNG stream for
	// mrf.Solve (the sampler argument is then ignored). See
	// core.StreamFactory.
	SamplerFactory func(stream int) core.LabelSampler
	// Workers selects the tile geometry when SamplerFactory is set (see
	// mrf.SolveOptions.Workers): 0 = shard.Auto for the grid, 1 = exact
	// serial behavior, n = n row bands. A lone sampler always runs serially.
	// It stays a separate field from Shards while the benchmark harness
	// (perfbench/) sets it by name.
	Workers int
	// Shards, when non-zero, splits the grid into Rows x Cols tiles and runs
	// the domain-decomposed sharded solver (requires SamplerFactory; one RNG
	// stream per tile — see mrf.SolveOptions.Shards and DESIGN.md §15).
	Shards shard.Geometry
	// Ctx, when non-nil, bounds the solve: cancellation or deadline expiry
	// aborts between sweeps with the context's error. nil means no bound.
	Ctx context.Context
	// OnSweep, when non-nil, receives every sweep's labeling and SolveStats
	// record (see mrf.SolveOptions.OnSweep for the retention contract).
	OnSweep func(iter int, lab *img.Labels, st mrf.SolveStats)
	// PairLUT, when non-nil, supplies a prebuilt pairwise LUT shared across
	// solves at the same design point. It must match the problem's label
	// count and smoothness model (see mrf.BuildTablesShared); the serving
	// layer's artifact cache populates it.
	PairLUT *mrf.PairLUT
	// UQ, when non-nil, enables posterior sample collection: per-pixel label
	// histograms accumulate after the configured burn-in and the result
	// carries the marginal / confidence estimates. Collection never perturbs
	// the solve (see mrf.Collector).
	UQ *uq.Options
	// Faults, when non-nil, injects the device-fault model into the
	// hardware samplers (see fault.Config) and the result carries a
	// fault.Report; when UQ also ran, a confidence collapse below
	// fault.DegradedConfidence marks it Degraded. nil — or all-zero rates —
	// leaves the solve byte-identical to the ideal device.
	Faults *fault.Config
	// Checkpoint, when non-nil, wires snapshot persistence into the solve:
	// periodic (and on-cancel) state capture plus resume from an existing
	// snapshot, with the bit-exact guarantee documented in package
	// checkpoint. The plan's snapshot is removed after a successful solve.
	Checkpoint *checkpoint.Plan
}

// Result is what Solve hands back to a driver for scoring.
type Result struct {
	Labels *img.Labels
	// UQ holds the posterior estimates when Options.UQ was set.
	UQ *uq.Result
	// Faults holds the fault report when Options.Faults was set.
	Faults *fault.Report
}

// Solve runs prob under sched with the shared options applied on top of
// opts, which carries the app's own settings (Init, and a Collector for an
// app that measures its own observables). A non-nil o.SamplerFactory
// supplies one sampler per stream; otherwise sampler is the only stream and
// the solve runs serially (a multi-tile Shards then fails: its tiles would
// share the sampler).
func Solve(o Options, prob *mrf.Problem, sampler core.LabelSampler, sched mrf.Schedule, opts mrf.SolveOptions) (*Result, error) {
	opts.Workers, opts.Shards, opts.OnSweep = o.Workers, o.Shards, o.OnSweep
	factory := o.SamplerFactory
	if factory == nil {
		factory = func(int) core.LabelSampler { return sampler }
		opts.Workers = 1
	}
	if o.PairLUT != nil {
		tab, err := prob.BuildTablesShared(o.PairLUT)
		if err != nil {
			return nil, err
		}
		opts.Tables = tab
	}
	var acc *uq.Accumulator
	if o.UQ != nil {
		if opts.Collector != nil {
			return nil, fmt.Errorf("apps: UQ collection is not supported by an app that collects its own observables")
		}
		var err error
		acc, err = uq.NewForRun(*o.UQ, prob.W, prob.H, prob.Labels, sched.Iterations)
		if err != nil {
			return nil, err
		}
		opts.Collector = acc
	}
	inj, err := fault.New(o.Faults)
	if err != nil {
		return nil, err
	}
	opts.Faults = inj
	if o.Checkpoint != nil {
		if err := o.Checkpoint.Attach(&opts, sched); err != nil {
			return nil, err
		}
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{}
	if res.Labels, err = mrf.Solve(ctx, prob, factory, sched, opts); err != nil {
		return nil, err
	}
	if o.Checkpoint != nil {
		if err := o.Checkpoint.Finish(); err != nil {
			return nil, err
		}
	}
	if acc != nil {
		if res.UQ, err = acc.Estimate(); err != nil {
			return nil, err
		}
	}
	if inj != nil {
		if res.UQ != nil {
			res.Faults = inj.Report(res.UQ.MeanConfidence(), true)
		} else {
			res.Faults = inj.Report(0, false)
		}
	}
	return res, nil
}
