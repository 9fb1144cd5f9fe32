// Package serve is the batched inference layer that turns the repository's
// one-shot CLI solvers into a system that takes traffic: an embeddable job
// service that accepts stereo / flow / segment / ising inference jobs,
// queues them with backpressure, and schedules them onto a bounded pool of
// persistent solver workers driving the apps' shared solve path
// (apps.Solve). Concurrent jobs at the same design point share read-only
// precomputation — pairwise smoothness LUTs (mrf.PairLUT), synthetic
// datasets, and energy-to-lambda conversion tables (core.ConverterCache) —
// through a shared-artifact cache, mirroring how many RSU columns would
// share one temperature-update bus and energy pipeline. cmd/rsu-serve wraps
// the service in an HTTP/JSON daemon, and perfbench's serve-mix workload
// drives it with open-loop mixed-app traffic.
package serve

import (
	"fmt"
	"time"

	"rsu/internal/fault"
	"rsu/internal/shard"
	"rsu/internal/uq"
)

// App names the four inference workloads the service accepts.
const (
	AppStereo  = "stereo"
	AppFlow    = "flow"
	AppSegment = "segment"
	AppIsing   = "ising"
)

// Apps lists every accepted app name.
func Apps() []string { return []string{AppStereo, AppFlow, AppSegment, AppIsing} }

// JobSpec is one inference request, the JSON body of POST /jobs. Zero
// values select the app defaults, so {"app":"stereo"} is a complete job.
type JobSpec struct {
	// App selects the workload: stereo | flow | segment | ising.
	App string `json:"app"`
	// Dataset names the synthetic input scene. Defaults per app:
	// stereo teddy (also poster, art); flow venus (also rubberwhale,
	// dimetrodon); segment bsd00 .. bsd29. Ising ignores it.
	Dataset string `json:"dataset,omitempty"`
	// Sampler selects the label sampler: software | new | prev (default new).
	Sampler string `json:"sampler,omitempty"`
	// Seed is the master RNG seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Scale multiplies the synthetic dataset size (default 1).
	Scale int `json:"scale,omitempty"`
	// Iterations overrides the app's sweep count (0 = app default).
	Iterations int `json:"iterations,omitempty"`
	// Workers is the per-job checkerboard-solver worker count. 0 keeps the
	// service default (Config.SolverWorkers); the service serves many jobs
	// concurrently, so per-job parallelism defaults low.
	Workers int `json:"workers,omitempty"`
	// Shards, when non-empty, is an "RxC" tile geometry (e.g. "2x2"): the job
	// runs on the domain-decomposed sharded solver with one RNG stream per
	// tile (DESIGN.md §15). Empty keeps the unsharded solvers.
	Shards string `json:"shards,omitempty"`
	// TimeoutMS bounds the job (queue wait + solve) in milliseconds. 0
	// applies Config.DefaultTimeout; the service clamps to Config.MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// CaptureLog returns the per-sweep mrf.RunLog JSONL records in the
	// job result.
	CaptureLog bool `json:"capture_log,omitempty"`
	// UQ enables posterior sample collection (stereo / flow / segment only):
	// the result carries confidence / entropy / disagreement statistics.
	UQ bool `json:"uq,omitempty"`
	// UQBurnIn is the number of sweeps discarded before collection. 0 (the
	// JSON zero value) selects the default, half the run — an explicit
	// zero-sweep burn-in is not expressible over the wire.
	UQBurnIn int `json:"uq_burnin,omitempty"`
	// UQThin collects every UQThin-th post-burn-in sweep (0 = every sweep).
	UQThin int `json:"uq_thin,omitempty"`
	// UQMarginals additionally inlines the full per-pixel marginal array in
	// the result, subject to the service's inline size cap. Requires UQ.
	UQMarginals bool `json:"uq_marginals,omitempty"`

	// FaultBleed / FaultDark / FaultStuck / FaultDrift are the device-fault
	// injection rates (see fault.Config: per-draw bleed-through probability,
	// SPAD dark counts per time bin, per-row stuck probability, quantum-yield
	// loss per draw). All zero — the default — runs the ideal device.
	// Faults require a hardware sampler (new | prev).
	FaultBleed float64 `json:"fault_bleed,omitempty"`
	FaultDark  float64 `json:"fault_dark,omitempty"`
	FaultStuck float64 `json:"fault_stuck,omitempty"`
	FaultDrift float64 `json:"fault_drift,omitempty"`
	// FaultSeed seeds the dedicated fault RNG streams (0 = derive from Seed).
	FaultSeed uint64 `json:"fault_seed,omitempty"`

	// Segments is the segment count for the segment app (default 4).
	Segments int `json:"segments,omitempty"`

	// N is the ising lattice side (default 32).
	N int `json:"n,omitempty"`
	// T is the ising sampling temperature in units of J (default 2.0).
	T float64 `json:"t,omitempty"`
	// Burn / Measure are the ising discard and measurement sweep counts
	// (defaults 10 / 20; Iterations, when set, overrides Measure).
	Burn    int `json:"burn,omitempty"`
	Measure int `json:"measure,omitempty"`
}

// withDefaults returns the spec with every zero field resolved.
func (s JobSpec) withDefaults() JobSpec {
	if s.Sampler == "" {
		s.Sampler = "new"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Scale < 1 {
		s.Scale = 1
	}
	switch s.App {
	case AppStereo:
		if s.Dataset == "" {
			s.Dataset = "teddy"
		}
	case AppFlow:
		if s.Dataset == "" {
			s.Dataset = "venus"
		}
	case AppSegment:
		if s.Dataset == "" {
			s.Dataset = "bsd00"
		}
		if s.Segments == 0 {
			s.Segments = 4
		}
	case AppIsing:
		if s.N == 0 {
			s.N = 32
		}
		if s.T == 0 {
			s.T = 2.0
		}
		if s.Burn == 0 {
			s.Burn = 10
		}
		if s.Measure == 0 {
			s.Measure = 20
		}
		if s.Iterations > 0 {
			s.Measure = s.Iterations
		}
	}
	return s
}

// Validate reports spec errors a client can fix. Dataset names are checked
// later by the dataset builder (buildDataset), which knows the per-app sets.
func (s JobSpec) Validate() error {
	switch s.App {
	case AppStereo, AppFlow, AppSegment, AppIsing:
	default:
		return fmt.Errorf("serve: unknown app %q (want stereo | flow | segment | ising)", s.App)
	}
	switch s.Sampler {
	case "", "software", "new", "prev":
	default:
		return fmt.Errorf("serve: unknown sampler %q (want software | new | prev)", s.Sampler)
	}
	if s.Iterations < 0 || s.Workers < 0 || s.Scale < 0 || s.TimeoutMS < 0 {
		return fmt.Errorf("serve: iterations, workers, scale and timeout_ms must be non-negative")
	}
	if s.Scale > 8 {
		return fmt.Errorf("serve: scale %d exceeds the serving limit 8", s.Scale)
	}
	if s.Shards != "" {
		if _, err := shard.Parse(s.Shards); err != nil {
			return fmt.Errorf("serve: shards: %w", err)
		}
	}
	if s.App == AppSegment && s.Segments != 0 && (s.Segments < 2 || s.Segments > 32) {
		return fmt.Errorf("serve: segments %d out of [2,32]", s.Segments)
	}
	if s.App == AppIsing {
		if s.N != 0 && (s.N < 4 || s.N > 256) {
			return fmt.Errorf("serve: ising lattice side %d out of [4,256]", s.N)
		}
		if s.T < 0 || s.Burn < 0 || s.Measure < 0 {
			return fmt.Errorf("serve: ising t, burn and measure must be non-negative")
		}
	}
	if s.UQ && s.App == AppIsing {
		return fmt.Errorf("serve: uq is not supported for the ising app (it reports sweep observables, not a labeling posterior)")
	}
	if s.UQMarginals && !s.UQ {
		return fmt.Errorf("serve: uq_marginals requires uq")
	}
	if s.UQBurnIn < 0 || s.UQThin < 0 {
		return fmt.Errorf("serve: uq_burnin and uq_thin must be non-negative")
	}
	// Validate the raw fault fields (not just Active configs): a negative
	// rate must be rejected, not silently treated as "no injection".
	raw := fault.Config{
		BleedThrough: s.FaultBleed, DarkCountPerBin: s.FaultDark,
		StuckRow: s.FaultStuck, Drift: s.FaultDrift,
	}
	if err := raw.Validate(); err != nil {
		return err
	}
	if raw.Active() && s.Sampler == "software" {
		return fmt.Errorf("serve: fault injection requires a hardware sampler (new | prev); the software baseline models no device")
	}
	return nil
}

// faultConfig maps the spec's fault fields onto a fault.Config for the app
// params, nil when every rate is zero (no injection requested). A zero
// fault_seed derives the fault streams from the job's master seed; they are
// salted apart from the label streams either way (see fault.New).
func (s JobSpec) faultConfig() *fault.Config {
	cfg := fault.Config{
		BleedThrough:    s.FaultBleed,
		DarkCountPerBin: s.FaultDark,
		StuckRow:        s.FaultStuck,
		Drift:           s.FaultDrift,
		Seed:            s.FaultSeed,
	}
	if !cfg.Active() {
		return nil
	}
	if cfg.Seed == 0 {
		cfg.Seed = s.Seed
	}
	return &cfg
}

// uqOptions maps the spec's UQ fields onto uq.Options for the app params,
// nil when collection is off. The JSON zero burn-in selects the package
// default (half the run), encoded as uq's negative sentinel.
func (s JobSpec) uqOptions() *uq.Options {
	if !s.UQ {
		return nil
	}
	burn := s.UQBurnIn
	if burn == 0 {
		burn = -1
	}
	return &uq.Options{BurnIn: burn, Thin: s.UQThin}
}

// timeout resolves the per-job deadline from the spec and service bounds.
func (s JobSpec) timeout(def, max time.Duration) time.Duration {
	d := time.Duration(s.TimeoutMS) * time.Millisecond
	if d <= 0 {
		d = def
	}
	if max > 0 && (d <= 0 || d > max) {
		d = max
	}
	return d
}
