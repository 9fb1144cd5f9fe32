package serve

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"

	"rsu/internal/apps"
	"rsu/internal/apps/flow"
	"rsu/internal/apps/ising"
	"rsu/internal/apps/segment"
	"rsu/internal/apps/stereo"
	"rsu/internal/checkpoint"
	"rsu/internal/core"
	"rsu/internal/fault"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/shard"
	"rsu/internal/synth"
	"rsu/internal/uq"
)

// JobResult is the outcome of one inference job, the JSON body of a
// successful POST /jobs response.
type JobResult struct {
	ID      string `json:"id"`
	App     string `json:"app"`
	Dataset string `json:"dataset,omitempty"`
	Sampler string `json:"sampler"`
	// Metrics holds the app's quality scores: stereo bp/rms, flow epe,
	// segment the four BISIP scores, ising magnetization/energy.
	Metrics map[string]float64 `json:"metrics"`
	// PairLUTHit reports whether the job's pairwise smoothness LUT came out
	// of the shared-artifact cache.
	PairLUTHit bool `json:"pair_lut_hit"`
	// DatasetHit reports whether the input scene came out of the cache.
	DatasetHit bool `json:"dataset_hit"`
	// QueueNS and RunNS break the job's latency into queue wait and solve
	// time, in nanoseconds.
	QueueNS int64 `json:"queue_ns"`
	RunNS   int64 `json:"run_ns"`
	// Sweeps is the number of solver sweeps observed.
	Sweeps int `json:"sweeps"`
	// RunLog holds the per-sweep JSONL records when the spec asked for
	// capture_log.
	RunLog []string `json:"run_log,omitempty"`
	// UQ holds the posterior-marginal summary (and optionally the inlined
	// marginal array) when the spec asked for uq.
	UQ *UQResult `json:"uq,omitempty"`
	// Faults holds the device-fault injection report when the spec set any
	// fault rate: the config that ran, per-fault-type injected-event
	// counters, and — when uq also ran — the degradation verdict.
	Faults *fault.Report `json:"faults,omitempty"`
	// Degraded mirrors Faults.Degraded at the top level so clients can gate
	// on one boolean: true when the posterior confidence collapsed below
	// fault.DegradedConfidence under active fault injection.
	Degraded bool `json:"degraded,omitempty"`
	// Resumed reports that this job continued from a recovered drain
	// checkpoint rather than starting fresh; ResumedSweep is the sweep index
	// the resumed solve picked up at. Sweeps then counts only the tail leg.
	Resumed      bool `json:"resumed,omitempty"`
	ResumedSweep int  `json:"resumed_sweep,omitempty"`
}

// maxInlineMarginals caps the marginal values a result may inline
// (W*H*Labels float64s); larger problems get the summary only, flagged by
// MarginalsOmitted. 1M values keeps the JSON body under ~25 MB worst case —
// teddy at scale 1 (64x48x56 = 172k values) fits comfortably.
const maxInlineMarginals = 1 << 20

// UQResult is the uncertainty-quantification block of a job result: the
// flat summary statistics plus, on request and within the size cap, the full
// per-pixel marginal array.
type UQResult struct {
	uq.Summary
	// W / H / Labels give Marginals its shape ((y*W+x)*Labels + l); set only
	// when Marginals is present.
	W      int `json:"w,omitempty"`
	H      int `json:"h,omitempty"`
	Labels int `json:"labels,omitempty"`
	// Marginals is the flattened per-pixel marginal array, present when the
	// spec asked for uq_marginals and the problem fits the inline cap.
	Marginals []float64 `json:"marginals,omitempty"`
	// MarginalsOmitted reports that uq_marginals was requested but the
	// problem exceeded the inline cap.
	MarginalsOmitted bool `json:"marginals_omitted,omitempty"`
}

// uqResult condenses a solve's uq.Result into the wire block and feeds the
// collection-overhead histogram. r may be nil (UQ off — returns nil).
func uqResult(r *uq.Result, point *img.Labels, s JobSpec, metrics *Metrics) (*UQResult, error) {
	if r == nil {
		return nil, nil
	}
	sum, err := r.Summarize(point)
	if err != nil {
		return nil, err
	}
	out := &UQResult{Summary: sum}
	if s.UQMarginals {
		if len(r.Marginals) <= maxInlineMarginals {
			out.W, out.H, out.Labels = r.W, r.H, r.Labels
			out.Marginals = r.Marginals
		} else {
			out.MarginalsOmitted = true
		}
	}
	metrics.ObserveUQ(s.App, r.CollectSeconds)
	return out, nil
}

// reportFaults copies an app's fault report into the job result and feeds
// the per-fault-type metrics counters. nil (no injection) is a no-op.
func reportFaults(res *JobResult, rep *fault.Report, metrics *Metrics) {
	if rep == nil {
		return
	}
	res.Faults = rep
	res.Degraded = rep.Degraded
	metrics.ObserveFaults(rep)
}

// buildDataset resolves (building and caching) the synthetic input scene.
// The key folds in every spec field the scene depends on.
func buildDataset(cache *ArtifactCache, s JobSpec) (any, bool, error) {
	switch s.App {
	case AppStereo:
		build, err := synth.StereoDataset(s.Dataset)
		if err != nil {
			return nil, false, err
		}
		key := fmt.Sprintf("stereo/%s/%d", s.Dataset, s.Scale)
		return cache.datasets.Get(key, func() (any, error) { return build(s.Scale), nil })
	case AppFlow:
		build, err := synth.FlowDataset(s.Dataset)
		if err != nil {
			return nil, false, err
		}
		key := fmt.Sprintf("flow/%s/%d", s.Dataset, s.Scale)
		return cache.datasets.Get(key, func() (any, error) { return build(s.Scale), nil })
	case AppSegment:
		idx, err := bsdIndex(s.Dataset)
		if err != nil {
			return nil, false, err
		}
		key := fmt.Sprintf("segment/%s/%d/%d", s.Dataset, s.Segments, s.Scale)
		return cache.datasets.Get(key, func() (any, error) { return synth.BSDLike(idx, s.Segments, s.Scale), nil })
	default:
		return nil, false, nil // ising needs no dataset
	}
}

// bsdIndex parses the segment dataset name bsd00 .. bsd29.
func bsdIndex(name string) (int, error) {
	if n, ok := strings.CutPrefix(name, "bsd"); ok {
		if i, err := strconv.Atoi(n); err == nil && i >= 0 && i < 30 {
			return i, nil
		}
	}
	return 0, fmt.Errorf("serve: unknown segment dataset %q (want bsd00 .. bsd29)", name)
}

// runJob executes one job on the calling worker goroutine: resolve the
// dataset and pairwise LUT from the artifact cache, build the per-stream
// samplers with the shared conversion-table cache attached, and drive the
// app's solver under the job context. The context bounds the whole solve
// (the solver checks it between sweeps).
func runJob(ctx context.Context, id string, spec JobSpec, cache *ArtifactCache, metrics *Metrics, solverWorkers int, plan *checkpoint.Plan) (*JobResult, error) {
	s := spec.withDefaults()
	res := &JobResult{
		ID: id, App: s.App, Dataset: s.Dataset, Sampler: s.Sampler,
		Metrics: make(map[string]float64),
	}
	if s.App == AppIsing {
		res.Dataset = ""
	}

	build, err := core.CachedSamplerBuilder(s.Sampler, cache.Converter())
	if err != nil {
		return nil, err
	}
	factory := core.StreamFactory(s.Seed, build)
	workers := s.Workers
	if workers <= 0 {
		workers = solverWorkers
	}
	if workers <= 0 {
		workers = 1
	}
	// Validate() vetted the spec string, so a parse failure here is a bug.
	var shards shard.Geometry
	if s.Shards != "" {
		if shards, err = shard.Parse(s.Shards); err != nil {
			return nil, fmt.Errorf("serve: shards: %w", err)
		}
	}

	ds, dsHit, err := buildDataset(cache, s)
	if err != nil {
		return nil, err
	}
	res.DatasetHit = dsHit

	// Per-job run-log capture plus the sweep-latency histogram feed. The
	// solver's OnSweep contract delivers a reused labeling buffer; neither
	// consumer retains it.
	var logBuf bytes.Buffer
	var runlog *mrf.RunLog
	if s.CaptureLog {
		runlog = mrf.NewRunLog(&logBuf)
	}
	sweeps := 0
	onSweep := func(iter int, lab *img.Labels, st mrf.SolveStats) {
		sweeps++
		metrics.ObserveSweep(s.App, st.Elapsed.Seconds())
	}
	if runlog != nil {
		onSweep = runlog.Hook(id, onSweep)
	}

	// The options every app shares; each case adds its cached pair LUT.
	shared := apps.Options{
		SamplerFactory: factory, Workers: workers, Shards: shards, Ctx: ctx, OnSweep: onSweep,
		UQ: s.uqOptions(), Faults: s.faultConfig(), Checkpoint: plan,
	}
	switch s.App {
	case AppStereo:
		pair := ds.(*synth.StereoPair)
		p := stereo.DefaultParams()
		if s.Iterations > 0 {
			p.Schedule.Iterations = s.Iterations
		}
		p.Options = shared
		prob := stereo.BuildProblem(pair, p)
		key := fmt.Sprintf("stereo/L%d/w%g/c%g", prob.Labels, p.SmoothWeight, p.SmoothCap)
		p.PairLUT, res.PairLUTHit, err = cache.pairLUT(key, prob)
		if err != nil {
			return nil, err
		}
		r, err := stereo.Solve(pair, nil, p)
		if err != nil {
			return nil, err
		}
		res.Metrics["bp"] = r.BP
		res.Metrics["rms"] = r.RMS
		if res.UQ, err = uqResult(r.UQ, r.Disparity, s, metrics); err != nil {
			return nil, err
		}
		reportFaults(res, r.Faults, metrics)
	case AppFlow:
		pair := ds.(*synth.FlowPair)
		p := flow.DefaultParams()
		if s.Iterations > 0 {
			p.Schedule.Iterations = s.Iterations
		}
		p.Options = shared
		prob := flow.BuildProblem(pair, p)
		key := fmt.Sprintf("flow/r%d/w%g/c%g", pair.Radius, p.SmoothWeight, p.SmoothCap)
		p.PairLUT, res.PairLUTHit, err = cache.pairLUT(key, prob)
		if err != nil {
			return nil, err
		}
		r, err := flow.Solve(pair, nil, p)
		if err != nil {
			return nil, err
		}
		res.Metrics["epe"] = r.EPE
		if res.UQ, err = uqResult(r.UQ, r.Labels, s, metrics); err != nil {
			return nil, err
		}
		reportFaults(res, r.Faults, metrics)
	case AppSegment:
		scene := ds.(*synth.SegScene)
		p := segment.DefaultParams()
		if s.Iterations > 0 {
			p.Iterations = s.Iterations
		}
		p.Options = shared
		// The Potts LUT depends only on the segment count and smoothness
		// weight; dummy means of the right length give the same table.
		prob := segment.BuildProblem(scene.Image, make([]float64, scene.Segments), p)
		key := fmt.Sprintf("segment/L%d/w%g", scene.Segments, p.SmoothWeight)
		p.PairLUT, res.PairLUTHit, err = cache.pairLUT(key, prob)
		if err != nil {
			return nil, err
		}
		r, err := segment.Solve(scene, nil, p)
		if err != nil {
			return nil, err
		}
		res.Metrics["voi"] = r.Scores.VoI
		res.Metrics["pri"] = r.Scores.PRI
		res.Metrics["gce"] = r.Scores.GCE
		res.Metrics["bde"] = r.Scores.BDE
		if res.UQ, err = uqResult(r.UQ, r.Labeling, s, metrics); err != nil {
			return nil, err
		}
		reportFaults(res, r.Faults, metrics)
	case AppIsing:
		m := ising.DefaultModel()
		m.N = s.N
		m.Options = shared
		prob := m.Problem()
		key := fmt.Sprintf("ising/J%g/H%g", m.J, m.H)
		m.PairLUT, res.PairLUTHit, err = cache.pairLUT(key, prob)
		if err != nil {
			return nil, err
		}
		obs, err := m.Run(nil, s.T, s.Burn, s.Measure, s.Seed)
		if err != nil {
			return nil, err
		}
		res.Metrics["magnetization"] = obs.Magnetization
		res.Metrics["energy"] = obs.Energy
		reportFaults(res, obs.Faults, metrics)
	}

	if !shards.IsZero() {
		metrics.ShardedJobs.Add(1)
	}
	if plan != nil {
		if snap := plan.Resumed(); snap != nil {
			res.Resumed = true
			res.ResumedSweep = snap.State.NextSweep
		}
	}
	res.Sweeps = sweeps
	if runlog != nil {
		lines := strings.Split(strings.TrimRight(logBuf.String(), "\n"), "\n")
		if len(lines) == 1 && lines[0] == "" {
			lines = nil
		}
		res.RunLog = lines
	}
	return res, nil
}
