package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"

	"rsu/internal/apps/flow"
	"rsu/internal/apps/ising"
	"rsu/internal/apps/segment"
	"rsu/internal/apps/stereo"
	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/serve"
	"rsu/internal/synth"
)

// serveWorkers is the service's worker count: one serving goroutine per
// core of the reference host, each running its job's solve serially.
const serveWorkers = 2

// mixJob is one entry of the fixed serve-mix round.
type mixJob struct {
	spec serve.JobSpec
	key  string // distinct per entry: app/dataset
	px   int    // grid pixels
	L    int    // labels
}

// mixScenes holds the synthesized inputs of every distinct dataset, which
// the replay solves and the computed per-layer sizes use.
type mixScenes struct {
	stereo  map[string]*synth.StereoPair
	flow    map[string]*synth.FlowPair
	segment map[string]*synth.SegScene
}

// mixSeeds is how many seeds each mix entry cycles through. Several seeds
// per dataset steady the run's mean quality; repeats of one (entry, seed)
// pair must still give bit-identical results.
const mixSeeds = 4

// mixRound is the fixed job mix: the 30 segmentation scenes (even ones with
// uq), one ising lattice, three stereo pairs at 100 sweeps and one flow pair
// at 60 sweeps, each under mixSeeds seeds derived from the workload seed.
// The first len/mixSeeds entries are the distinct datasets, each under its
// first seed.
func mixRound(seed uint64) []mixJob {
	var base []serve.JobSpec
	for i := 0; i < 30; i++ {
		base = append(base, serve.JobSpec{App: serve.AppSegment, Dataset: fmt.Sprintf("bsd%02d", i), UQ: i%2 == 0})
	}
	// The ising temperature and sweep counts are set here, not left to the
	// service's defaults, so the replay reads the same values from the spec.
	base = append(base, serve.JobSpec{App: serve.AppIsing, N: 32, T: 2.0, Burn: 10, Measure: 20})
	for _, d := range []string{"teddy", "poster", "art"} {
		base = append(base, serve.JobSpec{App: serve.AppStereo, Dataset: d, Iterations: 100})
	}
	base = append(base, serve.JobSpec{App: serve.AppFlow, Dataset: "venus", Iterations: 60})
	m := make([]mixJob, 0, mixSeeds*len(base))
	for v := 0; v < mixSeeds; v++ {
		for _, s := range base {
			s.Seed = core.StreamSeed(seed, len(m)) | 1
			m = append(m, mixJob{spec: s, key: fmt.Sprintf("%s/%s#%d", s.App, s.Dataset, v)})
		}
	}
	return m
}

// buildScenes synthesizes every distinct dataset of the round and builds
// its MRF tables, filling in the grid sizes. It returns the summed synth
// and table-build times and the summed table bytes.
func buildScenes(round []mixJob) (sc mixScenes, synthS, tableS, tableBytes float64, err error) {
	sc = mixScenes{stereo: map[string]*synth.StereoPair{}, flow: map[string]*synth.FlowPair{}, segment: map[string]*synth.SegScene{}}
	distinct := len(round) / mixSeeds
	defer func() {
		for i := distinct; i < len(round); i++ {
			round[i].px, round[i].L = round[i%distinct].px, round[i%distinct].L
		}
	}()
	for i := range round[:distinct] {
		j := &round[i]
		t0 := time.Now()
		var prob *mrf.Problem
		var t1 time.Time
		switch j.spec.App {
		case serve.AppStereo:
			var pair *synth.StereoPair
			switch j.spec.Dataset {
			case "teddy":
				pair = synth.Teddy(1)
			case "poster":
				pair = synth.Poster(1)
			default:
				pair = synth.Art(1)
			}
			t1 = time.Now()
			sc.stereo[j.spec.Dataset] = pair
			prob = stereo.BuildProblem(pair, stereo.DefaultParams())
		case serve.AppFlow:
			pair := synth.Venus(1)
			t1 = time.Now()
			sc.flow[j.spec.Dataset] = pair
			prob = flow.BuildProblem(pair, flow.DefaultParams())
		case serve.AppSegment:
			var idx int
			if _, err := fmt.Sscanf(j.spec.Dataset, "bsd%d", &idx); err != nil {
				return sc, 0, 0, 0, err
			}
			scene := synth.BSDLike(idx, 4, 1)
			t1 = time.Now()
			sc.segment[j.spec.Dataset] = scene
			p := segment.DefaultParams()
			prob = segment.BuildProblem(scene.Image, segment.FitMeans(scene.Image, scene.Segments, p.KMeansIters), p)
		case serve.AppIsing:
			t1 = time.Now()
			m := ising.DefaultModel()
			m.N = j.spec.N
			prob = m.Problem()
		}
		tab := prob.BuildTables()
		t2 := time.Now()
		j.px, j.L = prob.W*prob.H, prob.Labels
		synthS += t1.Sub(t0).Seconds()
		tableS += t2.Sub(t1).Seconds()
		tableBytes += float64(len(tab.Singles)+len(tab.Pair)) * 8
	}
	return sc, synthS, tableS, tableBytes, nil
}

// qualityOf picks the app's quality score and its reference band.
func qualityOf(app string, ms map[string]float64) (string, float64, band) {
	switch app {
	case serve.AppStereo:
		return "bp", ms["bp"], refMixBP
	case serve.AppFlow:
		return "epe", ms["epe"], refMixEPE
	case serve.AppSegment:
		return "voi", ms["voi"], refMixVoI
	default:
		return "magnetization", ms["magnetization"], refMixMag
	}
}

// mixRun is the serve-mix workload after set-up.
type mixRun struct {
	cfg    config
	round  []mixJob
	scenes mixScenes
	svc    *serve.Service
	// ref holds each entry's warm-up result metrics; every later result of
	// the entry must equal them exactly.
	ref                        map[string]map[string]float64
	rate                       float64
	setup                      timings
	cal                        speedLog
	synthS, tableS, tableBytes float64
}

// check validates one finished job against the band and the reference.
func (m *mixRun) check(rep *report, j mixJob, res *serve.JobResult) bool {
	name, q, b := qualityOf(j.spec.App, res.Metrics)
	if !b.contains(q) {
		rep.fail("%s: %s %.5g outside the reference band [%g, %g]", j.key, name, q, b.lo, b.hi)
		return false
	}
	want, ok := m.ref[j.key]
	if !ok {
		m.ref[j.key] = res.Metrics
		return true
	}
	for k, v := range want {
		if res.Metrics[k] != v {
			rep.fail("%s: %s %v differs from the same job's earlier result %v", j.key, k, res.Metrics[k], v)
			return false
		}
	}
	return true
}

// runSetup builds the scenes, starts the service and warms it with one job
// of every distinct dataset, run one at a time; reps times, keeping the last
// service, and calibrating the host's speed between the repetitions.
func (m *mixRun) runSetup(rep *report, reps int) error {
	for i := 0; i < reps; i++ {
		if m.svc != nil {
			if err := m.svc.Shutdown(context.Background()); err != nil {
				return err
			}
			m.svc = nil
		}
		runtime.GC()
		m.cal.sample(calibPerOp)
		t0 := time.Now()
		round := mixRound(m.cfg.seed)
		scenes, synthS, tableS, tableBytes, err := buildScenes(round)
		if err != nil {
			return err
		}
		svc := serve.New(serve.Config{Workers: serveWorkers})
		m.svc, m.round, m.scenes = svc, round, scenes
		m.synthS, m.tableS, m.tableBytes = synthS, tableS, tableBytes
		spent0 := m.cal.spent
		for _, j := range round[:len(round)/mixSeeds] {
			// One calibration call per warm-up job, so each set-up is
			// scaled by calls made while it ran; their time is left out.
			m.cal.sample(1)
			rep.Attempted++
			job, err := svc.Submit(context.Background(), j.spec)
			if err != nil {
				rep.fail("warm-up %s: %v", j.key, err)
				continue
			}
			res, status, err := job.Wait(context.Background())
			if status != serve.StatusOK {
				rep.fail("warm-up %s: %s: %v", j.key, status, err)
				continue
			}
			m.check(rep, j, res)
		}
		m.setup.add(t0, time.Now(), m.cal.spent-spent0)
	}
	m.cal.sample(calibPerOp)
	return nil
}

// outcome is one scheduled job of the open loop.
type outcome struct {
	entry    int
	traced   bool
	due      time.Time
	lag      time.Duration
	rejected error
	res      *serve.JobResult
	status   serve.JobStatus
	err      error
}

// openPhase is one open-loop run and the service counters it moved.
type openPhase struct {
	outs     []outcome
	depthMax int64
	cache    serve.CacheStats // delta over the phase
	rejected uint64
	expired  uint64
	failed   uint64
}

// openLoop submits rate×d jobs from this goroutine on a seeded, stratified
// Poisson schedule: the jobs come in shuffled rounds of the mix, and each
// round's arrivals are spread uniformly over its own slot of
// len(round)/rate seconds (a Poisson process conditioned on its count per
// slot). Stratifying keeps every slot's share of long jobs fixed, so the
// seed moves where bursts fall but not how much work a slot holds. Each
// accepted job gets a goroutine that waits for it, so completions are
// observed as they happen, never in submission order.
//
// In a traced run every second job captures its run log and is traced; the
// others are not, so drift of the host's speed falls on both alike. While
// it waits for the next due time, the generator calibrates the host's
// speed, at most once per calibEvery.
func (m *mixRun) openLoop(rnd *rand.Rand, d time.Duration, trace bool) openPhase {
	n := int(math.Round(m.rate * d.Seconds()))
	slot := float64(len(m.round)) / m.rate
	offsets := make([]float64, 0, n+len(m.round))
	order := make([]int, 0, n+len(m.round))
	for r := 0; len(order) < n; r++ {
		at := make([]float64, len(m.round))
		for i := range at {
			at[i] = (float64(r) + rnd.Float64()) * slot
		}
		sort.Float64s(at)
		offsets = append(offsets, at...)
		order = append(order, rnd.Perm(len(m.round))...)
	}
	met := m.svc.Metrics()
	before := m.svc.CacheStats()
	rej0, exp0, fail0 := met.Rejected.Load(), met.Expired.Load(), met.Failed.Load()

	ph := openPhase{outs: make([]outcome, n)}
	var wg sync.WaitGroup
	m.cal.sample(calibPerOp)
	start := time.Now()
	lastCal := start
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(offsets[i] * float64(time.Second)))
		if time.Until(due) > calibGap && time.Since(lastCal) >= calibEvery {
			m.cal.sample(1)
			lastCal = time.Now()
		}
		time.Sleep(time.Until(due))
		spec := m.round[order[i]].spec
		traced := trace && i%2 == 1
		spec.CaptureLog = traced
		lag := time.Since(due)
		job, err := m.svc.Submit(context.Background(), spec)
		ph.depthMax = max(ph.depthMax, met.QueueDepth.Load())
		ph.outs[i] = outcome{entry: order[i], traced: traced, due: due, lag: lag, rejected: err}
		if err != nil {
			continue
		}
		wg.Add(1)
		go func(o *outcome) {
			defer wg.Done()
			o.res, o.status, o.err = job.Wait(context.Background())
		}(&ph.outs[i])
	}
	wg.Wait()
	m.cal.sample(calibPerOp)
	after := m.svc.CacheStats()
	ph.cache = serve.CacheStats{
		PairHits: after.PairHits - before.PairHits, PairMisses: after.PairMisses - before.PairMisses,
		DatasetHits: after.DatasetHits - before.DatasetHits, DatasetMisses: after.DatasetMisses - before.DatasetMisses,
		ConvHits: after.ConvHits - before.ConvHits, ConvMisses: after.ConvMisses - before.ConvMisses,
	}
	ph.rejected, ph.expired, ph.failed = met.Rejected.Load()-rej0, met.Expired.Load()-exp0, met.Failed.Load()-fail0
	return ph
}

// The generator calibrates only in gaps longer than calibGap, and at most
// once per calibEvery.
const (
	calibGap   = 8 * time.Millisecond
	calibEvery = 200 * time.Millisecond
)

// jobStats are the per-job numbers of one side's correct jobs.
type jobStats struct {
	latency    timings  // due time to completion
	run        timings  // run start to completion
	apps       []string // app of each latency entry
	queue, lag []float64
	runByApp   map[string][]float64
	bps        []float64
	due        int
}

// score checks every outcome of a phase and collects the numbers of the
// untraced and the traced jobs apart.
func (m *mixRun) score(rep *report, ph openPhase) (plain, traced jobStats) {
	plain.runByApp, traced.runByApp = map[string][]float64{}, map[string][]float64{}
	for _, o := range ph.outs {
		js := &plain
		if o.traced {
			js = &traced
		}
		j := m.round[o.entry]
		rep.Attempted++
		js.due++
		js.lag = append(js.lag, o.lag.Seconds())
		switch {
		case o.rejected != nil:
			rep.fail("%s: rejected: %v", j.key, o.rejected)
			continue
		case o.status != serve.StatusOK:
			rep.fail("%s: %s: %v", j.key, o.status, o.err)
			continue
		}
		if !m.check(rep, j, o.res) {
			continue
		}
		lat := o.lag + time.Duration(o.res.QueueNS+o.res.RunNS)
		js.latency.add(o.due, o.due.Add(lat), 0)
		js.run.add(o.due.Add(lat-time.Duration(o.res.RunNS)), o.due.Add(lat), 0)
		js.apps = append(js.apps, j.spec.App)
		js.queue = append(js.queue, float64(o.res.QueueNS)/1e9)
		js.runByApp[j.spec.App] = append(js.runByApp[j.spec.App], float64(o.res.RunNS)/1e9)
		if j.spec.App == serve.AppStereo {
			js.bps = append(js.bps, o.res.Metrics["bp"])
		}
	}
	return plain, traced
}

// endToEnd renders the open-loop metrics of the untraced jobs. Times are
// scaled to the reference host's speed; the raw p50s are in the notes.
// A job meets its limit when it finished correct within its app's limit;
// rejected, expired, failed and incorrect jobs miss.
func (m *mixRun) endToEnd(rep *report, js jobStats) []metric {
	n := len(js.latency.raw)
	scaled := js.latency.scaled(&m.cal)
	run := js.run.scaled(&m.cal)
	met := 0
	for i, l := range scaled {
		if l <= refMixSLO[js.apps[i]] {
			met++
		}
	}
	lv, lp, lb := tail(scaled)
	rep.note("load generator: %d jobs due at %.1f jobs/s; submit lag p50 %.3g s, max %.3g s",
		js.due, m.rate, median(js.lag), maxOf(js.lag))
	return []metric{
		{Name: "solve_p50_s", Value: median(run), Unit: "s", N: n,
			Note: fmt.Sprintf("the job's run time in the service; raw wall p50 %.6g s", median(js.run.raw))},
		{Name: "latency_p50_s", Value: median(scaled), Unit: "s", N: n,
			Note: fmt.Sprintf("from due time to completion; raw wall p50 %.6g s", median(js.latency.raw))},
		{Name: "latency_tail_s", Value: lv, Unit: "s", N: n, Note: fmt.Sprintf("p%.1f, %d jobs beyond", lp, lb)},
		{Name: "slo_met_ratio", Value: ratio(met, js.due), Unit: "ratio", N: js.due, Note: "per-app limits frozen from the seed commit"},
		{Name: "quality_bp_pct", Value: mean(js.bps), Unit: "%", N: len(js.bps), Note: "stereo jobs of the mix"},
	}
}

func runServeMix(cfg config) (*report, error) {
	m := &mixRun{cfg: cfg, ref: map[string]map[string]float64{}, rate: refMixRate, cal: refCalibMix}
	reps := 7
	if cfg.tiny {
		reps = 1
	}
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		SolverThreads: serveWorkers}
	if err := m.runSetup(rep, reps); err != nil {
		return nil, err
	}
	// When this runs every accepted job has finished, so the drain is
	// immediate.
	defer func() { _ = m.svc.Shutdown(context.Background()) }()
	rnd := rand.New(rand.NewPCG(cfg.seed, 0x5e7e))
	d := time.Duration(cfg.seconds * float64(time.Second))
	ph := m.openLoop(rnd, d, cfg.trace)
	plain, traced := m.score(rep, ph)
	rep.EndToEnd = append(rep.EndToEnd, setupMetric(m.setup, &m.cal,
		"median of repeated scene and table builds, service start and one warm-up job per distinct dataset"))
	rep.EndToEnd = append(rep.EndToEnd, m.endToEnd(rep, plain)...)
	rep.calibNote(&m.cal)
	rep.Samples = map[string][]float64{"latency_s": plain.latency.raw, "latency_scaled_s": plain.latency.scaled(&m.cal),
		"run_s": plain.run.raw, "calib_s": m.cal.cost, "setup_raw_s": m.setup.raw}
	if !cfg.trace {
		return rep, nil
	}
	tr := newTracer()
	sweepS, flips, draws, bytesPxSw, pxSw, collect := m.jobSpans(tr, ph)
	rep.spans = tr.spans
	share := reconcile(rep, "job", "job", "app.solve")

	// The service runs its solvers where no decorator can reach, so the
	// sampler-level numbers come from replaying each entry of the mix once
	// through its app entry point with observing samplers; the replay must
	// reproduce the service's results exactly.
	rtr := newTracer()
	acc, cc, err := m.replay(rep, rtr)
	if err != nil {
		return nil, err
	}
	for _, s := range rtr.spans {
		s.ID += len(tr.spans)
		if s.Parent != 0 {
			s.Parent += len(tr.spans)
		}
		s.Req += len(ph.outs)
		rep.spans = append(rep.spans, s)
	}

	layer := acc.layerMetrics()
	set(layer, "mrf.sweep_s", median(sweepS), len(sweepS), "p50 over the served jobs' run logs")
	set(layer, "mrf.flip_ratio", ratio64(flips, draws), len(sweepS), "served jobs")
	convLookups := cc.Hits + cc.Misses
	rep.PerLayer = append(rep.PerLayer,
		metric{Name: "synth.build_s", Value: m.synthS, Unit: "s", N: len(m.round) / mixSeeds, Note: "sum over the mix's datasets"},
		metric{Name: "mrf.tables.build_s", Value: m.tableS, Unit: "s", N: len(m.round) / mixSeeds, Note: "sum over the mix's datasets"},
		metric{Name: "mrf.tables.bytes", Value: m.tableBytes, Unit: "B", N: len(m.round) / mixSeeds, Note: "computed, sum over the mix's datasets"},
		metric{Name: "mrf.bytes_per_px_sweep", Value: bytesPxSw / pxSw, Unit: "B", N: len(sweepS), Note: "computed, px-sweep weighted over served jobs"},
		metric{Name: "core.convcache.hit_ratio", Value: ratio(int(cc.Hits), int(convLookups)), Unit: "ratio", N: int(convLookups), Note: "replay's shared cache"},
	)
	rep.PerLayer = append(rep.PerLayer, layer...)
	hits := func(h, mi uint64) float64 { return ratio(int(h), int(h+mi)) }
	qv, qp, qb := tail(traced.queue)
	rep.PerLayer = append(rep.PerLayer,
		metric{Name: "uq.collect_s", Value: median(collect), Unit: "s", N: len(collect), Note: "p50 per uq job"},
		metric{Name: "serve.queue_wait_s.p50", Value: median(traced.queue), Unit: "s", N: len(traced.queue)},
		metric{Name: "serve.queue_wait_s.tail", Value: qv, Unit: "s", N: len(traced.queue), Note: fmt.Sprintf("p%.1f, %d jobs beyond", qp, qb)},
		metric{Name: "serve.rejected", Value: float64(ph.rejected), Unit: "count", N: len(ph.outs)},
		metric{Name: "serve.expired", Value: float64(ph.expired), Unit: "count", N: len(ph.outs)},
		metric{Name: "serve.failed", Value: float64(ph.failed), Unit: "count", N: len(ph.outs)},
		metric{Name: "serve.queue_depth_max", Value: float64(ph.depthMax), Unit: "count", N: len(ph.outs)},
		metric{Name: "serve.cache.pair_hit_ratio", Value: hits(ph.cache.PairHits, ph.cache.PairMisses), Unit: "ratio", N: len(ph.outs)},
		metric{Name: "serve.cache.dataset_hit_ratio", Value: hits(ph.cache.DatasetHits, ph.cache.DatasetMisses), Unit: "ratio", N: len(ph.outs)},
		metric{Name: "serve.cache.conv_hit_ratio", Value: hits(ph.cache.ConvHits, ph.cache.ConvMisses), Unit: "ratio", N: len(ph.outs)},
		metric{Name: "loadgen.lag_s.p50", Value: median(traced.lag), Unit: "s", N: len(traced.lag)},
		metric{Name: "loadgen.lag_s.max", Value: maxOf(traced.lag), Unit: "s", N: len(traced.lag)},
		metric{Name: "trace.reconciled_share", Value: share, Unit: "ratio", N: len(traced.latency.raw)},
		overhead(median(traced.latency.raw), median(plain.latency.raw), len(traced.latency.raw)),
	)
	for _, app := range serve.Apps() {
		rs := traced.runByApp[app]
		rep.PerLayer = append(rep.PerLayer, metric{Name: "serve.run_s." + app, Value: median(rs), Unit: "s", N: len(rs), Note: "p50"})
	}
	return rep, nil
}

// set overwrites one metric of ms in place.
func set(ms []metric, name string, v float64, n int, note string) {
	for i := range ms {
		if ms[i].Name == name {
			ms[i].Value, ms[i].N, ms[i].Note = v, n, note
		}
	}
}

// runLogLine is the part of a serve run-log record the trace reads.
type runLogLine struct {
	Flips     int   `json:"flips"`
	ElapsedNs int64 `json:"elapsed_ns"`
}

// jobSpans turns each correct traced job into spans: job (due to
// completion) → serve.queue (due to run start) and app.solve (the run) →
// mrf.sweep and uq.collect. Sweep and collect times come from the job's run
// log and UQ summary, which carry durations but no instants, so they are
// laid end to end from the run's start (marked aggregated).
func (m *mixRun) jobSpans(tr *tracer, ph openPhase) (sweepS []float64, flips, draws int64, bytesPxSw, pxSw float64, collect []float64) {
	for i, o := range ph.outs {
		if !o.traced || o.rejected != nil || o.status != serve.StatusOK {
			continue
		}
		j := m.round[o.entry]
		req := i + 1
		due := tr.at(o.due)
		runStart := due + o.lag.Nanoseconds() + o.res.QueueNS
		end := runStart + o.res.RunNS
		job := tr.add(span{Req: req, Name: "job", Start: due, End: end})
		tr.add(span{Parent: job, Req: req, Name: "serve.queue", Start: due, End: runStart})
		app := tr.add(span{Parent: job, Req: req, Name: "app.solve", Start: runStart, End: end})
		cursor := runStart
		for _, line := range o.res.RunLog {
			var rec runLogLine
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				continue
			}
			tr.add(span{Parent: app, Req: req, Name: "mrf.sweep", Start: cursor, End: cursor + rec.ElapsedNs, Agg: true})
			cursor += rec.ElapsedNs
			sweepS = append(sweepS, float64(rec.ElapsedNs)/1e9)
			flips += int64(rec.Flips)
			draws += int64(j.px)
		}
		if o.res.UQ != nil {
			c := o.res.UQ.CollectSeconds
			collect = append(collect, c)
			tr.add(span{Parent: app, Req: req, Name: "uq.collect", Start: cursor, End: cursor + int64(c*1e9), Agg: true})
		}
		w := float64(j.px * o.res.Sweeps)
		pxSw += w
		bytesPxSw += w * bytesPerPxSweep(j.L)
	}
	return
}

// replay solves each distinct dataset once through its app entry point with
// observing samplers built the way the service builds them (one shared
// conversion cache, one solver worker), and checks the result equals the
// service's.
func (m *mixRun) replay(rep *report, tr *tracer) (*layerAcc, core.ConverterCacheStats, error) {
	cc := core.NewConverterCache(0)
	build, err := core.CachedSamplerBuilder("new", cc)
	if err != nil {
		return nil, core.ConverterCacheStats{}, err
	}
	acc := &layerAcc{tiles: 1}
	for _, j := range m.round[:len(m.round)/mixSeeds] {
		probe := &solveProbe{}
		factory := probe.factory(core.StreamFactory(j.spec.Seed, build), m.cfg.wrapTraced)
		start := time.Now()
		got, err := replayOne(m.scenes, j.spec, factory, probe.onSweep)
		end := time.Now()
		rep.Attempted++
		if err != nil {
			rep.fail("replay %s: %v", j.key, err)
			continue
		}
		for k, v := range m.ref[j.key] {
			if got[k] != v {
				rep.fail("replay %s: %s %v differs from the service's %v", j.key, k, got[k], v)
				break
			}
		}
		req := rep.Attempted
		app := tr.add(span{Req: req, Name: "replay.app.solve", Start: tr.at(start), End: tr.at(end)})
		ms := tr.add(span{Parent: app, Req: req, Name: "mrf.solve", Start: tr.at(probe.firstFactory), End: tr.at(probe.lastReturn)})
		probe.emit(tr, acc, req, ms, j.px)
	}
	return acc, cc.Stats(), nil
}

// replayOne mirrors the service's per-app parameters for one spec.
func replayOne(sc mixScenes, s serve.JobSpec, factory func(int) core.LabelSampler, onSweep func(int, *img.Labels, mrf.SolveStats)) (map[string]float64, error) {
	switch s.App {
	case serve.AppStereo:
		p := stereo.DefaultParams()
		p.Schedule.Iterations = s.Iterations
		p.SamplerFactory, p.Workers, p.OnSweep = factory, 1, onSweep
		r, err := stereo.Solve(sc.stereo[s.Dataset], nil, p)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"bp": r.BP, "rms": r.RMS}, nil
	case serve.AppFlow:
		p := flow.DefaultParams()
		p.Schedule.Iterations = s.Iterations
		p.SamplerFactory, p.Workers, p.OnSweep = factory, 1, onSweep
		r, err := flow.Solve(sc.flow[s.Dataset], nil, p)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"epe": r.EPE}, nil
	case serve.AppSegment:
		p := segment.DefaultParams()
		p.SamplerFactory, p.Workers, p.OnSweep = factory, 1, onSweep
		r, err := segment.Solve(sc.segment[s.Dataset], nil, p)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"voi": r.Scores.VoI, "pri": r.Scores.PRI, "gce": r.Scores.GCE, "bde": r.Scores.BDE}, nil
	default:
		md := ising.DefaultModel()
		md.N = s.N
		md.SamplerFactory, md.Workers, md.OnSweep = factory, 1, onSweep
		obs, err := md.Run(nil, s.T, s.Burn, s.Measure, s.Seed)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"magnetization": obs.Magnetization, "energy": obs.Energy}, nil
	}
}

// zeroServeMetrics are the serve-layer metrics of a workload that bypasses
// the service: every one is zero by construction.
func zeroServeMetrics(note string) []metric {
	names := []string{"uq.collect_s", "serve.queue_wait_s.p50", "serve.queue_wait_s.tail", "serve.rejected", "serve.expired",
		"serve.failed", "serve.queue_depth_max", "serve.cache.pair_hit_ratio", "serve.cache.dataset_hit_ratio",
		"serve.cache.conv_hit_ratio", "loadgen.lag_s.p50", "loadgen.lag_s.max"}
	for _, app := range serve.Apps() {
		names = append(names, "serve.run_s."+app)
	}
	out := make([]metric, len(names))
	for i, n := range names {
		unit := "s"
		switch {
		case n == "serve.rejected" || n == "serve.expired" || n == "serve.failed" || n == "serve.queue_depth_max":
			unit = "count"
		case len(n) > 6 && n[len(n)-6:] == "_ratio":
			unit = "ratio"
		}
		out[i] = metric{Name: n, Unit: unit, Note: note}
	}
	return out
}
