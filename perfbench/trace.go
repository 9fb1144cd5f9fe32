package main

import (
	"errors"
	"sort"
	"sync"
	"time"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
)

// span is one traced interval. Spans of one solve or job share Req.
// Aggregated spans are not single calls: they hold the busy time summed over
// every call of one stream in one sweep, placed at the point of the sweep
// where that work runs (see solveProbe.emit).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Stream int    `json:"stream,omitempty"`
	Agg    bool   `json:"aggregated,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.t0).Nanoseconds() }

// add records a span and returns its ID.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTimes sums, per span name, the span durations and their self times:
// each span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.total += d
		lt.self += d - covered(s, children[s.ID])
		lt.n++
	}
	return out
}

type layerTime struct {
	total, self int64
	n           int
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			sum += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return sum + curB - curA
}

// streamRec is one sampler stream's observed work, per sweep. The sweep
// index is the stream's own SetTemperature count: every solver engine sets
// each stream's temperature exactly once at the start of a sweep.
type streamRec struct {
	temp   []int64 // SetTemperature busy ns, per sweep
	sample []int64 // SampleBatch and Sample busy ns, per sweep
	calls  int64   // SampleBatch calls; a Sample call counts as a batch of one
	px     int64   // pixels drawn
	labels int64   // pixel·label evaluations
	temps  int64   // SetTemperature calls
}

// tracedSampler observes a sampler's calls and forwards every optional
// interface the solvers probe for, so the solve takes the same path, and
// draws the same labels, as it does with the bare sampler.
type tracedSampler struct {
	inner core.LabelSampler
	batch core.BatchSampler
	rec   *streamRec
}

var (
	_ core.BatchSampler    = (*tracedSampler)(nil)
	_ core.Checkpointable  = (*tracedSampler)(nil)
	_ core.FaultInjectable = (*tracedSampler)(nil)
)

func (s *tracedSampler) SetTemperature(T float64) error {
	t0 := time.Now()
	err := s.inner.SetTemperature(T)
	s.rec.temp = append(s.rec.temp, time.Since(t0).Nanoseconds())
	s.rec.sample = append(s.rec.sample, 0)
	s.rec.temps++
	return err
}

func (s *tracedSampler) addSample(d time.Duration, px, labels int) {
	if len(s.rec.sample) == 0 {
		s.rec.temp, s.rec.sample = append(s.rec.temp, 0), append(s.rec.sample, 0)
	}
	s.rec.sample[len(s.rec.sample)-1] += d.Nanoseconds()
	s.rec.calls++
	s.rec.px += int64(px)
	s.rec.labels += int64(px * labels)
}

func (s *tracedSampler) Sample(energies []float64, current int) (int, error) {
	t0 := time.Now()
	l, err := s.inner.Sample(energies, current)
	s.addSample(time.Since(t0), 1, len(energies))
	return l, err
}

func (s *tracedSampler) SampleBatch(energies []float64, stride int, currents, out []int) error {
	t0 := time.Now()
	err := s.batch.SampleBatch(energies, stride, currents, out)
	s.addSample(time.Since(t0), len(currents), stride)
	return err
}

func (s *tracedSampler) CaptureState() (core.SamplerState, error) {
	c, ok := s.inner.(core.Checkpointable)
	if !ok {
		return core.SamplerState{}, errors.New("perfbench: traced sampler wraps a sampler that is not checkpointable")
	}
	return c.CaptureState()
}

func (s *tracedSampler) RestoreState(st core.SamplerState) error {
	c, ok := s.inner.(core.Checkpointable)
	if !ok {
		return errors.New("perfbench: traced sampler wraps a sampler that is not checkpointable")
	}
	return c.RestoreState(st)
}

func (s *tracedSampler) SetFaultInjector(f core.FaultInjector) {
	if fi, ok := s.inner.(core.FaultInjectable); ok {
		fi.SetFaultInjector(f)
	}
}

// sweepObs is one OnSweep observation.
type sweepObs struct {
	start, end time.Time
	flips      int
}

// captureObs is one checkpoint capture: from the previous OnSweep return to
// OnCheckpoint entry, then the in-memory encode.
type captureObs struct {
	sweepReturn, entry, encStart, encEnd time.Time
	bytes                                int
}

// solveProbe observes one solve from outside: the sampler streams it builds
// through the factory, its OnSweep reports and its checkpoint captures.
// Everything is written on the goroutine driving the solve or by a stream's
// executor between the solver's phase barriers, and read after the solve
// returns.
type solveProbe struct {
	streams      []*streamRec
	firstFactory time.Time
	sweeps       []sweepObs
	lastReturn   time.Time
	captures     []captureObs
}

// factory decorates inner's streams. wrap, when non-nil, is applied under
// the observing decorator.
func (p *solveProbe) factory(inner func(int) core.LabelSampler, wrap func(core.LabelSampler) core.LabelSampler) func(int) core.LabelSampler {
	return func(stream int) core.LabelSampler {
		if p.firstFactory.IsZero() {
			p.firstFactory = time.Now()
		}
		s := inner(stream)
		if wrap != nil {
			s = wrap(s)
		}
		rec := &streamRec{}
		p.streams = append(p.streams, rec)
		return &tracedSampler{inner: s, batch: core.AsBatch(s), rec: rec}
	}
}

func (p *solveProbe) onSweep(_ int, _ *img.Labels, st mrf.SolveStats) {
	now := time.Now()
	p.sweeps = append(p.sweeps, sweepObs{start: now.Add(-st.Elapsed), end: now, flips: st.Flips})
	p.lastReturn = time.Now()
}

// layerAcc accumulates per-layer observations over the traced solves.
type layerAcc struct {
	sweepWall  []float64 // s per sweep
	nonSample  []float64 // s per sweep
	busySum    float64   // Σ stream busy, s
	execWall   float64   // Σ executors × sweep wall, s
	imbalance  []float64 // max ÷ mean stream busy, per sweep
	flips      int64
	draws      int64
	sbCalls    int64
	sbPx       int64
	sbLabels   int64
	sbBusy     float64
	stCalls    int64
	stBusy     float64
	tiles      int
	captures   int
	ckBytes    int64
	encode     []float64
	captureLag []float64
}

// emit turns the probe's observations into spans under mrfSolve and folds
// them into acc. Within a sweep the driving goroutine first sets every
// stream's temperature in stream order, then the executors draw; so the
// set_temperature spans are laid end to end from the sweep start, and the
// sample_batch spans follow them, end to end per executor in the order the
// engines assign streams to executors. The union of a sweep's children is
// then its blocking sampler time, and its self time the non-sample rest:
// gather, scatter, barrier wait and halo exchange.
func (p *solveProbe) emit(tr *tracer, acc *layerAcc, req, mrfSolve int, pixels int) {
	executors := solverExecutors(len(p.streams))
	for k, sw := range p.sweeps {
		id := tr.add(span{Parent: mrfSolve, Req: req, Name: "mrf.sweep", Start: tr.at(sw.start), End: tr.at(sw.end)})
		wall := sw.end.Sub(sw.start).Seconds()
		cursor := tr.at(sw.start)
		var busy []float64
		var tempAll int64
		for si, st := range p.streams {
			if k >= len(st.temp) {
				continue
			}
			tr.add(span{Parent: id, Req: req, Name: "core.set_temperature", Start: cursor, End: cursor + st.temp[k], Stream: si, Agg: true})
			cursor += st.temp[k]
			tempAll += st.temp[k]
			busy = append(busy, float64(st.temp[k]+st.sample[k])/1e9)
		}
		// Executor e runs the contiguous block of streams
		// [e*n/executors, (e+1)*n/executors), one after another.
		n := len(p.streams)
		maxSample := int64(0)
		for e := 0; e < executors; e++ {
			at := cursor
			for si := e * n / executors; si < (e+1)*n/executors; si++ {
				st := p.streams[si]
				if k >= len(st.sample) {
					continue
				}
				tr.add(span{Parent: id, Req: req, Name: "core.sample_batch", Start: at, End: at + st.sample[k], Stream: si, Agg: true})
				at += st.sample[k]
			}
			maxSample = max(maxSample, at-cursor)
		}
		acc.sweepWall = append(acc.sweepWall, wall)
		acc.nonSample = append(acc.nonSample, wall-float64(tempAll+maxSample)/1e9)
		acc.busySum += sumOf(busy)
		acc.execWall += float64(executors) * wall
		if m := mean(busy); m > 0 {
			acc.imbalance = append(acc.imbalance, maxOf(busy)/m)
		}
		acc.flips += int64(sw.flips)
		acc.draws += int64(pixels)
	}
	for _, st := range p.streams {
		acc.sbCalls += st.calls
		acc.sbPx += st.px
		acc.sbLabels += st.labels
		acc.sbBusy += float64(sumInt(st.sample)) / 1e9
		acc.stCalls += st.temps
		acc.stBusy += float64(sumInt(st.temp)) / 1e9
	}
	for _, c := range p.captures {
		tr.add(span{Parent: mrfSolve, Req: req, Name: "checkpoint.capture", Start: tr.at(c.sweepReturn), End: tr.at(c.entry)})
		tr.add(span{Parent: mrfSolve, Req: req, Name: "checkpoint.encode", Start: tr.at(c.encStart), End: tr.at(c.encEnd)})
		acc.captures++
		acc.ckBytes += int64(c.bytes)
		acc.encode = append(acc.encode, c.encEnd.Sub(c.encStart).Seconds())
		acc.captureLag = append(acc.captureLag, c.entry.Sub(c.sweepReturn).Seconds())
	}
}

// layerMetrics renders the sampler, sweep and checkpoint layer metrics.
func (acc *layerAcc) layerMetrics() []metric {
	ns := 0.0
	if acc.sbLabels > 0 {
		ns = acc.sbBusy * 1e9 / float64(acc.sbLabels)
	}
	eff := 0.0
	if acc.execWall > 0 {
		eff = acc.busySum / acc.execWall
	}
	imb := 1.0
	if len(acc.imbalance) > 0 {
		imb = median(acc.imbalance)
	}
	ckBytes := 0.0
	if acc.captures > 0 {
		ckBytes = float64(acc.ckBytes) / float64(acc.captures)
	}
	sweeps := len(acc.sweepWall)
	return []metric{
		{Name: "mrf.sweep_s", Value: median(acc.sweepWall), Unit: "s", N: sweeps, Note: "p50"},
		{Name: "mrf.non_sample_s", Value: median(acc.nonSample), Unit: "s", N: sweeps, Note: "p50 of sweep wall minus blocking sampler busy"},
		{Name: "mrf.parallel_efficiency", Value: eff, Unit: "ratio", N: sweeps, Note: "Σ stream busy ÷ executors×sweep wall"},
		{Name: "mrf.flip_ratio", Value: ratio64(acc.flips, acc.draws), Unit: "ratio", N: sweeps},
		{Name: "core.sample_batch.calls", Value: float64(acc.sbCalls), Unit: "count", N: sweeps},
		{Name: "core.sample_batch.px", Value: float64(acc.sbPx), Unit: "count", N: sweeps},
		{Name: "core.sample_batch.busy_s", Value: acc.sbBusy, Unit: "s", N: sweeps, Note: "summed over streams"},
		{Name: "core.ns_per_px_label", Value: ns, Unit: "ns", N: sweeps},
		{Name: "core.set_temperature.calls", Value: float64(acc.stCalls), Unit: "count", N: sweeps},
		{Name: "core.set_temperature.busy_s", Value: acc.stBusy, Unit: "s", N: sweeps},
		{Name: "shard.tiles", Value: float64(max(acc.tiles, 1)), Unit: "count", N: 1},
		{Name: "shard.tile_busy_imbalance", Value: imb, Unit: "ratio", N: len(acc.imbalance), Note: "p50 per sweep of max÷mean stream busy"},
		{Name: "checkpoint.captures", Value: float64(acc.captures), Unit: "count", N: acc.captures},
		{Name: "checkpoint.bytes", Value: ckBytes, Unit: "B", N: acc.captures, Note: "mean per capture"},
		{Name: "checkpoint.encode_s", Value: median(acc.encode), Unit: "s", N: acc.captures, Note: "p50 per capture"},
		{Name: "checkpoint.capture_s", Value: median(acc.captureLag), Unit: "s", N: acc.captures, Note: "p50, OnSweep return to OnCheckpoint entry"},
	}
}

func ratio64(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func sumInt(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// reconcile reports how much of the roots' wall time the spans below the
// application boundary account for. unattributed names the spans whose self
// time no lower layer explains (the app or job boundary itself).
func reconcile(rep *report, rootName string, unattributed ...string) float64 {
	st := selfTimes(rep.spans)
	root := st[rootName]
	if root == nil || root.total == 0 {
		return 0
	}
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	rep.note("reconciliation: self time per span over %d %s spans (%.3f s wall)", root.n, rootName, float64(root.total)/1e9)
	var un int64
	for _, n := range names {
		lt := st[n]
		rep.note("  %-22s self %10.4f s  %6.2f%% of wall  (%d spans)", n, float64(lt.self)/1e9, 100*float64(lt.self)/float64(root.total), lt.n)
	}
	for _, n := range unattributed {
		if lt := st[n]; lt != nil {
			un += lt.self
		}
	}
	share := 1 - float64(un)/float64(root.total)
	if st["core.sample_batch"] != nil {
		rep.note("  (core.* rows sum every stream; parallel streams overlap, so their shares can pass 100%%)")
	}
	rep.note("  layers below the app boundary account for %.2f%% of the wall time", 100*share)
	return share
}
