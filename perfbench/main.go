// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time, checks every output it produces, and
// prints each metric by name with its unit and sample count. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 untraced
// and traced operations alternate and the metrics are the per-layer set,
// measured by timing calls into each layer's public functions from here (no
// instrumentation lives inside the program). Spans are kept in
// memory and written to -out when the run ends.
//
// Build and run from the repository root with
//
//	bash perfbench/run.sh --workload stereo-anneal --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rsu/internal/core"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	commit   string
	outDir   string
	// tiny shrinks every workload to a size the self-test can run in
	// seconds; tiny runs use their own reference bands.
	tiny bool
	// wrapTraced, when non-nil, decorates every sampler of the traced solves
	// on top of the observing decorator. The self-test installs a corrupting
	// decorator here to prove the correctness checks catch it.
	wrapTraced func(core.LabelSampler) core.LabelSampler
}

// workloads lists the runnable workloads in BENCHMARK.json order.
var workloads = []string{"stereo-anneal", "stereo-large", "serve-mix"}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, " | "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source commit recorded in the host fingerprint")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for the full result and span files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes the configured workload, prints the report and the final
// JSON line to w, and writes the full result and spans under cfg.outDir.
func run(cfg config, w io.Writer) error {
	var (
		rep *report
		err error
	)
	switch cfg.workload {
	case "stereo-anneal", "stereo-large":
		rep, err = runStereo(cfg)
	case "serve-mix":
		rep, err = runServeMix(cfg)
	default:
		return fmt.Errorf("unknown workload %q (want %s)", cfg.workload, strings.Join(workloads, " | "))
	}
	if err != nil {
		return err
	}
	rep.Host = fingerprint(cfg.commit, rep.SolverThreads)
	rep.EndToEnd = append(rep.EndToEnd, metric{Name: "peak_rss_bytes", Value: peakRSS(), Unit: "B", N: 1})
	rep.EndToEnd = append(rep.EndToEnd, metric{Name: "failed_ratio", Value: ratio(rep.Failed, rep.Attempted), Unit: "ratio", N: rep.Attempted,
		Note: "carried by the result line as failed/attempted"})
	if err := writeOutputs(cfg, rep); err != nil {
		return err
	}
	rep.print(w)
	return rep.printResult(w, cfg.trace)
}

// report is everything one run measured.
type report struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Host      host     `json:"host"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer,omitempty"`
	// Notes are the human-readable statements the run makes: the
	// reconciliation table, the working-set statement, the generator lag.
	Notes []string `json:"notes,omitempty"`
	// Samples keeps the per-operation times behind the end-to-end timings,
	// in completion order.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// SolverThreads is the most goroutines that did solver work at once.
	SolverThreads int `json:"-"`
	spans         []span
}

// fail counts one failed operation and keeps its first few reasons.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value.
	N    int    `json:"n"`
	Note string `json:"note,omitempty"`
}

// endToEndNames and perLayerNames are the metrics of the result line, in
// BENCHMARK.json order. The result line carries the same metrics for every
// workload, so it holds only the end-to-end metrics that mean something on
// all three: solve_p50_s is the median wall time of one solve, in the
// closed loops the solve call, on serve-mix the job's run time inside the
// service.
var endToEndNames = []string{
	"setup_s",
	"solve_p50_s",
	"peak_rss_bytes",
	"quality_bp_pct",
}

// reportOnly lists, per workload, the end-to-end metrics printed in the
// report only, for the workloads they apply to. Throughput in a closed loop
// with one client is the inverse of the solve time, so bounding both would
// count one number twice. failed_ratio travels in the result line as
// failed/attempted. The serve-mix latencies and slo_met_ratio follow the
// reference host's wake-up and queueing delays, which no calibration
// scales: their quartiles spread by 0.3-0.6 of the median between runs,
// the same seed included, beyond any bound the result line could carry.
var reportOnly = map[string][]string{
	"stereo-anneal": {"throughput_px_sweeps_per_s", "solve_tail_s", "failed_ratio"},
	"stereo-large":  {"throughput_px_sweeps_per_s", "failed_ratio"},
	"serve-mix":     {"latency_p50_s", "latency_tail_s", "slo_met_ratio", "failed_ratio"},
}

var perLayerNames = []string{
	"synth.build_s",
	"mrf.tables.build_s",
	"mrf.tables.bytes",
	"mrf.bytes_per_px_sweep",
	"mrf.sweep_s",
	"mrf.non_sample_s",
	"mrf.parallel_efficiency",
	"mrf.flip_ratio",
	"core.sample_batch.calls",
	"core.sample_batch.px",
	"core.sample_batch.busy_s",
	"core.ns_per_px_label",
	"core.set_temperature.calls",
	"core.set_temperature.busy_s",
	"core.convcache.hit_ratio",
	"shard.tiles",
	"shard.tile_busy_imbalance",
	"checkpoint.captures",
	"checkpoint.bytes",
	"checkpoint.encode_s",
	"checkpoint.capture_s",
	"uq.collect_s",
	"serve.queue_wait_s.p50",
	"serve.queue_wait_s.tail",
	"serve.run_s.stereo",
	"serve.run_s.flow",
	"serve.run_s.segment",
	"serve.run_s.ising",
	"serve.rejected",
	"serve.expired",
	"serve.failed",
	"serve.queue_depth_max",
	"serve.cache.pair_hit_ratio",
	"serve.cache.dataset_hit_ratio",
	"serve.cache.conv_hit_ratio",
	"loadgen.lag_s.p50",
	"loadgen.lag_s.max",
	"trace.reconciled_share",
	"trace.overhead_pct",
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	h, _ := json.Marshal(r.Host)
	fmt.Fprintf(w, "host %s\n", h)
	if r.Host.Oversubscribed {
		fmt.Fprintf(w, "WARNING: %d solver threads exceed NumCPU %d; no parallel number from this run is valid\n",
			r.Host.SolverThreads, r.Host.NumCPU)
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %-32s %16.6g %-12s n=%d", m.Name, m.Value, m.Unit, m.N)
			if m.Note != "" {
				fmt.Fprintf(w, "  (%s)", m.Note)
			}
			fmt.Fprintln(w)
		}
	}
	section("end-to-end", r.EndToEnd)
	section("per-layer (traced operations)", r.PerLayer)
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "operations attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// resultLine is the benchmark's machine-readable contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the final JSON line. Every listed metric must have
// been measured; a missing one is a benchmark bug, reported as an error.
func (r *report) printResult(w io.Writer, trace bool) error {
	names, ms := endToEndNames, r.EndToEnd
	if trace {
		names, ms = perLayerNames, r.PerLayer
	}
	byName := make(map[string]metric, len(ms))
	for _, m := range ms {
		byName[m.Name] = m
	}
	out := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultValue{}}
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeOutputs saves the full report and, for traced runs, the spans.
func writeOutputs(cfg config, r *report) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, btoi(r.Trace))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, base+".json"), b, 0o644); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].ID < r.spans[j].ID })
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(cfg.outDir, base+".spans.jsonl"), []byte(sb.String()), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
