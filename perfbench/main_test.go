package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"rsu/internal/core"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test cross-checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at the self-test size and returns the report
// text and the parsed result line.
func runTiny(t *testing.T, workload string, trace bool, wrap func(core.LabelSampler) core.LabelSampler) (string, resultLine) {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 1, trace: trace, commit: "test", outDir: t.TempDir(), tiny: true, wrapTraced: wrap}
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	text := strings.TrimSpace(buf.String())
	lines := strings.Split(text, "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return text, res
}

// TestWorkloadsPrintEveryMetric runs every workload untraced and traced at
// the tiny size and checks that each metric BENCHMARK.json names is in the
// result line and in the report, with BENCHMARK.json's unit.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Fatalf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
	type named struct{ Name, Unit string }
	sets := map[bool][]named{}
	for _, m := range spec.EndToEnd {
		sets[false] = append(sets[false], named{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		sets[true] = append(sets[true], named{m.Name, m.Unit})
	}
	if len(sets[false]) != len(endToEndNames) || len(sets[true]) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark prints %d+%d",
			len(sets[false]), len(sets[true]), len(endToEndNames), len(perLayerNames))
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			text, res := runTiny(t, w, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, text)
			}
			if len(res.Metrics) != len(sets[trace]) {
				t.Errorf("%s trace=%v: result has %d metrics, want %d", w, trace, len(res.Metrics), len(sets[trace]))
			}
			for _, m := range sets[trace] {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
				if !reportLists(text, m.Name, m.Unit) {
					t.Errorf("%s trace=%v: report does not print %s with unit %s", w, trace, m.Name, m.Unit)
				}
			}
			for _, name := range reportOnly[w] {
				if !reportLists(text, name, reportOnlyUnits[name]) {
					t.Errorf("%s trace=%v: report does not print %s with unit %s", w, trace, name, reportOnlyUnits[name])
				}
			}
		}
	}
}

// reportOnlyUnits are the units of the metrics printed in the report only.
var reportOnlyUnits = map[string]string{
	"throughput_px_sweeps_per_s": "px_sweep/s",
	"latency_p50_s":              "s",
	"solve_tail_s":               "s",
	"latency_tail_s":             "s",
	"slo_met_ratio":              "ratio",
	"failed_ratio":               "ratio",
}

// reportLists reports whether a report line prints the metric and its unit.
func reportLists(text, name, unit string) bool {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// reportValue is the value a report line prints for the metric.
func reportValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// corrupter is a benchmark-side decorator that changes the label of the
// first pixel of every draw, while forwarding everything else.
type corrupter struct {
	core.LabelSampler
}

func (c corrupter) Sample(energies []float64, current int) (int, error) {
	l, err := c.LabelSampler.Sample(energies, current)
	return (l + 1) % len(energies), err
}

func (c corrupter) SampleBatch(energies []float64, stride int, currents, out []int) error {
	err := core.AsBatch(c.LabelSampler).SampleBatch(energies, stride, currents, out)
	if len(out) > 0 {
		out[0] = (out[0] + 1) % stride
	}
	return err
}

func (c corrupter) CaptureState() (core.SamplerState, error) {
	return c.LabelSampler.(core.Checkpointable).CaptureState()
}

func (c corrupter) RestoreState(s core.SamplerState) error {
	return c.LabelSampler.(core.Checkpointable).RestoreState(s)
}

// TestCorruptionIsCaught proves the correctness checks see a decorator
// that alters labels: every workload's traced operations run through it, and
// the failures must show in the result line and in failed_ratio.
func TestCorruptionIsCaught(t *testing.T) {
	wrap := func(s core.LabelSampler) core.LabelSampler { return corrupter{s} }
	for _, w := range workloads {
		text, res := runTiny(t, w, true, wrap)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted labels not caught: correct=%v failed=%d\n%s", w, res.Correct, res.Failed, text)
		}
		if v, ok := reportValue(text, "failed_ratio"); !ok || v <= 0 {
			t.Errorf("%s: failed_ratio reads %v despite %d failures", w, v, res.Failed)
		}
	}
}
