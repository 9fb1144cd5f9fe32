package benchkit

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// gateReport builds a report with every gated kernel at scaled time 1,
// except those given a slowdown factor in slower.
func gateReport(slower map[string]float64) Report {
	rep := Report{Schema: Schema, NumCPU: 2, GOMAXPROCS: 2}
	for _, name := range MicroSet() {
		f := slower[name]
		if f == 0 {
			f = 1
		}
		rep.Benchmarks = append(rep.Benchmarks, Result{
			Name: name, NsOp: 100 * f, CalNsOp: 100, Scaled: f,
		})
	}
	return rep
}

func TestCompareIdenticalPasses(t *testing.T) {
	base := gateReport(nil)
	got, err := Compare(base, base)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if got.Regressed {
		t.Fatalf("identical reports flagged as regressed:\n%s", got)
	}
	if len(got.Checks) != len(MicroSet()) {
		t.Fatalf("checks = %d, want %d", len(got.Checks), len(MicroSet()))
	}
	if got.Tolerance != DefaultTolerance || DefaultTolerance != 0.15 {
		t.Fatalf("tolerance = %v (default %v), want 0.15", got.Tolerance, DefaultTolerance)
	}
}

// TestCompareWithinTolerancePasses: 14% slower is inside the 15% band, and
// faster is never a regression.
func TestCompareWithinTolerancePasses(t *testing.T) {
	base := gateReport(nil)
	cur := gateReport(map[string]float64{"unit-sample-new8": 1.14, "sample-batch": 0.5})
	got, err := Compare(base, cur)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if got.Regressed {
		t.Fatalf("14%% slowdown inside the 15%% tolerance flagged as regressed:\n%s", got)
	}
}

// TestCompareSingleBenchmarkRegression: 16% slower on one kernel trips the
// gate on exactly that kernel.
func TestCompareSingleBenchmarkRegression(t *testing.T) {
	base := gateReport(nil)
	cur := gateReport(map[string]float64{"label-energies-stereo": 1.16})
	got, err := Compare(base, cur)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if !got.Regressed {
		t.Fatalf("16%% slowdown not flagged:\n%s", got)
	}
	for _, c := range got.Checks {
		if c.Regressed != (c.Name == "label-energies-stereo") {
			t.Fatalf("check %s regressed = %v (ratio %v limit %v)", c.Name, c.Regressed, c.Ratio, c.Limit)
		}
	}
}

// TestCompareFailsOnInjected2xSlowdown is the gate's own acceptance check: a
// 2x slowdown injected through Report.WithInjectedSlowdown (the path the CI
// self-test step exercises) must trip every kernel.
func TestCompareFailsOnInjected2xSlowdown(t *testing.T) {
	base := gateReport(nil)
	got, err := Compare(base, base.WithInjectedSlowdown(2))
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if !got.Regressed {
		t.Fatalf("2x slowdown not flagged:\n%s", got)
	}
	for _, c := range got.Checks {
		if !c.Regressed || c.Ratio != 2 {
			t.Fatalf("check %s: regressed %v ratio %v under 2x slowdown", c.Name, c.Regressed, c.Ratio)
		}
	}
	if !strings.Contains(got.String(), "PERFORMANCE REGRESSION") {
		t.Fatalf("report text missing verdict:\n%s", got)
	}
}

func TestCompareMalformedInputs(t *testing.T) {
	base := gateReport(nil)
	other := gateReport(nil)
	other.Schema = "rsu-bench-perf/v1"
	if _, err := Compare(other, base); err == nil {
		t.Fatal("baseline schema mismatch not rejected")
	}
	if _, err := Compare(base, other); err == nil {
		t.Fatal("current schema mismatch not rejected")
	}
	missing := gateReport(nil)
	missing.Benchmarks = missing.Benchmarks[:2]
	if _, err := Compare(missing, base); err == nil {
		t.Fatal("kernel missing from the baseline not rejected")
	}
	if _, err := Compare(base, missing); err == nil {
		t.Fatal("kernel missing from the current report not rejected")
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		for field, set := range map[string]func(*Result){
			"ns_op":     func(r *Result) { r.NsOp = bad },
			"cal_ns_op": func(r *Result) { r.CalNsOp = bad },
			"scaled":    func(r *Result) { r.Scaled = bad },
		} {
			broken := gateReport(nil)
			set(&broken.Benchmarks[3])
			if _, err := Compare(base, broken); err == nil {
				t.Fatalf("current %s = %v not rejected", field, bad)
			}
			if _, err := Compare(broken, base); err == nil {
				t.Fatalf("baseline %s = %v not rejected", field, bad)
			}
		}
	}
}

// TestMicroSetMatchesSuite pins the gate's kernels to the checked-in
// baseline, so renaming or adding a kernel without recording a new baseline
// fails here instead of in CI, and checks the shard-sweep record still
// decodes.
func TestMicroSetMatchesSuite(t *testing.T) {
	var base Report
	readJSON(t, "../../BENCH_4.json", &base)
	if _, err := Compare(base, base); err != nil {
		t.Fatalf("BENCH_4.json does not cover the suite: %v", err)
	}
	if len(base.Benchmarks) != len(MicroSet()) {
		t.Fatalf("BENCH_4.json has %d kernels, the suite %d", len(base.Benchmarks), len(MicroSet()))
	}
	var shard ShardReport
	readJSON(t, "../../BENCH_3.json", &shard)
	if shard.Schema != ShardSchema || len(shard.Benchmarks) == 0 {
		t.Fatalf("BENCH_3.json decoded as %+v", shard)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
